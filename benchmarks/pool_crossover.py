"""Where does the worker pool start to pay?  The sweep behind
``repro.query.engine.POOL_MIN_EXECUTIONS``.

One ``QueryService`` (4 shards, 2 pool workers) answers the same request
lists three ways, and the table is the median milliseconds a request
takes each way:

* **pool** -- every request is split across the worker pool, however
  small (the behaviour before routing existed);
* **in-process** -- every request runs on the calling thread, however
  big, while the pool idles beside it;
* **routed** -- the service as shipped: ``routes_to_pool`` decides.

The first two columns are produced by overriding ``routes_to_pool`` on
this script's own engine object; nothing in ``src/`` has a switch for
them.  Rows sweep the request size (1-256 queries, thirds of where /
when / range; ``execs`` is the median shard executions a request's plan
holds, ~2 a distinct query on 4 shards and fewer when queries repeat), two
cache regimes (*warm*: Zipf-repeated queries that fit the decode cache;
*cold*: queries that never repeat over shards four times the cache) and
1 or 4 closed-loop callers.  The constant belongs where the pool column
crosses under the in-process column for one caller; the routed column
should then track the better of the two.  The 4-caller cells are
reported, not used: no ledger workload has concurrent clients yet.

Run (about twelve minutes; not a CI job, not a ledger file)::

    PYTHONPATH=src python benchmarks/pool_crossover.py

Stdlib and ``repro`` only; the shards are built in a temporary
directory from ``repro.trajectories.datasets``.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import tempfile
import threading
import time

from repro.core import CompressedArchive, UTCQCompressor
from repro.core.decoder import DecodeSpanCache
from repro.query import (
    RangeQuery,
    StIUIndex,
    UTCQQueryProcessor,
    WhenQuery,
    WhereQuery,
    save_index,
)
from repro.query.engine import POOL_MIN_EXECUTIONS
from repro.serve import QueryService, ServiceConfig
from repro.trajectories.datasets import load_dataset, profile
from repro.workloads.harness import build_query_workload

SHARDS = 4
WORKERS = 2
SIZES = (1, 4, 16, 32, 64, 96, 128, 192, 256)
CALLERS = (1, 4)
ROUTES = {
    "pool": lambda plan, breaker_open=False: bool(plan.tasks),
    "in-process": lambda plan, breaker_open=False: False,
    "routed": None,  # the engine's own rule
}


def build_shards(root: str, count: int, seed: int):
    prof = profile("CD")
    network, trajectories = load_dataset("CD", count, seed=seed)
    archive = UTCQCompressor(
        network=network,
        default_interval=prof.default_interval,
        eta_probability=prof.default_eta_probability,
    ).compress(trajectories)
    paths = []
    for shard in range(SHARDS):
        part = CompressedArchive(
            params=archive.params,
            trajectories=archive.trajectories[
                shard * count // SHARDS:(shard + 1) * count // SHARDS
            ],
        )
        path = os.path.join(root, f"shard-{shard}.utcq")
        part.save(path)
        save_index(StIUIndex(network, part), path)
        paths.append(path)
    return network, trajectories, paths


def working_set_bytes(network, path) -> int:
    """What the decode cache charges for everything queries can touch in
    one shard: every record, time sequence, reference, instance and
    chainage table, reached by a ``where`` at alpha 0 per trajectory."""
    index = StIUIndex.over_file(network, path)
    try:
        processor = UTCQQueryProcessor(
            network, index.archive, index,
            cache=DecodeSpanCache(budget_bytes=1 << 40, register=False),
        )
        for trajectory_id in index.archive.trajectory_ids():
            start, end = index.archive.time_span(trajectory_id)
            processor.where(trajectory_id, (start + end) // 2, 0.0)
        return processor.cache.resident_bytes
    finally:
        index.archive.close()


def request_lists(network, trajectories, size, *, warm, callers, seed):
    """One request list per caller, thirds of where / when / range.
    Warm: every slot is a Zipf draw from 200 queries of its kind.  Cold:
    each slot takes the next query of a workload sampled to size, and a
    list holds enough of them to cycle each shard's decode cache."""
    rng = random.Random(seed * 1009 + size)
    count = max(20, 640 // size) if warm else max(12, 3000 // size)
    slots = callers * count * size
    workload = build_query_workload(
        network,
        trajectories,
        count=200 if warm else -(-slots // 3),
        seed=seed * 1009 + size,
    )
    kinds = (
        [WhereQuery(*args) for args in workload.where_queries],
        [WhenQuery(*args) for args in workload.when_queries],
        [RangeQuery(*args) for args in workload.range_queries],
    )
    weights = [1.0 / (rank + 1) for rank in range(200)]

    def draw(slot):
        if warm:
            return rng.choices(kinds[slot % 3], weights)[0]
        return kinds[slot % 3][slot // 3]

    return [
        [
            [
                draw((caller * count + request) * size + n)
                for n in range(size)
            ]
            for request in range(count)
        ]
        for caller in range(callers)
    ]


def measure(service: QueryService, lists, rounds: int) -> dict[str, float]:
    """Median ms per request for each route.  The routes take turns,
    and the turn order rotates each lap: whichever runs straight after
    the in-process route finds the workers' CPU caches cold (~10 % here),
    and that must land on all three alike, as drift on a shared host
    does."""
    samples: dict[str, list[float]] = {route: [] for route in ROUTES}

    def caller(requests, out):
        for request in requests:
            started = time.perf_counter()
            response = service.submit_many(request)
            out.append(time.perf_counter() - started)
            if not response.ok:
                raise SystemExit(f"request failed: {response.error}")

    order = list(ROUTES.items())
    for lap in range(rounds + 1):
        order.append(order.pop(0))
        for route, rule in order:
            if rule is None:
                service.engine.__dict__.pop("routes_to_pool", None)
            else:
                service.engine.routes_to_pool = rule
            outs = [[] for _ in lists]
            threads = [
                threading.Thread(target=caller, args=(requests, out))
                for requests, out in zip(lists, outs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if lap:  # lap 0 fills each route's own caches
                samples[route].extend(s for out in outs for s in out)
    service.engine.__dict__.pop("routes_to_pool", None)
    return {
        route: statistics.median(values) * 1000
        for route, values in samples.items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trajectories", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--rounds", type=int, default=6,
        help="timed laps per cell; a multiple of 3 gives every route "
        "every turn equally often",
    )
    args = parser.parse_args()
    print(
        f"{args.trajectories} CD trajectories, {SHARDS} shards, "
        f"{WORKERS} pool workers, POOL_MIN_EXECUTIONS="
        f"{POOL_MIN_EXECUTIONS}; median ms per request"
    )
    print(
        f"{'regime':<6} {'callers':>7} {'queries':>7} {'execs':>6} "
        f"{'pool':>8} {'in-proc':>8} {'routed':>8}  routed/best"
    )
    with tempfile.TemporaryDirectory(prefix="repro-crossover-") as root:
        network, trajectories, paths = build_shards(
            root, args.trajectories, args.seed
        )
        cold_budget = working_set_bytes(network, paths[0]) // 4
        for warm in (True, False):
            # cold: each shard is four times its decode cache (workers
            # inherit the environment when the pool forks)
            if warm:
                os.environ.pop("REPRO_DECODE_CACHE_BYTES", None)
            else:
                os.environ["REPRO_DECODE_CACHE_BYTES"] = str(cold_budget)
            with QueryService(
                paths,
                network=network,
                workers=WORKERS,
                config=ServiceConfig(deadline=30.0),
            ) as service:
                for callers in CALLERS:
                    for size in SIZES:
                        lists = request_lists(
                            network, trajectories, size,
                            warm=warm, callers=callers, seed=args.seed,
                        )
                        ms = measure(service, lists, args.rounds)
                        best = min(ms["pool"], ms["in-process"])
                        execs = statistics.median(
                            service.engine.plan(request).executions
                            for request in lists[0]
                        )
                        print(
                            f"{'warm' if warm else 'cold':<6} {callers:>7} "
                            f"{size:>7} {execs:>6.0f} {ms['pool']:>8.2f} "
                            f"{ms['in-process']:>8.2f} {ms['routed']:>8.2f}"
                            f"  {ms['routed'] / best:>6.2f}",
                            flush=True,
                        )


if __name__ == "__main__":
    main()
