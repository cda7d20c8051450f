"""Serving availability benchmarks (`repro serve-bench`) and the trace probe.

Throughput and per-layer cost are measured by ``ledger/run.py``
(``BENCHMARK.json``); this module keeps what the ledger does not
measure — how the serving tier behaves *under faults* — and writes it
to ``BENCH_query_throughput.json`` at the repo root (which also holds
the pre-ledger throughput rows as history):

* a fixed seeded dataset is compressed once and saved as a 4-way
  sharded copy with ``.stiu`` sidecars;
* a pool of distinct where/when/range queries is sampled from the
  dataset (:func:`~repro.workloads.harness.build_query_workload`), then
  a request stream is drawn from it with Zipf-like skew — popular
  queries repeat, the way popular locations dominate real traffic;
* :func:`run_chaos_bench` serves that stream through a supervised
  :class:`~repro.serve.QueryService` while workers are killed, responses
  delayed and one shard corrupted on disk; :func:`run_wire_chaos_bench`
  puts the faults on the network instead — clients reach the service
  through a fault-injecting TCP proxy.  Both report availability,
  p50/p99 latency and oracle mismatches, and both draw request sizes
  on either side of :data:`~repro.query.engine.POOL_MIN_EXECUTIONS`
  (:func:`draw_request`) so the in-process route and the worker pool
  are each under load;
* :func:`run_trace_probe` submits one traced request through the real
  sharded path — the instrument behind ``repro obs trace``.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass

from ..core.archive import CompressedArchive
from ..core.compressor import UTCQCompressor
from ..trajectories.datasets import load_dataset, profile
from .reporting import ExperimentLog, merge_rows

BENCH_TABLE_TITLE = "query_throughput"
BENCH_HEADERS = ("label", "benchmark", "unit", "work", "seconds", "rate")
DEFAULT_OUTPUT = "BENCH_query_throughput.json"

SHARD_COUNT = 4

#: queries in a chaos bench's small request (far below the routing
#: constant: answered in process)
SMALL_REQUEST = 4


@dataclass(frozen=True)
class BenchResult:
    """One measured row: ``rate = work / seconds`` in ``unit``."""

    name: str
    unit: str
    work: int
    seconds: float

    @property
    def rate(self) -> float:
        return self.work / self.seconds if self.seconds > 0 else float("inf")

    def row(self, label: str) -> list:
        return [
            label,
            self.name,
            self.unit,
            self.work,
            round(self.seconds, 4),
            round(self.rate, 1),
        ]


@dataclass(frozen=True)
class GaugeResult(BenchResult):
    """A bench row whose headline number is a direct gauge, not
    work/seconds — availability percentages, latency percentiles."""

    value: float = 0.0

    @property
    def rate(self) -> float:
        return self.value

    def row(self, label: str) -> list:
        # gauges carry configuration too (seeds, fault probabilities);
        # BenchResult's 1-decimal rate rounding would erase them
        return [
            label,
            self.name,
            self.unit,
            self.work,
            round(self.seconds, 4),
            round(self.value, 6),
        ]


def build_serving_workload(
    network,
    trajectories,
    *,
    distinct_per_kind: int,
    total: int,
    workload_seed: int = 5,
    draw_seed: int = 11,
):
    """A skewed request stream over a distinct query pool.

    Returns ``(distinct_queries, stream)`` where ``stream`` draws
    ``total`` requests from the pool with weight ``1 / (rank + 1)`` —
    a Zipf-like popularity curve, so a handful of hot queries dominate
    the stream the way popular locations dominate real traffic.
    """
    from ..query.engine import RangeQuery, WhenQuery, WhereQuery
    from .harness import build_query_workload

    workload = build_query_workload(
        network, trajectories, count=distinct_per_kind, seed=workload_seed
    )
    distinct = (
        [WhereQuery(*args) for args in workload.where_queries]
        + [WhenQuery(*args) for args in workload.when_queries]
        + [RangeQuery(*args) for args in workload.range_queries]
    )
    rng = random.Random(draw_seed)
    weights = [1.0 / (rank + 1) for rank in range(len(distinct))]
    stream = rng.choices(distinct, weights=weights, k=total)
    return distinct, stream


class _ServingFixture:
    """Dataset + archives + request stream shared by every scenario."""

    def __init__(self, root, *, quick: bool) -> None:
        import os

        from ..pipeline.batch import save_archive_with_index

        count = 60 if quick else 240
        scale = 12 if quick else 14
        prof = profile("CD")
        self.network, self.trajectories = load_dataset(
            "CD", count, seed=7, network_scale=scale
        )
        compressor = UTCQCompressor(
            network=self.network,
            default_interval=prof.default_interval,
            eta_probability=prof.default_eta_probability,
        )
        archive = compressor.compress(self.trajectories)
        self.shard_paths = []
        total = len(archive.trajectories)
        for shard in range(SHARD_COUNT):
            lo = shard * total // SHARD_COUNT
            hi = (shard + 1) * total // SHARD_COUNT
            part = CompressedArchive(
                params=archive.params,
                trajectories=archive.trajectories[lo:hi],
            )
            path = os.path.join(root, f"shard-{shard}.utcq")
            save_archive_with_index(part, path, self.network)
            self.shard_paths.append(path)
        self.distinct, self.stream = build_serving_workload(
            self.network,
            self.trajectories,
            distinct_per_kind=60 if quick else 200,
            total=600 if quick else 3000,
        )
        #: the distinct queries, each once (sampling can repeat one)
        self.pool = list(dict.fromkeys(self.distinct))


def draw_request(fixture: _ServingFixture, rng: random.Random) -> list:
    """One chaos-bench request, on either side of the routing constant.

    Half are :data:`SMALL_REQUEST` queries from the skewed stream —
    the service answers those in process.  The other half are distinct
    queries drawn until their plan costs an eighth more than
    :data:`~repro.query.engine.POOL_MIN_EXECUTIONS` shard executions,
    which the service splits across its worker pool: without them no
    pool fault would ever be injected and the availability floor would
    pass vacuously.
    """
    from ..query.engine import POOL_MIN_EXECUTIONS, RangeQuery

    if rng.random() < 0.5:
        return rng.sample(fixture.stream, SMALL_REQUEST)
    target = POOL_MIN_EXECUTIONS + POOL_MIN_EXECUTIONS // 8
    batch: list = []
    executions = 0
    for query in rng.sample(fixture.pool, len(fixture.pool)):
        batch.append(query)
        # a range spec runs on every shard, the others on one
        executions += SHARD_COUNT if isinstance(query, RangeQuery) else 1
        if executions >= target:
            return batch
    raise ValueError(
        f"serving fixture holds {executions} shard executions, fewer "
        f"than a pool-sized request needs ({target})"
    )


def _route_counts(service_stats: dict) -> dict:
    """Completed requests per route, and those the pool answered whole."""
    return {
        "inprocess": service_stats["routed_inprocess"],
        "pool": service_stats["routed_pool"],
        "served_by_pool": service_stats["served_sharded"],
    }


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    rank = int(round(fraction * (len(sorted_values) - 1)))
    return sorted_values[min(rank, len(sorted_values) - 1)]


def run_chaos_bench(
    *,
    duration: float = 30.0,
    clients: int = 3,
    quick: bool = False,
    deadline: float = 5.0,
    kill_probability: float = 0.005,
    delay_probability: float = 0.02,
    delay_seconds: float = 0.4,
    workers: int = 2,
    seed: int = 23,
) -> tuple[list[BenchResult], dict]:
    """``repro serve-bench``: availability under faults.

    Serves the skewed request stream through a supervised
    :class:`~repro.serve.QueryService` while a seeded
    :class:`~repro.serve.ChaosProxy` kills workers and delays responses,
    and — once, mid-run — a shard file is corrupted on disk, held
    corrupt briefly, then restored (exercising quarantine and
    re-admission).  Every completed answer is checked against reference
    results computed up front on a healthy single-process engine, so
    the headline numbers are:

    * **availability** — percent of requests answered (correctly)
      before their deadline; typed sheds and quarantine refusals count
      *against* it, mismatches would too (and fail the run's contract);
    * **p50/p99 latency** of the answered requests, which is where the
      cost of respawns, hedges, and in-process fallbacks shows up.

    Returns ``(rows, summary)`` — bench rows for the perf-trajectory
    file plus a diagnostic summary dict.
    """
    import tempfile

    from ..query.engine import ShardedQueryEngine
    from ..serve import ChaosProxy, QueryService, ServiceConfig
    from ..serve.chaos import corrupt_shard, kill_fault, restore_shard

    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    with tempfile.TemporaryDirectory(prefix="repro-chaos-bench-") as root:
        fixture = _ServingFixture(root, quick=quick)
        with ShardedQueryEngine(
            fixture.shard_paths, network=fixture.network, workers=1
        ) as reference:
            expected = dict(
                zip(fixture.distinct, reference.run(fixture.distinct))
            )

        proxy_holder: list[ChaosProxy] = []

        def wrap(pool) -> ChaosProxy:
            proxy = ChaosProxy(
                pool,
                kill_probability=kill_probability,
                delay_probability=delay_probability,
                delay_seconds=delay_seconds,
                seed=seed,
            )
            proxy_holder.append(proxy)
            return proxy

        service = QueryService(
            fixture.shard_paths,
            network=fixture.network,
            workers=workers,
            pool_wrapper=wrap,
            config=ServiceConfig(
                deadline=deadline,
                quarantine_reprobe=0.05,
                breaker_reset=0.5,
                health_interval=0.25,
            ),
        )
        proxy = proxy_holder[0] if proxy_holder else None

        lock = threading.Lock()
        latencies: list[float] = []
        outcomes: dict[str, int] = {}
        mismatches = 0
        checked = 0
        started = time.monotonic()
        stop_at = started + duration

        def client_loop(which: int) -> None:
            nonlocal mismatches, checked
            rng = random.Random(seed * 1000 + which)
            while time.monotonic() < stop_at:
                batch = draw_request(fixture, rng)
                response = service.submit_many(
                    batch, client=f"client-{which}", deadline=deadline
                )
                bad = 0
                if response.ok:
                    bad = sum(
                        1
                        for query, answer in zip(batch, response.results)
                        if answer != expected[query]
                    )
                with lock:
                    outcomes[response.kind] = (
                        outcomes.get(response.kind, 0) + 1
                    )
                    if response.ok:
                        latencies.append(response.latency)
                        checked += len(batch)
                        mismatches += bad

        threads = [
            threading.Thread(
                target=client_loop, args=(which,), daemon=True,
                name=f"chaos-client-{which}",
            )
            for which in range(clients)
        ]
        for thread in threads:
            thread.start()

        # the scripted incident: corrupt one shard mid-run, hold
        # briefly, restore — long enough to force quarantine, short
        # enough that the fenced window stays inside the availability
        # budget at any --duration
        corrupt_path = fixture.shard_paths[-1]
        hold = max(0.1, min(0.25, duration / 300.0))
        time.sleep(max(0.0, started + 0.4 * duration - time.monotonic()))
        pristine = corrupt_shard(corrupt_path)
        try:
            if proxy is not None:
                # flush warm worker caches so the corruption is seen
                proxy.arm(kill_fault())
            time.sleep(hold)
        finally:
            restore_shard(corrupt_path, pristine)

        for thread in threads:
            thread.join(timeout=duration + 4 * deadline)
        elapsed = time.monotonic() - started
        service_stats = service.stats.snapshot()
        supervisor_stats = (
            service.supervisor.stats.snapshot()
            if service.supervisor is not None
            else {}
        )
        injected = dict(proxy.injected) if proxy is not None else {}
        still_quarantined = service.quarantined_shards()
        service.close()

    total = sum(outcomes.values())
    ok = outcomes.get("ok", 0)
    availability = 100.0 * ok / total if total else 0.0
    latencies.sort()
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)
    faults = sum(injected.values()) + 1  # +1: the corruption incident
    rows = [
        BenchResult("chaos_requests", "req/s", total, elapsed),
        GaugeResult(
            "chaos_availability", "percent", ok, elapsed, value=availability
        ),
        GaugeResult(
            "chaos_p50_latency", "ms", len(latencies), elapsed,
            value=p50 * 1000.0,
        ),
        GaugeResult(
            "chaos_p99_latency", "ms", len(latencies), elapsed,
            value=p99 * 1000.0,
        ),
        GaugeResult(
            "chaos_mismatches", "results", checked, elapsed,
            value=float(mismatches),
        ),
        GaugeResult(
            "chaos_faults_injected", "faults", faults, elapsed,
            value=float(faults),
        ),
        # the fault script itself, in-band: a chaos row set that does
        # not record its seed and injection knobs cannot be reproduced
        GaugeResult(
            "chaos_seed", "seed", 1, elapsed, value=float(seed)
        ),
        GaugeResult(
            "chaos_kill_probability", "probability", 1, elapsed,
            value=kill_probability,
        ),
        GaugeResult(
            "chaos_delay_probability", "probability", 1, elapsed,
            value=delay_probability,
        ),
        GaugeResult(
            "chaos_delay_seconds", "seconds", 1, elapsed,
            value=delay_seconds,
        ),
    ]
    summary = {
        "seed": seed,
        "fault_script": {
            "kill_probability": kill_probability,
            "delay_probability": delay_probability,
            "delay_seconds": delay_seconds,
            "corruption_incidents": 1,
            "corruption_hold_seconds": round(hold, 3),
        },
        "duration": round(elapsed, 3),
        "clients": clients,
        "requests": total,
        "outcomes": dict(sorted(outcomes.items())),
        "availability_percent": round(availability, 3),
        "p50_ms": round(p50 * 1000.0, 3),
        "p99_ms": round(p99 * 1000.0, 3),
        "results_checked": checked,
        "result_mismatches": mismatches,
        "faults_injected": injected,
        "routes": _route_counts(service_stats),
        "still_quarantined": still_quarantined,
        "service": service_stats,
        "supervisor": supervisor_stats,
    }
    return rows, summary


def run_wire_chaos_bench(
    *,
    duration: float = 30.0,
    clients: int = 3,
    quick: bool = False,
    deadline: float = 5.0,
    refuse_probability: float = 0.02,
    disconnect_probability: float = 0.01,
    truncate_probability: float = 0.005,
    corrupt_probability: float = 0.01,
    stall_probability: float = 0.02,
    stall_seconds: float = 0.05,
    workers: int = 2,
    seed: int = 29,
) -> tuple[list[BenchResult], dict]:
    """``repro serve-bench --wire``: availability through a hostile wire.

    The request stream crosses a real TCP hop —
    :class:`~repro.serve.WireClient` → seeded
    :class:`~repro.serve.ChaosTCPProxy` →
    :class:`~repro.serve.WireServerThread` →
    :class:`~repro.serve.QueryService` → worker pool — while the
    proxy refuses connections, disconnects mid-frame, truncates
    frames, corrupts bytes in flight, and stalls chunks, and
    a dedicated **slow-loris** thread holds half-sent headers open
    until the server's read deadlines reap them.  Clients retry with
    jittered backoff, so availability measures *end-to-end* recovery:
    a request counts as served only if a correct answer came back
    before the caller gave up.  Every completed answer is checked
    against a healthy single-process reference — corruption that
    slipped through the CRCs would land in ``result_mismatches`` and
    fail the run's contract.
    """
    import socket as socket_module
    import tempfile

    from ..query.engine import ShardedQueryEngine
    from ..serve import (
        ChaosTCPProxy,
        DeadlineExceeded,
        Overloaded,
        QueryService,
        ServiceConfig,
        ShardQuarantined,
        WireClient,
        WireError,
        WireServerConfig,
        WireServerThread,
    )

    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    with tempfile.TemporaryDirectory(prefix="repro-wire-chaos-") as root:
        fixture = _ServingFixture(root, quick=quick)
        with ShardedQueryEngine(
            fixture.shard_paths, network=fixture.network, workers=1
        ) as reference:
            expected = dict(
                zip(fixture.distinct, reference.run(fixture.distinct))
            )
        service = QueryService(
            fixture.shard_paths,
            network=fixture.network,
            workers=workers,
            config=ServiceConfig(
                deadline=deadline,
                quarantine_reprobe=0.05,
                breaker_reset=0.5,
                health_interval=0.25,
            ),
        )
        lock = threading.Lock()
        latencies: list[float] = []
        outcomes: dict[str, int] = {}
        mismatches = 0
        checked = 0
        loris_reaped = 0
        try:
            with WireServerThread(
                service,
                config=WireServerConfig(
                    idle_timeout=2.0, read_timeout=1.0
                ),
            ) as server:
                with ChaosTCPProxy(
                    "127.0.0.1",
                    server.port,
                    refuse_probability=refuse_probability,
                    disconnect_probability=disconnect_probability,
                    truncate_probability=truncate_probability,
                    corrupt_probability=corrupt_probability,
                    stall_probability=stall_probability,
                    stall_seconds=stall_seconds,
                    seed=seed,
                ) as proxy:
                    started = time.monotonic()
                    stop_at = started + duration
                    running = threading.Event()
                    running.set()

                    def client_loop(which: int) -> None:
                        nonlocal mismatches, checked
                        rng = random.Random(seed * 1000 + which)
                        client = WireClient(
                            "127.0.0.1",
                            proxy.port,
                            client_id=f"wire-{which}",
                            connect_timeout=1.0,
                            request_timeout=deadline + 2.0,
                            max_attempts=5,
                            seed=seed * 77 + which,
                        )
                        try:
                            while time.monotonic() < stop_at:
                                batch = draw_request(fixture, rng)
                                try:
                                    result = client.request(
                                        batch, deadline=deadline
                                    )
                                except Overloaded:
                                    outcome = "overloaded"
                                except DeadlineExceeded:
                                    outcome = "deadline"
                                except ShardQuarantined:
                                    outcome = "quarantined"
                                except (WireError, OSError):
                                    outcome = "wire_failed"
                                else:
                                    outcome = "ok"
                                    bad = sum(
                                        1
                                        for query, answer in zip(
                                            batch, result.results
                                        )
                                        if answer != expected[query]
                                    )
                                    with lock:
                                        latencies.append(result.latency)
                                        checked += len(batch)
                                        mismatches += bad
                                with lock:
                                    outcomes[outcome] = (
                                        outcomes.get(outcome, 0) + 1
                                    )
                        finally:
                            client.close()

                    def loris_loop() -> None:
                        # hold half-sent headers open; the server's
                        # idle/read deadlines must reap each one
                        nonlocal loris_reaped
                        while running.is_set() and (
                            time.monotonic() < stop_at
                        ):
                            try:
                                sock = socket_module.create_connection(
                                    ("127.0.0.1", proxy.port),
                                    timeout=1.0,
                                )
                            except OSError:
                                time.sleep(0.1)  # refused by chaos
                                continue
                            try:
                                sock.settimeout(10.0)
                                sock.sendall(b"RW\x01\x01half")
                                if sock.recv(64) == b"":
                                    with lock:
                                        loris_reaped += 1
                            except OSError:
                                with lock:
                                    loris_reaped += 1
                            finally:
                                try:
                                    sock.close()
                                except OSError:
                                    pass

                    threads = [
                        threading.Thread(
                            target=client_loop, args=(which,),
                            daemon=True, name=f"wire-client-{which}",
                        )
                        for which in range(clients)
                    ]
                    threads.append(
                        threading.Thread(
                            target=loris_loop, daemon=True,
                            name="wire-loris",
                        )
                    )
                    for thread in threads:
                        thread.start()
                    for thread in threads[:clients]:
                        thread.join(timeout=duration + 4 * deadline)
                    running.clear()
                    threads[-1].join(timeout=15.0)
                    elapsed = time.monotonic() - started
                    injected = dict(proxy.injected)
                    wire_stats = {
                        "connections": server.server.stats.
                        connections_total.value,
                        "requests": server.server.stats.requests.value,
                        "shed": server.server.stats.shed.value,
                    }
            service_stats = service.stats.snapshot()
        finally:
            service.close()

    total = sum(outcomes.values())
    ok = outcomes.get("ok", 0)
    availability = 100.0 * ok / total if total else 0.0
    latencies.sort()
    p50 = _percentile(latencies, 0.50)
    p99 = _percentile(latencies, 0.99)
    faults = sum(injected.values())
    rows = [
        BenchResult("wirechaos_requests", "req/s", total, elapsed),
        GaugeResult(
            "wirechaos_availability", "percent", ok, elapsed,
            value=availability,
        ),
        GaugeResult(
            "wirechaos_p50_latency", "ms", len(latencies), elapsed,
            value=p50 * 1000.0,
        ),
        GaugeResult(
            "wirechaos_p99_latency", "ms", len(latencies), elapsed,
            value=p99 * 1000.0,
        ),
        GaugeResult(
            "wirechaos_mismatches", "results", checked, elapsed,
            value=float(mismatches),
        ),
        GaugeResult(
            "wirechaos_faults_injected", "faults", max(faults, 1),
            elapsed, value=float(faults),
        ),
        GaugeResult(
            "wirechaos_loris_reaped", "connections", 1, elapsed,
            value=float(loris_reaped),
        ),
        # the fault script, in-band, or the row set is unreproducible
        GaugeResult(
            "wirechaos_seed", "seed", 1, elapsed, value=float(seed)
        ),
        GaugeResult(
            "wirechaos_refuse_probability", "probability", 1, elapsed,
            value=refuse_probability,
        ),
        GaugeResult(
            "wirechaos_disconnect_probability", "probability", 1,
            elapsed, value=disconnect_probability,
        ),
        GaugeResult(
            "wirechaos_truncate_probability", "probability", 1,
            elapsed, value=truncate_probability,
        ),
        GaugeResult(
            "wirechaos_corrupt_probability", "probability", 1, elapsed,
            value=corrupt_probability,
        ),
        GaugeResult(
            "wirechaos_stall_probability", "probability", 1, elapsed,
            value=stall_probability,
        ),
    ]
    summary = {
        "seed": seed,
        "fault_script": {
            "refuse_probability": refuse_probability,
            "disconnect_probability": disconnect_probability,
            "truncate_probability": truncate_probability,
            "corrupt_probability": corrupt_probability,
            "stall_probability": stall_probability,
            "stall_seconds": stall_seconds,
        },
        "duration": round(elapsed, 3),
        "clients": clients,
        "requests": total,
        "outcomes": dict(sorted(outcomes.items())),
        "availability_percent": round(availability, 3),
        "p50_ms": round(p50 * 1000.0, 3),
        "p99_ms": round(p99 * 1000.0, 3),
        "results_checked": checked,
        "result_mismatches": mismatches,
        "network_faults": injected,
        "routes": _route_counts(service_stats),
        "loris_reaped": loris_reaped,
        "wire": wire_stats,
        "service": service_stats,
    }
    return rows, summary


def run_trace_probe(
    *,
    quick: bool = True,
    workers: int = SHARD_COUNT,
    queries: int = 128,
    repeats: int = 3,
) -> tuple[dict, dict]:
    """One traced request through the real sharded serving path.

    Builds the serving fixture, warms the :class:`QueryService` process
    pool, then submits a batch of ``queries`` distinct queries (the
    three kinds in turn) with ``trace=True`` ``repeats`` times and
    keeps the fastest request — steady-state, so the span tree
    attributes the request's wall time to plan / IPC / worker decode /
    merge without pool-spawn noise.  Whether the tree shows worker
    spans depends on the request's size: below
    :data:`~repro.query.engine.POOL_MIN_EXECUTIONS` shard executions
    (~110 queries of this mix) the service answers in process and the
    root span says ``route=inprocess``.  This is the instrument behind
    ``repro obs trace`` and the ROADMAP item 1 evidence in
    ``docs/observability.md``.

    Returns ``(trace, breakdown)`` — the root span as a dict and the
    :func:`~repro.obs.trace.ipc_breakdown` aggregate over it.
    """
    import tempfile

    from ..obs.trace import Span, ipc_breakdown
    from ..serve import QueryService

    if queries < 1:
        raise ValueError(f"queries must be >= 1, got {queries}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    with tempfile.TemporaryDirectory(prefix="repro-trace-probe-") as root:
        fixture = _ServingFixture(root, quick=quick)
        per_kind = len(fixture.distinct) // 3
        batch = [
            fixture.distinct[kind * per_kind + position]
            for position in range(per_kind)
            for kind in range(3)
        ][:queries]
        service = QueryService(
            fixture.shard_paths,
            network=fixture.network,
            workers=workers,
        )
        try:
            warm = service.submit_many(batch, client="trace-probe")
            if not warm.ok:
                raise ValueError(
                    f"trace probe warm-up failed: {warm.error}"
                )
            best: dict | None = None
            best_wall = float("inf")
            for _ in range(repeats):
                response = service.submit_many(
                    batch, client="trace-probe", trace=True
                )
                if not response.ok or response.trace is None:
                    continue
                wall = float(response.trace.get("wall", 0.0))
                if wall < best_wall:
                    best, best_wall = response.trace, wall
            if best is None:
                raise ValueError("trace probe: no traced request completed")
        finally:
            service.close()
    return best, ipc_breakdown(Span.from_dict(best))


def load_existing_rows(path) -> list[list]:
    """Rows of the ``query_throughput`` table in an existing results file."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            document = json.load(stream)
    except (OSError, ValueError):
        return []
    if document.get("format") != "repro-bench":
        return []
    for table in document.get("tables", ()):
        if table.get("title") == BENCH_TABLE_TITLE:
            return [list(row) for row in table.get("rows", ())]
    return []


def write_bench_json(
    results: list[BenchResult],
    path,
    *,
    label: str = "current",
    append: bool = False,
) -> list[list]:
    """Write (or extend) the query-serving perf trajectory at ``path``.

    Appending merges by ``(label, benchmark)``: re-running a bench with
    an existing label replaces its rows instead of duplicating them.
    """
    fresh = [result.row(label) for result in results]
    rows = (
        merge_rows(load_existing_rows(path), fresh) if append else fresh
    )
    log = ExperimentLog()
    log.record(BENCH_TABLE_TITLE, BENCH_HEADERS, rows)
    log.write_json(path)
    return rows
