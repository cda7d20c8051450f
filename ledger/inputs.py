"""Seeded inputs for the ledger workloads, and the brute-force check.

Everything a workload feeds the program is generated here from one
``--seed``: the synthetic CD dataset, the query pools and request lists,
the raw GPS feeds, and the archives the read workloads serve.  The
program under test sees only these generated inputs.
"""

from __future__ import annotations

import os
import random

from repro.core import CompressedArchive, UTCQCompressor
from repro.mapmatching.noise import synthesize_raw_dataset
from repro.network import Rect, dataset_network
from repro.query import (
    BruteForceOracle,
    RangeQuery,
    StIUIndex,
    WhenQuery,
    WhereQuery,
    save_index,
    sidecar_path_for,
)
from repro.stream import feed_events
from repro.trajectories.datasets import load_dataset, profile

PROFILE = profile("CD")
ALPHA = 0.25
RANGE_MARGIN = 200.0  # metres either side of a sampled location
QUERIES_PER_REQUEST = 16
KINDS = ("where", "when", "range")


# One city, many days of traffic: the road network is the same for every
# seed, and the seed draws the trajectories, queries and feeds on it.  A
# network of its own per seed moved engine-uniform-cold by 6 % between
# seeds 1 and 2 (the grid's random gaps and diagonals are not averaged
# over anything), which is spread the benchmark would have to carry.
NETWORK_SEED = 7


def network():
    return dataset_network(
        PROFILE.name, scale=PROFILE.network_scale, seed=NETWORK_SEED
    )


def dataset(seed: int, count: int):
    """``(network, trajectories)`` of the synthetic CD profile."""
    return load_dataset(PROFILE.name, count, seed=seed, network=network())


def provenance() -> dict[str, str]:
    """What ``repro serve`` needs to rebuild :func:`network`."""
    return {
        "profile": PROFILE.name,
        "dataset_seed": str(NETWORK_SEED),
        "network_scale": str(PROFILE.network_scale),
    }


def compressor(network) -> UTCQCompressor:
    return UTCQCompressor(
        network=network,
        default_interval=PROFILE.default_interval,
        eta_probability=PROFILE.default_eta_probability,
    )


def save_with_sidecar(network, archive, path, index=None) -> int:
    """Write ``path`` and its ``.stiu`` sidecar; returns bytes on disk.

    ``index`` is the archive's StIU index when the caller already built
    one; otherwise it is built here.
    """
    archive.save(path, provenance=provenance())
    save_index(index or StIUIndex(network, archive), path)
    return stored_bytes(path)


def save_shards(network, archive, directory, shards: int):
    """Split ``archive`` into contiguous shards with sidecars.

    Returns ``(paths, bytes_on_disk)``.
    """
    paths = []
    stored = 0
    total = len(archive.trajectories)
    for shard in range(shards):
        part = CompressedArchive(
            params=archive.params,
            trajectories=archive.trajectories[
                shard * total // shards:(shard + 1) * total // shards
            ],
        )
        path = os.path.join(directory, f"shard-{shard}.utcq")
        stored += save_with_sidecar(network, part, path)
        paths.append(path)
    return paths, stored


def stored_bytes(path) -> int:
    """An archive file plus its sidecar, when one exists."""
    sidecar = sidecar_path_for(path)
    extra = os.path.getsize(sidecar) if os.path.exists(sidecar) else 0
    return os.path.getsize(path) + extra


def original_bytes(stats) -> float:
    """The paper's Table-8 uncompressed size of what ``stats`` covers."""
    return stats.original.total / 8


# ----------------------------------------------------------------------
# queries and requests
# ----------------------------------------------------------------------
def query_pools(network, trajectories, per_kind: int, rng: random.Random):
    """``per_kind`` distinct queries of each kind, at positions and times
    the dataset covers, so every query does real work."""
    pools: dict[str, dict] = {kind: {} for kind in KINDS}
    while min(len(pool) for pool in pools.values()) < per_kind:
        trajectory = rng.choice(trajectories)
        t = rng.randint(trajectory.start_time, trajectory.end_time)
        pools["where"][WhereQuery(trajectory.trajectory_id, t, ALPHA)] = None
        locations = trajectory.best_instance().locations
        location = rng.choice(locations)
        x, y = location.position(network)
        pools["range"][
            RangeQuery(
                Rect(
                    x - RANGE_MARGIN,
                    y - RANGE_MARGIN,
                    x + RANGE_MARGIN,
                    y + RANGE_MARGIN,
                ),
                t,
                ALPHA,
            )
        ] = None
        rd = location.ndist / network.edge_length(*location.edge)
        pools["when"][
            WhenQuery(
                trajectory.trajectory_id, location.edge, min(rd, 0.999), ALPHA
            )
        ] = None
    return {kind: list(pool)[:per_kind] for kind, pool in pools.items()}


def _slot_kind(request: int, slot: int) -> str:
    # kinds rotate across slots and requests: exact thirds over any
    # three consecutive requests
    return KINDS[(request * QUERIES_PER_REQUEST + slot) % len(KINDS)]


def zipf_requests(pools, count: int, rng: random.Random) -> list[list]:
    """Requests whose queries repeat: each slot draws from its kind's
    pool with weight ``1 / (rank + 1)``."""
    weights = [1.0 / (rank + 1) for rank in range(len(pools[KINDS[0]]))]
    return [
        [
            rng.choices(pools[_slot_kind(request, slot)], weights)[0]
            for slot in range(QUERIES_PER_REQUEST)
        ]
        for request in range(count)
    ]


def uniform_requests(pools, count: int, rng: random.Random) -> list[list]:
    """Requests whose queries never repeat inside the list.  Each pool
    must hold at least ``ceil(count * 16 / 3)`` queries."""
    shuffled = {kind: rng.sample(pool, len(pool)) for kind, pool in pools.items()}
    return [
        [
            shuffled[_slot_kind(request, slot)].pop()
            for slot in range(QUERIES_PER_REQUEST)
        ]
        for request in range(count)
    ]


def pool_size_for(requests: int) -> int:
    return -(-requests * QUERIES_PER_REQUEST // len(KINDS)) + 1


# ----------------------------------------------------------------------
# raw GPS feeds
# ----------------------------------------------------------------------
def tick_feed(network, seed: int, vehicles: int, fixes_per_tick: int):
    """One fleet stream, time-ordered, cut into ticks of fixes."""
    feeds = synthesize_raw_dataset(
        network, PROFILE.generation_config(), vehicles, seed=seed
    )
    events = list(feed_events(feeds))
    ticks = [
        events[start:start + fixes_per_tick]
        for start in range(0, len(events), fixes_per_tick)
    ]
    return feeds, ticks


# ----------------------------------------------------------------------
# brute force on the uncompressed input, within the PDDP bounds
# ----------------------------------------------------------------------
class BruteCheck:
    """Compare answers over compressed data with Definitions 10-12
    evaluated on the uncompressed trajectories.

    The only information the codec loses is PDDP's bounded error: a
    relative distance moves by at most ``eta_distance`` and an instance
    probability by at most ``(n + 1) * eta_probability`` after
    renormalisation.  An answer is accepted when it lies between the
    oracle's answer at the pessimistic and at the optimistic end of
    those bounds; anything else is a mismatch.

    One exception is counted, not accepted silently: a ``when`` query
    probes the StIU grid cell of its query point, and the decoded sample
    can sit in the neighbouring cell, so 7 in 1,000 when queries at a
    sampled location lose a passing (444 of 60,000 over seeds 200-239;
    at most 18 of one seed's 1,500).  Those are tallied in
    ``when_missed`` and :meth:`problems` fails the sample once they
    exceed ``WHEN_MISS_SHARE``.  Nothing else was outside the bounds in
    those 180,000 queries.
    """

    WHEN_MISS_SHARE = 0.10

    def __init__(self, network, trajectories, params) -> None:
        self.network = network
        self.oracle = BruteForceOracle(network, trajectories)
        self.by_id = self.oracle.trajectories
        self.eta_p = params.eta_probability
        self.eta_d = params.eta_distance
        longest = max(edge.length for edge in network.edges())
        self.metres = self.eta_d * longest + 1e-6
        self.max_instances = max(t.instance_count for t in trajectories)
        self.when_checked = 0
        self.when_missed = 0

    def problems(self, queries, answers) -> list[str]:
        """Every answer outside the bounds, as one line each."""
        found = []
        for query, answer in zip(queries, answers):
            if isinstance(query, WhereQuery):
                problem = self._where(query, answer)
            elif isinstance(query, WhenQuery):
                problem = self._when(query, answer)
            else:
                problem = self._range(query, answer)
            if problem:
                found.append(f"{query}: {problem}")
        if self.when_missed > self.WHEN_MISS_SHARE * self.when_checked:
            found.append(
                f"{self.when_missed} of {self.when_checked} when queries "
                f"lost a passing the uncompressed data has"
            )
        return found

    def _alpha_band(self, alpha: float, instances: int) -> tuple[float, float]:
        slack = (instances + 1) * self.eta_p
        return max(alpha - slack, 0.0), alpha + slack

    def _where(self, query, answer) -> str | None:
        trajectory = self.by_id[query.trajectory_id]
        low, high = self._alpha_band(query.alpha, trajectory.instance_count)
        may = {
            (r.trajectory_id, r.instance_index): r
            for r in self.oracle.where(query.trajectory_id, query.t, low)
        }
        must = {
            (r.trajectory_id, r.instance_index)
            for r in self.oracle.where(query.trajectory_id, query.t, high)
        }
        got = {(r.trajectory_id, r.instance_index) for r in answer}
        if not must <= got:
            return f"missing instances {sorted(must - got)}"
        if not got <= set(may):
            return f"unexpected instances {sorted(got - set(may))}"
        for result in answer:
            want = may[(result.trajectory_id, result.instance_index)]
            if result.edge == want.edge:
                off = abs(result.ndist - want.ndist)
            else:
                ax, ay = self._xy(result)
                bx, by = self._xy(want)
                off = ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5
            if off > self.metres:
                return f"position off by {off:.3f} m (bound {self.metres:.3f})"
        return None

    def _xy(self, result) -> tuple[float, float]:
        a = self.network.vertex(result.edge[0])
        b = self.network.vertex(result.edge[1])
        fraction = result.ndist / self.network.edge_length(*result.edge)
        return a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction

    def _when(self, query, answer) -> str | None:
        trajectory = self.by_id[query.trajectory_id]
        low, high = self._alpha_band(query.alpha, trajectory.instance_count)
        where = (query.trajectory_id, query.edge)
        rd = query.relative_distance
        # the processor matches a decoded chainage within eta of the
        # query point, and the decoded sample itself is off by up to
        # eta: a passing up to 2 * eta either side is a legitimate hit
        may: dict[tuple, list] = {}
        for shift in (-2 * self.eta_d, 0.0, 2 * self.eta_d):
            shifted = min(max(rd + shift, 0.0), 1.0)
            for r in self.oracle.when(*where, shifted, low):
                may.setdefault(
                    (r.trajectory_id, r.instance_index), []
                ).append(r.time)
        must = {
            (r.trajectory_id, r.instance_index)
            for r in self.oracle.when(*where, rd, high)
        }
        got = {(r.trajectory_id, r.instance_index) for r in answer}
        self.when_checked += 1
        self.when_missed += not must <= got
        if not got <= set(may):
            return f"unexpected instances {sorted(got - set(may))}"
        # a passing time is interpolated between two samples; the
        # distance error can move it into the neighbouring sample gap
        times = trajectory.times
        seconds = 2 * max(b - a for a, b in zip(times, times[1:]))
        for result in answer:
            wanted = may[(result.trajectory_id, result.instance_index)]
            off = min(abs(result.time - want) for want in wanted)
            if off > seconds:
                return f"passing time off by {off:.1f} s (bound {seconds})"
        return None

    def _range(self, query, answer) -> str | None:
        low, high = self._alpha_band(query.alpha, self.max_instances)
        rect, grow = query.rect, self.metres
        outer = Rect(
            rect.min_x - grow, rect.min_y - grow,
            rect.max_x + grow, rect.max_y + grow,
        )
        inner = Rect(
            rect.min_x + grow, rect.min_y + grow,
            rect.max_x - grow, rect.max_y - grow,
        )
        got = set(answer)
        must = set(self.oracle.range(inner, query.t, high))
        may = set(self.oracle.range(outer, query.t, low))
        if not must <= got:
            return f"missing trajectories {sorted(must - got)}"
        if not got <= may:
            return f"unexpected trajectories {sorted(got - may)}"
        return None
