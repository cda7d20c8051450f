"""Experiment harness: timed, memory-profiled compression & query runs.

Wraps the two compressors and the two query stacks with the
measurements §6 reports: compression ratio per component, wall-clock
compression time, peak memory (tracemalloc), index sizes, and query
latencies.  Every benchmark module drives experiments through this
harness so the printed tables share one code path.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field

from ..core.archive import CompressionStats
from ..core.compressor import UTCQCompressor
from ..network.graph import RoadNetwork
from ..ted.compressor import TEDCompressor
from ..trajectories.datasets import DatasetProfile
from ..trajectories.model import UncertainTrajectory


@dataclass
class CompressionRun:
    """Measurements of one compression run."""

    method: str
    stats: CompressionStats
    seconds: float
    peak_memory_bytes: int
    archive: object = field(repr=False, default=None)

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / (1024 * 1024)

    def ratio_row(self) -> dict[str, float]:
        return self.stats.as_row()


def _measure(callable_, *args, **kwargs):
    tracemalloc.start()
    started = time.perf_counter()
    result = callable_(*args, **kwargs)
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def run_utcq_compression(
    network: RoadNetwork,
    trajectories: list[UncertainTrajectory],
    profile: DatasetProfile,
    *,
    pivot_count: int = 1,
    eta_distance: float = 1 / 128,
    eta_probability: float | None = None,
    seed: int = 17,
) -> CompressionRun:
    """Compress with UTCQ under profile defaults; measure time and memory."""
    compressor = UTCQCompressor(
        network=network,
        default_interval=profile.default_interval,
        eta_distance=eta_distance,
        eta_probability=eta_probability or profile.default_eta_probability,
        pivot_count=pivot_count,
        seed=seed,
    )
    archive, elapsed, peak = _measure(compressor.compress, trajectories)
    return CompressionRun("UTCQ", archive.stats, elapsed, peak, archive)


def run_ted_compression(
    network: RoadNetwork,
    trajectories: list[UncertainTrajectory],
    profile: DatasetProfile,
    *,
    eta_distance: float = 1 / 128,
    eta_probability: float | None = None,
) -> CompressionRun:
    """Compress with the TED baseline; measure time and memory."""
    compressor = TEDCompressor(
        network=network,
        default_interval=profile.default_interval,
        eta_distance=eta_distance,
        eta_probability=eta_probability or profile.default_eta_probability,
    )
    archive, elapsed, peak = _measure(compressor.compress, trajectories)
    return CompressionRun("TED", archive.stats, elapsed, peak, archive)


@dataclass
class QueryWorkload:
    """A reusable set of query arguments derived from a dataset.

    The evaluation queries every dataset at positions/times its
    trajectories actually cover, so both engines do real work.
    """

    where_queries: list[tuple[int, int, float]]  # (trajectory, t, alpha)
    when_queries: list[tuple[int, tuple[int, int], float, float]]
    range_queries: list[tuple[object, int, float]]  # (Rect, t, alpha)


def build_query_workload(
    network: RoadNetwork,
    trajectories: list[UncertainTrajectory],
    *,
    count: int = 40,
    alpha: float = 0.25,
    range_margin: float = 200.0,
    seed: int = 5,
) -> QueryWorkload:
    """Sample a workload of where/when/range queries from the dataset."""
    import random

    from ..network.grid import Rect

    rng = random.Random(seed)
    where_queries = []
    when_queries = []
    range_queries = []
    population = trajectories if trajectories else []
    for _ in range(count):
        trajectory = rng.choice(population)
        t = rng.randint(trajectory.start_time, trajectory.end_time)
        where_queries.append((trajectory.trajectory_id, t, alpha))

        instance = trajectory.best_instance()
        location = rng.choice(instance.locations)
        rd = location.ndist / network.edge_length(*location.edge)
        when_queries.append(
            (trajectory.trajectory_id, location.edge, min(rd, 0.999), alpha)
        )

        x, y = location.position(network)
        range_queries.append(
            (
                Rect(
                    x - range_margin,
                    y - range_margin,
                    x + range_margin,
                    y + range_margin,
                ),
                t,
                alpha,
            )
        )
    return QueryWorkload(where_queries, when_queries, range_queries)


@dataclass
class QueryTimings:
    """Mean latency per query type, in milliseconds."""

    where_ms: float
    when_ms: float
    range_ms: float


def time_utcq_queries(processor, workload: QueryWorkload) -> QueryTimings:
    """Run the workload through the StIU processor and time it.

    The paper times queries on a built index (the TED baseline's is
    built by its constructor), so the spatial rows the index derives on
    first use are all derived before the clock starts."""
    processor.index.spatial.intervals()
    started = time.perf_counter()
    for trajectory_id, t, alpha in workload.where_queries:
        processor.where(trajectory_id, t, alpha)
    where_ms = (
        (time.perf_counter() - started)
        / max(len(workload.where_queries), 1)
        * 1000
    )
    started = time.perf_counter()
    for trajectory_id, edge, rd, alpha in workload.when_queries:
        processor.when(trajectory_id, edge, rd, alpha)
    when_ms = (
        (time.perf_counter() - started)
        / max(len(workload.when_queries), 1)
        * 1000
    )
    started = time.perf_counter()
    for region, t, alpha in workload.range_queries:
        processor.range(region, t, alpha)
    range_ms = (
        (time.perf_counter() - started)
        / max(len(workload.range_queries), 1)
        * 1000
    )
    return QueryTimings(where_ms, when_ms, range_ms)


def time_ted_queries(index, workload: QueryWorkload) -> QueryTimings:
    """Run the workload through the TED baseline index and time it."""
    started = time.perf_counter()
    for trajectory_id, t, alpha in workload.where_queries:
        index.where(trajectory_id, t, alpha)
    where_ms = (
        (time.perf_counter() - started)
        / max(len(workload.where_queries), 1)
        * 1000
    )
    started = time.perf_counter()
    for trajectory_id, edge, rd, alpha in workload.when_queries:
        index.when(trajectory_id, edge, rd, alpha)
    when_ms = (
        (time.perf_counter() - started)
        / max(len(workload.when_queries), 1)
        * 1000
    )
    started = time.perf_counter()
    for region, t, alpha in workload.range_queries:
        index.range(region, t, alpha)
    range_ms = (
        (time.perf_counter() - started)
        / max(len(workload.range_queries), 1)
        * 1000
    )
    return QueryTimings(where_ms, when_ms, range_ms)
