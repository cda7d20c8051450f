"""Parallel batch compression across ``multiprocessing`` workers.

The UTCQ pipeline is trajectory-at-a-time (Fig. 3), which makes the
dataset embarrassingly parallel: trajectories are split into shards,
each worker compresses its shard with a fresh :class:`~repro.core.
compressor.UTCQCompressor`, and the parent stitches the results back in
input order.  Because the compressor seeds one RNG per trajectory id
(:meth:`UTCQCompressor.trajectory_rng`) rather than threading a stream
through the dataset, the parallel output is **byte-identical** to a
serial :meth:`UTCQCompressor.compress` run with the same seed — the
round-trip tests assert this on serialized archives.

Archive-wide parameters (``t0_bits`` depends on the dataset-wide maximum
start time) are computed once in the parent and broadcast, so shards
cannot diverge on header fields either.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..core.archive import (
    CompressedArchive,
    CompressedTrajectory,
    CompressionParams,
    CompressionStats,
)
from ..core.compressor import UTCQCompressor
from ..io.durable import DEFAULT_FS, Filesystem
from ..io.format import write_archive
from ..network.graph import RoadNetwork
from ..query.sidecar import save_index
from ..query.stiu import StIUIndex
from ..trajectories.model import UncertainTrajectory

ProgressCallback = Callable[[int, int], None]

# worker-global compressor/params, installed once per process by the pool
# initializer so each shard submission only pickles its trajectories
_worker_compressor: UTCQCompressor | None = None
_worker_params: CompressionParams | None = None


def _init_worker(
    compressor: UTCQCompressor, params: CompressionParams
) -> None:
    global _worker_compressor, _worker_params
    _worker_compressor = compressor
    _worker_params = params


def _compress_shard(
    trajectories: list[UncertainTrajectory],
) -> list[CompressedTrajectory]:
    assert _worker_compressor is not None and _worker_params is not None
    return [
        _worker_compressor.compress_trajectory(
            trajectory,
            _worker_params,
            _worker_compressor.trajectory_rng(trajectory.trajectory_id),
        )
        for trajectory in trajectories
    ]


def default_worker_count() -> int:
    """One worker per available core, at least one."""
    return max(os.cpu_count() or 1, 1)


def make_shards(
    trajectories: Sequence[UncertainTrajectory],
    shard_size: int,
) -> list[list[UncertainTrajectory]]:
    """Contiguous shards of at most ``shard_size`` trajectories."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        list(trajectories[start : start + shard_size])
        for start in range(0, len(trajectories), shard_size)
    ]


@dataclass
class BatchReport:
    """What a batch run did: sizes, shard accounting, wall time."""

    trajectory_count: int
    instance_count: int
    shard_count: int
    workers: int
    elapsed_seconds: float
    stats: CompressionStats = field(default_factory=CompressionStats)

    @property
    def trajectories_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.trajectory_count / self.elapsed_seconds


def compress_parallel(
    network: RoadNetwork,
    trajectories: Sequence[UncertainTrajectory],
    *,
    default_interval: int,
    workers: int | None = None,
    shard_size: int | None = None,
    progress: ProgressCallback | None = None,
    **compressor_options,
) -> tuple[CompressedArchive, BatchReport]:
    """Compress ``trajectories`` across processes; returns (archive, report).

    ``workers`` defaults to the core count; ``workers <= 1`` (or a tiny
    dataset) falls back to in-process serial compression, which produces
    the same bytes.  ``shard_size`` controls work granularity (default:
    about four shards per worker, so stragglers rebalance).  Remaining
    keyword arguments (``eta_distance``, ``pivot_count``, ``seed``, ...)
    are forwarded to :class:`UTCQCompressor`.

    ``progress`` is called as ``progress(done_trajectories, total)`` from
    the parent each time a shard completes.
    """
    trajectories = list(trajectories)
    compressor = UTCQCompressor(
        network=network, default_interval=default_interval, **compressor_options
    )
    params = compressor.params_for(trajectories)
    total = len(trajectories)
    if workers is None:
        workers = default_worker_count()
    workers = max(1, min(workers, total or 1))
    started = time.perf_counter()

    if workers == 1 or total <= 1:
        compressed = []
        for done, trajectory in enumerate(trajectories, start=1):
            compressed.append(
                compressor.compress_trajectory(
                    trajectory,
                    params,
                    compressor.trajectory_rng(trajectory.trajectory_id),
                )
            )
            if progress is not None:
                progress(done, total)
        shards: list[list[UncertainTrajectory]] = [trajectories]
    else:
        if shard_size is None:
            shard_size = max(1, -(-total // (workers * 4)))
        shards = make_shards(trajectories, shard_size)
        context = multiprocessing.get_context()
        compressed = []
        with context.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(compressor, params),
        ) as pool:
            done = 0
            # imap preserves shard order, so concatenation restores the
            # input trajectory order exactly
            for shard_result in pool.imap(_compress_shard, shards):
                compressed.extend(shard_result)
                done += len(shard_result)
                if progress is not None:
                    progress(done, total)

    archive = CompressedArchive(params=params, trajectories=compressed)
    report = BatchReport(
        trajectory_count=total,
        instance_count=archive.instance_count,
        shard_count=len(shards) if total else 0,
        workers=workers,
        elapsed_seconds=time.perf_counter() - started,
        stats=archive.stats,
    )
    return archive, report


def save_archive_with_index(
    archive: CompressedArchive,
    path,
    network: RoadNetwork | None,
    *,
    provenance: dict[str, str] | None = None,
    parts: list[StIUIndex] | None = None,
    fs: Filesystem = DEFAULT_FS,
) -> tuple[int, Path | None]:
    """Write the ``.utcq`` file plus its ``.stiu`` sidecar in one step.

    The one writer of an indexed archive (``repro compress``, segment
    seals and merges, ``compact()``).  The archive goes to ``path +
    '.tmp'``, is fsynced, renamed over ``path`` and the directory
    fsynced, each through ``fs`` (the crash-injection seam), so a kill
    leaves the old file or the complete new one.  The sidecar follows
    with an atomic replace and no fsync: losing it costs one index
    rebuild on open.  The sidecar holds the temporal layer: built from
    the records, or the union of ``parts``, the indexes of the archives
    merged into ``archive`` (same bytes, no record decoded).  No spatial
    row is built: readers derive them on first use.  Returns
    ``(file_bytes, sidecar_path)``; without a ``network`` no sidecar is
    written and the path is ``None``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    size = write_archive(archive, tmp, provenance=provenance)
    fs.fsync_path(tmp)
    fs.replace(tmp, path)
    fs.fsync_dir(path.parent)
    if network is None:
        return size, None
    if parts is None:
        index = StIUIndex(network, archive)
    else:
        index = StIUIndex.merged(network, archive, parts)
    return size, save_index(index, path)
