"""Background LSM-style compaction and retention for stream archives.

:func:`compact` is a single-shot, stop-the-world merge: fine for a
finished run, wrong for a service that ingests forever.  This module
adds the storage-engine answer — incremental merges of rotated segments
while ingestion continues:

* :class:`SizeTieredPolicy` decides *what* to merge: runs of
  similarly-sized segments (the Cassandra/RocksDB universal shape).
* :func:`merge_segments` performs one merge crash-safely: the merged
  segment (and its ``.stiu`` sidecar) is written tmp + fsync + rename
  under a fresh name, the manifest swap of the source entries for the
  merged entry is a single committed generation, and only then are the
  source files unlinked.  A crash at any boundary is repaired by
  :func:`~repro.stream.manifest.recover` — an uncommitted merge output
  is swept, committed-but-not-unlinked sources are swept, and no
  sealed trip is ever lost or duplicated.
* Both merges read their sources the same way (CRC-verified, params and
  duplicate-id checked, id-ordered, each source's index loaded from its
  sidecar) and write through the one writer of an indexed archive,
  :func:`~repro.pipeline.batch.save_archive_with_index`.
* :class:`CompactionDaemon` runs a policy on a background thread
  against the *same* :class:`~repro.stream.manifest.ManifestStore` the
  writer commits through, so seals and merges interleave under one
  lock while queries keep flowing.
* :func:`gc_segments` is time-partitioned retention: whole cold
  segments (``max_time`` before the cutoff) are dropped from the
  manifest and deleted — the drop-a-day path of the production story.

Record bytes are never rewritten, only regrouped, and trajectory-id
order is preserved — so the canonical one-shot ``compact()`` output is
byte-identical whatever merge schedule ran before it (the
compaction-equivalence property suite pins this with SHA-256).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

from ..core.archive import (
    CompressedArchive,
    CompressedTrajectory,
    CompressionParams,
    CompressionStats,
)
from ..io.format import read_archive, read_header
from ..network.graph import RoadNetwork
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..pipeline.batch import save_archive_with_index
from ..query.sidecar import load_or_build_index
from .manifest import (
    SEGMENT_DIR,
    ManifestStore,
    SegmentInfo,
    StreamArchiveError,
    load_manifest,
    manifest_segments,
    params_from_dict,
)
from .writer import AppendableArchiveWriter

_log = get_logger("repro.stream.compaction")


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompactionTask:
    """One planned merge: which segments, and the level of the output."""

    segments: tuple[SegmentInfo, ...]
    target_level: int

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.segments]


@dataclass
class SizeTieredPolicy:
    """Merge runs of similarly-sized segments, smallest tiers first.

    Segments (in trajectory-id order) whose file sizes stay within
    ``size_ratio`` of the run's smallest member form a tier; the first
    run of at least ``min_merge`` members is merged (capped at
    ``max_merge``).  Small fresh segments therefore coalesce quickly
    while big merged ones are left alone until enough peers exist.
    """

    min_merge: int = 4
    max_merge: int = 8
    size_ratio: float = 4.0

    def __post_init__(self) -> None:
        if self.min_merge < 2:
            raise ValueError("min_merge must be >= 2")
        if self.max_merge < self.min_merge:
            raise ValueError("max_merge must be >= min_merge")
        if self.size_ratio < 1.0:
            raise ValueError("size_ratio must be >= 1.0")

    def plan(self, segments: list[SegmentInfo]) -> CompactionTask | None:
        ordered = sorted(segments, key=lambda s: s.min_trajectory_id)
        run: list[SegmentInfo] = []
        run_min = 0
        best: list[SegmentInfo] | None = None
        for info in ordered:
            if not run:
                run, run_min = [info], info.file_bytes
                continue
            low = min(run_min, info.file_bytes)
            high = max(
                max(s.file_bytes for s in run), info.file_bytes
            )
            if low > 0 and high <= low * self.size_ratio:
                run.append(info)
                run_min = low
                if len(run) >= self.max_merge:
                    best = run
                    break
            else:
                if len(run) >= self.min_merge:
                    best = run
                    break
                run, run_min = [info], info.file_bytes
        if best is None and len(run) >= self.min_merge:
            best = run
        if best is None:
            return None
        chosen = best[: self.max_merge]
        return CompactionTask(
            segments=tuple(chosen),
            target_level=max(s.level for s in chosen) + 1,
        )

    def describe(self) -> str:
        return (
            f"size-tiered(min={self.min_merge}, max={self.max_merge}, "
            f"ratio={self.size_ratio:g})"
        )


# ----------------------------------------------------------------------
# merging: one segment-reading merge, two callers
# ----------------------------------------------------------------------
def _read_segments(
    paths: list[Path], params: CompressionParams, network
) -> tuple[CompressedArchive, list | None]:
    """Read segment files into one archive, in trajectory-id order.

    Records are CRC-verified and kept byte for byte; differing params or
    an id two segments share raise :class:`StreamArchiveError`.  With
    ``network`` each segment's index comes along too, from its sidecar
    (rebuilt, that segment only, if missing or stale).
    """
    trajectories: list[CompressedTrajectory] = []
    stats = CompressionStats()
    parts = None if network is None else []
    for path in paths:
        segment = read_archive(path)
        if segment.params != params:
            raise StreamArchiveError(
                f"segment {path.name} params differ from the manifest"
            )
        trajectories.extend(segment.trajectories)
        stats.add(segment.stats)
        if parts is not None:
            parts.append(load_or_build_index(network, segment, path)[0])
    trajectories.sort(key=lambda t: t.trajectory_id)
    for first, second in zip(trajectories, trajectories[1:]):
        if first.trajectory_id == second.trajectory_id:
            raise StreamArchiveError(
                f"duplicate trajectory id {second.trajectory_id} across "
                f"segments"
            )
    archive = CompressedArchive(
        params=params, trajectories=trajectories, stats=stats
    )
    return archive, parts


def merge_segments(
    store: ManifestStore,
    task: CompactionTask,
    *,
    network=None,
) -> SegmentInfo:
    """Merge one task's segments into a single new segment, crash-safely.

    Record bytes are preserved exactly, so downstream one-shot
    compaction stays byte-identical.  With ``network`` the merged
    segment gets its ``.stiu`` sidecar before the manifest swap, so live
    queries stay rebuild-free across compactions; the sidecar is the
    union of the sources' indexes — byte-identical to indexing the
    merged segment from scratch.
    """
    current = {s.name for s in store.segments()}
    missing = [name for name in task.names if name not in current]
    if missing:
        raise StreamArchiveError(
            f"compaction task is stale: {missing} no longer in the manifest"
        )
    archive, parts = _read_segments(
        [store.segment_path(name) for name in task.names],
        store.state.params,
        network,
    )
    with store.lock:
        name = store.allocate_segment_name()
        size, _ = save_archive_with_index(
            archive,
            store.segment_path(name),
            network,
            provenance=store.state.provenance,
            parts=parts,
            fs=store.fs,
        )
        merged = SegmentInfo.of(
            name, archive, file_bytes=size, level=task.target_level
        )
        store.replace_segments(task.names, merged)
    # sources are garbage once the swap generation is durable; a crash
    # from here on only leaves unreferenced files for recover() to sweep
    _unlink_segments(store, task.segments)
    obs_metrics.counter("repro_compaction_merges_total").inc()
    obs_metrics.counter("repro_compaction_segments_merged_total").inc(
        len(task.segments)
    )
    obs_metrics.counter("repro_compaction_bytes_written_total").inc(size)
    _log.info(
        "compaction.merge",
        sources=task.names,
        merged=merged.name,
        target_level=task.target_level,
        trajectories=merged.trajectory_count,
        bytes=size,
    )
    return merged


def compact(
    directory, output, *, network: RoadNetwork | None = None
) -> tuple[int, int, Path | None]:
    """Merge all sealed segments into one canonical ``.utcq`` archive.

    The merge of :func:`merge_segments` over every segment, through the
    same writer: ``output`` is replaced atomically and durably, is
    byte-compatible with :func:`repro.io.format.write_archive`, and
    carries the manifest's provenance (plus ``compacted_trajectories``).
    Record bytes and id order survive background merges, so the output
    is byte-identical whatever merge schedule ran.  Segments are left in
    place.  With ``network`` the output gets its ``.stiu`` sidecar, the
    union of the segments' — the warm-open path ``repro compress``
    produces.  Returns ``(file_bytes, trajectory_count,
    sidecar_path)``; the path is ``None`` without a network.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    archive, parts = _read_segments(
        [
            directory / SEGMENT_DIR / info.name
            for info in manifest_segments(manifest)
        ],
        params_from_dict(manifest["params"]),
        network,
    )
    provenance = dict(manifest.get("provenance", {}))
    # Deliberately schedule-invariant: the segment count depends on how
    # many background merges ran, and would break byte-identity of the
    # compacted output across compaction histories.
    provenance["compacted_trajectories"] = str(archive.trajectory_count)
    size, sidecar = save_archive_with_index(
        archive, output, network, provenance=provenance, parts=parts
    )
    return size, archive.trajectory_count, sidecar


def _unlink_segments(store: ManifestStore, infos) -> None:
    """Delete segments and their sidecars; a file already gone is fine."""
    for info in infos:
        segment = store.segment_path(info.name)
        for path in (segment, store.sidecar_path(info.name)):
            try:
                store.fs.unlink(path)
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# retention / TTL
# ----------------------------------------------------------------------
def gc_segments(
    store: ManifestStore,
    *,
    drop_before: int | None = None,
    ttl_seconds: int | None = None,
    now: int | None = None,
    dry_run: bool = False,
) -> list[SegmentInfo]:
    """Drop whole cold segments: every segment with ``max_time`` strictly
    before the cutoff.

    The cutoff is ``drop_before``, or ``now - ttl_seconds`` with ``now``
    defaulting to the newest timestamp in the archive (the stream
    clock — wall clock would silently empty a replayed historical
    feed).  Aggregate stats shrink by each dropped segment's header
    stats, so ``LiveArchive.stats`` and the manifest stay consistent.
    Returns the dropped segments (``dry_run`` only reports them).
    """
    if (drop_before is None) == (ttl_seconds is None):
        raise StreamArchiveError(
            "specify exactly one of drop_before / ttl_seconds"
        )
    if ttl_seconds is not None and ttl_seconds < 0:
        # a negative TTL would put the cutoff after the newest segment
        raise StreamArchiveError(
            f"ttl_seconds must be >= 0, got {ttl_seconds}"
        )
    with store.lock:
        segments = store.segments()
        if drop_before is not None:
            cutoff = drop_before
        else:
            if now is None:
                if not segments:
                    return []
                now = max(s.max_time for s in segments)
            cutoff = now - ttl_seconds
        doomed = [s for s in segments if s.max_time < cutoff]
        if not doomed or dry_run:
            return doomed
        dropped_stats = None
        for info in doomed:
            with open(store.segment_path(info.name), "rb") as stream:
                header = read_header(stream)
            if dropped_stats is None:
                dropped_stats = header.stats
            else:
                dropped_stats.add(header.stats)
        store.drop_segments(
            [s.name for s in doomed], dropped_stats=dropped_stats
        )
    _unlink_segments(store, doomed)
    obs_metrics.counter("repro_gc_segments_dropped_total").inc(len(doomed))
    _log.info(
        "compaction.gc",
        dropped=[s.name for s in doomed],
        cutoff=cutoff,
    )
    return doomed


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
@dataclass
class CompactionStats:
    """Work counters of one daemon (or one drain_compactions run)."""

    merges: int = 0
    segments_merged: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cycles: int = 0

    def note(self, task: CompactionTask, merged: SegmentInfo) -> None:
        self.merges += 1
        self.segments_merged += len(task.segments)
        self.bytes_read += sum(s.file_bytes for s in task.segments)
        self.bytes_written += merged.file_bytes


class CompactionDaemon:
    """Runs a compaction policy on a background thread.

    Pass the :class:`~repro.stream.writer.AppendableArchiveWriter`
    whose store it should share (merges then interleave safely with
    seals), or a directory for standalone operation on a quiesced
    archive.  ``network`` enables merged-segment sidecars; when a
    writer is given its network is used automatically.

    Use as a context manager, or ``start()``/``stop()``.  ``notify()``
    wakes the thread immediately (the replay harness calls it after
    every seal); otherwise it polls every ``interval`` seconds.  A
    policy exception stops the thread and re-raises from :meth:`stop`.
    """

    def __init__(
        self,
        source,
        *,
        policy: SizeTieredPolicy | None = None,
        network=None,
        interval: float = 0.5,
    ) -> None:
        if isinstance(source, AppendableArchiveWriter):
            self.store = source.store
            if network is None:
                network = source.network
        elif isinstance(source, ManifestStore):
            self.store = source
        else:
            self.store = ManifestStore.open(source)
        self.policy = policy or SizeTieredPolicy()
        self.network = network
        self.interval = interval
        self.stats = CompactionStats()
        self._wake = threading.Event()
        self._halt = threading.Event()
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    # -- synchronous core ----------------------------------------------
    def run_once(self) -> int:
        """Apply the policy until it finds no work; returns merge count."""
        merges = 0
        while not self._halt.is_set():
            task = self.policy.plan(self.store.segments())
            if task is None:
                break
            merged = merge_segments(self.store, task, network=self.network)
            self.stats.note(task, merged)
            merges += 1
        self.stats.cycles += 1
        return merges

    # -- thread lifecycle ----------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "CompactionDaemon":
        if self._thread is not None:
            raise StreamArchiveError("compaction daemon already started")
        self._thread = threading.Thread(
            target=self._loop, name="utcq-compaction", daemon=True
        )
        self._thread.start()
        _log.info(
            "compaction.daemon_started",
            policy=self.policy.describe(),
            interval=self.interval,
        )
        return self

    def notify(self) -> None:
        """Wake the daemon now (e.g. right after a segment seal)."""
        self._wake.set()

    def stop(self, *, timeout: float | None = 30.0) -> CompactionStats:
        """Stop the thread, re-raise any background failure, return stats."""
        self._halt.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            _log.error("compaction.daemon_failed", error=str(error))
            raise error
        _log.info(
            "compaction.daemon_stopped",
            merges=self.stats.merges,
            cycles=self.stats.cycles,
        )
        return self.stats

    def _loop(self) -> None:
        try:
            while not self._halt.is_set():
                self.run_once()
                self._wake.wait(timeout=self.interval)
                self._wake.clear()
            # drain once more so a final notify-then-stop isn't lost
            self.run_once()
        except BaseException as error:  # surfaced by stop()
            self._error = error

    def __enter__(self) -> "CompactionDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def drain_compactions(
    directory_or_store,
    *,
    policy: SizeTieredPolicy | None = None,
    network=None,
    **kwargs,
) -> CompactionStats:
    """Run a policy to quiescence synchronously; returns the work
    counters."""
    daemon = CompactionDaemon(
        directory_or_store, policy=policy, network=network, **kwargs
    )
    daemon.run_once()
    return daemon.stats


__all__ = [
    "CompactionDaemon",
    "CompactionStats",
    "CompactionTask",
    "SizeTieredPolicy",
    "compact",
    "drain_compactions",
    "gc_segments",
    "merge_segments",
]
