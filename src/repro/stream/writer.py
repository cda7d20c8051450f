"""Appendable archives: rotating ``.utcq`` segments plus a crash-safe
versioned manifest.

The batch ``.utcq`` format is write-once (header counts, directory and
dataset-wide stats are all computed up front), which is exactly wrong
for ingestion.  :class:`AppendableArchiveWriter` keeps the format
untouched and gains appendability one level up, the way log-structured
stores do:

* sealed trips are compressed immediately (deterministically, via the
  per-trajectory RNG) and buffered;
* every ``segment_max_trajectories`` trips the buffer is written as an
  ordinary, self-contained ``.utcq`` **segment** under ``segments/``
  (tmp + fsync + rename, so a torn segment is never visible under its
  final name), together with a per-segment ``.stiu`` index sidecar so
  live queries never rebuild an index;
* the :class:`~repro.stream.manifest.ManifestStore` commits a new
  manifest generation after each seal — atomic rename, durable fsyncs,
  monotonic generation numbers.

Every segment is a valid archive readable by the standard
:class:`~repro.io.reader.FileBackedArchive`, so a
:class:`~repro.stream.live.LiveArchive` can union the sealed segments
for querying *while ingestion continues*, and a
:class:`~repro.stream.compaction.CompactionDaemon` can merge rotated
segments in the background through the shared store.  :func:`compact`
merges all segments into one archive byte-compatible with
:mod:`repro.io.format` — indistinguishable from a batch-written file,
whatever compaction history the segments went through.

Because ingestion cannot know the dataset-wide maximum start time the
batch pipeline derives ``t0_bits`` from, the writer fixes ``t0_bits``
(default 32) up front; the parameter travels in the header, so readers,
indexes and queries are unaffected.

A writer re-opened on an existing directory first runs
:func:`~repro.stream.manifest.recover` (adopting or deleting any
orphan a crash left behind) and then resumes appending: the manifest is
the recovery point, and an interrupted run loses at most the unsealed
buffer, never a sealed segment.
"""

from __future__ import annotations

from pathlib import Path

from ..bits.bitio import uint_width
from ..core.archive import (
    CompressedArchive,
    CompressedTrajectory,
    CompressionParams,
    CompressionStats,
)
from ..core.compressor import (
    DEFAULT_ETA_DISTANCE,
    DEFAULT_ETA_PROBABILITY,
    UTCQCompressor,
)
from ..io.format import read_archive, write_archive
from ..network.graph import RoadNetwork
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from ..trajectories.model import UncertainTrajectory
from .manifest import (
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    SEGMENT_DIR,
    Filesystem,
    ManifestStore,
    RecoveryReport,
    SegmentInfo,
    StreamArchiveError,
    load_manifest,
    manifest_segments,
    params_from_dict as _params_from_dict,
    params_to_dict as _params_to_dict,
    recover,
    stats_from_list as _stats_from_list,
    stats_to_list as _stats_to_list,
)

_log = get_logger("repro.stream.writer")

__all__ = [
    "AppendableArchiveWriter",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "SEGMENT_DIR",
    "SegmentInfo",
    "StreamArchiveError",
    "compact",
    "load_manifest",
    "manifest_segments",
    "write_segment_file",
]


def write_segment_file(
    archive: CompressedArchive,
    path,
    *,
    provenance: dict[str, str],
    fs: Filesystem,
) -> int:
    """Write ``archive`` to ``path`` atomically; returns the file size.

    The bytes land under ``path + '.tmp'`` first, are fsynced, renamed
    over the final name, and the parent directory is fsynced — the
    sequence whose every boundary the crash-injection suite kills at.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    size = write_archive(archive, tmp, provenance=provenance)
    fs.fsync_path(tmp)
    fs.replace(tmp, path)
    fs.fsync_dir(path.parent)
    return size


class AppendableArchiveWriter:
    """Seals uncertain trips into rotating ``.utcq`` segment files.

    Use as a context manager (or call :meth:`close`, which seals the
    remaining buffer)::

        with AppendableArchiveWriter(path, network, default_interval=10) as w:
            for trip in trips:
                w.append(trip)

    Every rotation also builds the segment's StIU index and persists it
    as ``<segment>.stiu``, so a :class:`~repro.stream.live.LiveArchive`
    never pays an index rebuild.
    """

    def __init__(
        self,
        directory,
        network: RoadNetwork,
        *,
        default_interval: int,
        eta_distance: float = DEFAULT_ETA_DISTANCE,
        eta_probability: float = DEFAULT_ETA_PROBABILITY,
        pivot_count: int = 1,
        seed: int = 17,
        segment_max_trajectories: int = 64,
        t0_bits: int = 32,
        provenance: dict[str, str] | None = None,
        fs: Filesystem | None = None,
    ) -> None:
        if segment_max_trajectories < 1:
            raise ValueError("segment_max_trajectories must be >= 1")
        self.directory = Path(directory)
        self.segments_directory = self.directory / SEGMENT_DIR
        self.network = network
        self._compressor = UTCQCompressor(
            network=network,
            default_interval=default_interval,
            eta_distance=eta_distance,
            eta_probability=eta_probability,
            pivot_count=pivot_count,
            seed=seed,
        )
        self.params = CompressionParams(
            eta_distance=eta_distance,
            eta_probability=eta_probability,
            default_interval=default_interval,
            symbol_width=uint_width(network.max_out_degree),
            t0_bits=t0_bits,
            pivot_count=pivot_count,
        )
        self.segment_max_trajectories = segment_max_trajectories
        self.provenance = dict(provenance or {})
        self._pending: list[CompressedTrajectory] = []
        self._last_id = -1
        self._closed = False
        self.last_recovery: RecoveryReport | None = None
        if (self.directory / MANIFEST_NAME).exists():
            self.store = ManifestStore.open(self.directory, fs=fs)
            self._resume()
        else:
            self.store = ManifestStore.create(
                self.directory, self.params, self.provenance, fs=fs
            )

    def _resume(self) -> None:
        store = self.store
        if store.state.params != self.params:
            raise StreamArchiveError(
                f"cannot append to {self.directory}: existing params "
                f"{store.state.params} differ from writer params "
                f"{self.params}"
            )
        existing_provenance = dict(store.state.provenance)
        if not self.provenance:
            self.provenance = existing_provenance
        elif existing_provenance and self.provenance != existing_provenance:
            # params can coincide across different source networks (same
            # grid degree and interval); provenance is the identity check
            # that keeps trips matched against network A from being
            # appended next to trips matched against network B
            raise StreamArchiveError(
                f"cannot append to {self.directory}: its provenance "
                f"{existing_provenance} differs from the writer's "
                f"{self.provenance}"
            )
        # reconcile the directory with the manifest: a crash between a
        # segment rename and its manifest commit leaves an orphan that
        # must be adopted (its trips are sealed!) or swept
        self.last_recovery = recover(store)
        self._last_id = store.last_trajectory_id

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def next_trajectory_id(self) -> int:
        """Smallest id :meth:`append` will accept (resume support)."""
        return self._last_id + 1

    @property
    def segment_count(self) -> int:
        return len(self.store.segments())

    @property
    def sealed_trajectory_count(self) -> int:
        return sum(s.trajectory_count for s in self.store.segments())

    @property
    def generation(self) -> int:
        """Manifest generation last committed for this directory."""
        return self.store.state.generation

    @property
    def stats(self) -> CompressionStats:
        """Aggregate stats over every sealed trip (plus the buffer)."""
        total = CompressionStats()
        total.add(self.store.state.stats)
        for trajectory in self._pending:
            total.add(trajectory.stats)
        return total

    def segments(self) -> list[SegmentInfo]:
        return self.store.segments()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def append(self, trajectory: UncertainTrajectory) -> None:
        """Compress one sealed trip into the current segment buffer."""
        if self._closed:
            raise StreamArchiveError("writer is closed")
        if trajectory.trajectory_id <= self._last_id:
            raise StreamArchiveError(
                f"trajectory ids must be strictly increasing: got "
                f"{trajectory.trajectory_id} after {self._last_id}"
            )
        compressed = self._compressor.compress_trajectory(
            trajectory,
            self.params,
            self._compressor.trajectory_rng(trajectory.trajectory_id),
        )
        self._last_id = trajectory.trajectory_id
        self._pending.append(compressed)
        if len(self._pending) >= self.segment_max_trajectories:
            self.seal_segment()

    def seal_segment(self) -> SegmentInfo | None:
        """Write the buffered trips as one ``.utcq`` segment file."""
        if self._closed:
            raise StreamArchiveError("writer is closed")
        if not self._pending:
            return None
        store = self.store
        archive = CompressedArchive(
            params=self.params, trajectories=list(self._pending)
        )
        with store.lock:
            name = store.allocate_segment_name()
            size = write_segment_file(
                archive,
                store.segment_path(name),
                provenance=self.provenance,
                fs=store.fs,
            )
            self._write_segment_sidecar(archive, name)
            info = SegmentInfo(
                name=name,
                trajectory_count=archive.trajectory_count,
                instance_count=archive.instance_count,
                min_trajectory_id=self._pending[0].trajectory_id,
                max_trajectory_id=self._pending[-1].trajectory_id,
                min_time=min(t.start_time for t in self._pending),
                max_time=max(t.end_time for t in self._pending),
                file_bytes=size,
                level=0,
            )
            store.add_segment(info, added_stats=archive.stats)
        self._pending.clear()
        obs_metrics.counter("repro_stream_segments_sealed_total").inc()
        obs_metrics.counter("repro_stream_bytes_sealed_total").inc(size)
        _log.info(
            "stream.segment_sealed",
            segment=name,
            trajectories=info.trajectory_count,
            bytes=size,
        )
        return info

    def _write_segment_sidecar(
        self, archive: CompressedArchive, name: str
    ) -> None:
        from ..query.sidecar import save_index
        from ..query.stiu import StIUIndex

        save_index(
            StIUIndex(self.network, archive), self.store.segment_path(name)
        )

    def close(self) -> None:
        """Seal the remaining buffer and stop accepting trips."""
        if self._closed:
            return
        self.seal_segment()
        self._closed = True

    def __enter__(self) -> "AppendableArchiveWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# one-shot compaction to a canonical batch archive
# ----------------------------------------------------------------------
def compact(
    directory,
    output,
    *,
    extra_provenance: dict[str, str] | None = None,
    network: RoadNetwork | None = None,
) -> tuple[int, int]:
    """Merge all sealed segments into one canonical ``.utcq`` archive.

    Every segment is read back with full CRC verification, the records
    are concatenated in trajectory-id order, and the result is written
    through the ordinary batch serializer — the output is
    byte-compatible with :func:`repro.io.format.write_archive` and
    carries the manifest's provenance (plus ``compacted_trajectories``).
    Because background compaction preserves record bytes and id order,
    the output is byte-identical whatever merge schedule the segments
    went through.  Returns ``(file_bytes, trajectory_count)``.  The
    segment files are left in place; delete the directory once the
    compacted archive is verified.

    With ``network`` the compacted archive also gets a persistent StIU
    sidecar (``<output>.stiu``), so the first query against it skips
    the index rebuild — the same warm-open path ``repro compress``
    produces.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    params = _params_from_dict(manifest["params"])
    segments = manifest_segments(manifest)
    trajectories: list[CompressedTrajectory] = []
    stats = CompressionStats()
    for info in segments:
        segment = read_archive(directory / SEGMENT_DIR / info.name)
        if segment.params != params:
            raise StreamArchiveError(
                f"segment {info.name} params differ from the manifest"
            )
        trajectories.extend(segment.trajectories)
        stats.add(segment.stats)
    seen: set[int] = set()
    for trajectory in trajectories:
        if trajectory.trajectory_id in seen:
            raise StreamArchiveError(
                f"duplicate trajectory id {trajectory.trajectory_id} "
                f"across segments"
            )
        seen.add(trajectory.trajectory_id)
    trajectories.sort(key=lambda t: t.trajectory_id)
    archive = CompressedArchive(
        params=params, trajectories=trajectories, stats=stats
    )
    provenance = dict(manifest.get("provenance", {}))
    # Deliberately schedule-invariant: the segment count depends on how
    # many background merges ran, and would break byte-identity of the
    # compacted output across compaction histories.
    provenance["compacted_trajectories"] = str(len(trajectories))
    provenance.update(extra_provenance or {})
    size = write_archive(archive, output, provenance=provenance)
    if network is not None:
        from ..query.sidecar import save_index
        from ..query.stiu import StIUIndex

        save_index(StIUIndex(network, archive), output)
    return size, archive.trajectory_count
