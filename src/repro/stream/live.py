"""Query view over a growing (and background-compacting) stream archive.

:class:`LiveArchive` unions the sealed segments of an
:class:`~repro.stream.writer.AppendableArchiveWriter` directory behind
the read surface the query stack already consumes (``params``,
``stats``, ``trajectories`` iteration, ``trajectory(id)``) — the same
duck type as :class:`~repro.core.archive.CompressedArchive` and
:class:`~repro.io.reader.FileBackedArchive`.  A
:class:`~repro.query.stiu.StIUIndex` and
:class:`~repro.query.queries.UTCQQueryProcessor` built over it answer
where/when/range queries while the writer keeps appending and the
compaction daemon keeps merging.

Consistency model: a ``LiveArchive`` is a snapshot of the manifest
generation read at :meth:`refresh` time.  Segment files are immutable,
so the snapshot never changes underneath an index built on it; call
:meth:`refresh` to pick up newly sealed segments *and* compaction
results (merged segments replace their sources in the id map, while
the replaced readers are retired — kept open until the next
:meth:`refresh`, so calls in flight on the older snapshot still
complete).  The unsealed buffer inside the writer is never visible.

Indexing: segments carry ``.stiu`` sidecars (the temporal layer)
written at rotation and merge time, so :meth:`build_index` *loads*
per-segment indexes and merges them instead of decoding every record —
an open of a sidecar-ed archive never triggers a StIU rebuild
(``sidecar_misses`` counts the exceptions, e.g. a segment whose sidecar
was deleted or is stale).  Per-segment indexes are cached by segment
name, so a refresh only pays for segments it has not seen.  The merged
index derives its spatial rows from this archive when a query first
needs them.
"""

from __future__ import annotations

import threading
from pathlib import Path

from ..core.archive import (
    CompressedTrajectory,
    CompressionParams,
    CompressionStats,
)
from ..core.decoder import DecodeSpanCache
from ..io.reader import ArchiveClosedError, FileBackedArchive, UnionArchive
from ..obs import metrics as obs_metrics
from ..query.queries import UTCQQueryProcessor
from ..query.sidecar import load_or_build_index
from ..query.stiu import StIUIndex
from .manifest import (
    MANIFEST_NAME,
    SEGMENT_DIR,
    StreamArchiveError,
    load_manifest,
    manifest_segments,
    params_from_dict,
)


class _LiveTrajectorySequence:
    """Read-only iteration over a live archive's union of segments."""

    def __init__(self, archive: "LiveArchive") -> None:
        self._archive = archive

    def __len__(self) -> int:
        return self._archive.trajectory_count

    def __iter__(self):
        for trajectory_id in self._archive.trajectory_ids():
            yield self._archive.trajectory(trajectory_id)


class LiveArchive:
    """Union of the sealed segments of a stream-archive directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self._archives: dict[str, FileBackedArchive] = {}
        self._levels: dict[str, int] = {}
        # readers the last refresh() replaced; the next one closes them
        self._retired: list[FileBackedArchive] = []
        self._union = UnionArchive(())
        self._params: CompressionParams | None = None
        self._provenance: dict[str, str] = {}
        self._closed = False
        self.generation = 0
        self._refresh_lock = threading.Lock()
        # per-segment StIU indexes, cached by segment name (immutable
        # files -> immutable indexes); cleared entry-wise as compaction
        # retires segments
        self._segment_indexes: dict[str, object] = {}
        #: how many segment indexes came from .stiu sidecars vs. were
        #: rebuilt by decoding records (cumulative over this instance);
        #: ``sidecar_stale`` counts segments whose files were compacted
        #: away under this snapshot and had to be indexed from the
        #: still-open reader
        self.sidecar_hits = 0
        self.sidecar_misses = 0
        self.sidecar_stale = 0
        # per-instance ints above stay the tested per-archive view; the
        # process registry gets the same events for scrape export
        self._sidecar_metrics = {
            outcome: obs_metrics.counter(
                "repro_stream_sidecar_loads_total",
                labels={"outcome": outcome},
                help="Segment index loads by outcome (hit/miss/stale)",
            )
            for outcome in ("hit", "miss", "stale")
        }
        # Parsed records and decoded spans survive refresh(): sealed
        # segments are immutable, so trajectories decoded before a
        # refresh stay valid after it.  trajectory() reads through this
        # cache, and query processors built over this archive share it
        # (see query_processor()), so mid-ingestion queries keep their
        # warm spans across index rebuilds.
        self.decode_cache = DecodeSpanCache()
        try:
            self.refresh()
        except BaseException:
            self.close()  # the segments opened before the failure
            raise

    @classmethod
    def open(cls, directory) -> "LiveArchive":
        """Alias of the constructor, mirroring ``FileBackedArchive.open``."""
        return cls(directory)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ArchiveClosedError(
                f"live archive over {self.directory} is closed"
            )

    def close(self) -> None:
        self._check_open()
        self._closed = True
        for segment in list(self._archives.values()) + self._retired:
            if not segment.closed:
                segment.close()

    def __enter__(self) -> "LiveArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()

    # ------------------------------------------------------------------
    # snapshot maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Adopt the manifest's current segment set; returns how many
        segments were newly opened.

        Newly sealed segments are opened; segments compaction removed
        are retired: their readers stay open for calls already in flight
        on the previous union and are closed by the next refresh (or
        with the archive), so a long-lived archive holds the readers of
        at most one refresh's worth of merged-away segments.  The id map
        is rebuilt atomically, so concurrent :meth:`trajectory` calls
        see either the old snapshot or the new one, never a mix.
        """
        self._check_open()
        with self._refresh_lock:
            opened = set(self._archives)
            try:
                self._adopt(load_manifest(self.directory))
            except FileNotFoundError:
                # a merge swapped a listed segment out and unlinked it
                # after the manifest was read: the newer manifest names
                # what replaced it (a segment missing there too raises)
                try:
                    self._adopt(load_manifest(self.directory))
                except FileNotFoundError as error:
                    raise StreamArchiveError(
                        f"segment {Path(error.filename).name} listed in "
                        f"{self.directory / MANIFEST_NAME} is missing"
                    ) from None
            return len(set(self._archives) - opened)

    def _adopt(self, manifest: dict) -> None:
        """Open the segments ``manifest`` adds and retire those it
        dropped; :meth:`refresh` holds the lock."""
        self._provenance = dict(manifest.get("provenance", {}))
        self.generation = manifest.get("generation", 0)
        infos = manifest_segments(manifest)
        current = {info.name for info in infos}
        for info in infos:
            if info.name in self._archives:
                self._levels[info.name] = info.level
                continue
            segment = FileBackedArchive.open(
                self.directory / SEGMENT_DIR / info.name
            )
            if self._params is None:
                self._params = segment.params
            elif segment.params != self._params:
                segment.close()
                raise StreamArchiveError(
                    f"segment {info.name} params differ from the archive's"
                )
            self._archives[info.name] = segment
            self._levels[info.name] = info.level
        for segment in self._retired:
            if not segment.closed:
                segment.close()
        self._retired = []
        for name in sorted(set(self._archives) - current):
            self._retired.append(self._archives.pop(name))
            self._levels.pop(name, None)
            self._segment_indexes.pop(name, None)
        self._union = UnionArchive(self._archives.values())
        if self._params is None and manifest["params"]:
            self._params = params_from_dict(manifest["params"])

    # ------------------------------------------------------------------
    # CompressedArchive-compatible surface
    # ------------------------------------------------------------------
    @property
    def params(self) -> CompressionParams:
        if self._params is None:
            raise StreamArchiveError(
                f"stream archive {self.directory} has no sealed segments yet"
            )
        return self._params

    @property
    def stats(self) -> CompressionStats:
        total = CompressionStats()
        for segment in self._archives.values():
            total.add(segment.stats)
        return total

    @property
    def provenance(self) -> dict[str, str]:
        return dict(self._provenance)

    @property
    def trajectory_count(self) -> int:
        return self._union.trajectory_count

    @property
    def instance_count(self) -> int:
        return sum(s.instance_count for s in self._archives.values())

    @property
    def segment_count(self) -> int:
        return len(self._archives)

    @property
    def retired_count(self) -> int:
        """Readers the last refresh retired, kept open until the next
        one for calls still running on the previous snapshot."""
        return len(self._retired)

    def segment_levels(self) -> dict[str, int]:
        """Current segment names mapped to their compaction level."""
        return dict(self._levels)

    @property
    def trajectories(self) -> _LiveTrajectorySequence:
        return _LiveTrajectorySequence(self)

    def trajectory_ids(self) -> list[int]:
        self._check_open()
        return self._union.trajectory_ids()

    def _read(self, read, trajectory_id: int):
        """``read(union, trajectory_id)`` on the current snapshot.  A
        call that outlives two refreshes finds its reader closed (see
        :meth:`refresh`); it is answered again from the snapshot that
        replaced it, which holds every id a merge kept."""
        while True:
            union = self._union
            try:
                return read(union, trajectory_id)
            except ArchiveClosedError:
                if self._closed or union is self._union:
                    raise

    def trajectory(self, trajectory_id: int) -> CompressedTrajectory:
        self._check_open()
        return self.decode_cache.record_for(
            trajectory_id,
            lambda: self._read(UnionArchive.trajectory, trajectory_id),
        )

    def time_span(self, trajectory_id: int) -> tuple[int, int]:
        """``(start_time, end_time)`` without parsing the whole record;
        see :meth:`FileBackedArchive.time_span`."""
        self._check_open()
        return self._read(UnionArchive.time_span, trajectory_id)

    # ------------------------------------------------------------------
    # indexing / querying
    # ------------------------------------------------------------------
    def build_index(self, network):
        """A StIU index over the current snapshot, sidecar-first.

        Each segment contributes its persisted ``.stiu`` index when one
        exists (written at rotation/merge time); only segments without
        a usable sidecar are decoded and rebuilt.  Per-segment indexes
        are cached by name, so successive calls after a refresh pay
        only for unseen segments.  The merged index is a fresh object
        each call (cheap — dict unions over the cached parts' temporal
        layers; its spatial rows are derived from this archive on first
        use).
        """
        self._check_open()
        with self._refresh_lock:
            parts = []
            for name, segment in sorted(self._archives.items()):
                part = self._segment_indexes.get(name)
                if part is None:
                    path = self.directory / SEGMENT_DIR / name
                    try:
                        part, from_sidecar = load_or_build_index(
                            network, segment, path
                        )
                        if from_sidecar:
                            self.sidecar_hits += 1
                            self._sidecar_metrics["hit"].inc()
                        elif not path.exists():
                            # merged away, sidecar and all, under this
                            # snapshot: indexed from the open reader
                            self.sidecar_stale += 1
                            self._sidecar_metrics["stale"].inc()
                        else:
                            self.sidecar_misses += 1
                            self._sidecar_metrics["miss"].inc()
                    except OSError:
                        # a concurrent merge unlinked this segment after
                        # the snapshot was taken; its reader is still
                        # open, so index the records through it
                        part = StIUIndex(network, segment)
                        self.sidecar_stale += 1
                        self._sidecar_metrics["stale"].inc()
                    self._segment_indexes[name] = part
                parts.append(part)
            return StIUIndex.merged(network, self, parts)

    def query_processor(self, network):
        """Build (or assemble from sidecars) a StIU index over the
        current snapshot and return a query processor sharing this
        archive's decode-span cache.

        Call again after :meth:`refresh` to serve newly sealed or
        freshly merged segments; spans decoded through the previous
        processor stay warm because the cache outlives the index.
        """
        return UTCQQueryProcessor(
            network, self, self.build_index(network), cache=self.decode_cache
        )
