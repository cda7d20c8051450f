"""Crash-safe, versioned manifests for stream-archive directories.

A stream archive is a directory of immutable ``.utcq`` segments plus a
single ``manifest.json`` naming the segments that *exist* as far as
readers are concerned.  This module owns that file and the invariants
that make the directory a real storage engine:

* **Atomic, durable commits.**  Every manifest write goes through
  tmp-file + ``fsync`` + ``os.replace`` + directory ``fsync``, so a
  crash at any instant leaves either the old manifest or the new one,
  never a torn file.  Each commit carries a monotonically increasing
  ``generation`` number — the recovery point and the debugging
  breadcrumb.
* **Injectable filesystem.**  All durability-relevant operations
  (fsync, rename, unlink) are routed through a
  :class:`~repro.io.durable.Filesystem` object so the crash-injection
  test suite can kill the writer at every boundary and assert recovery;
  production code uses the default instance and never notices.
* **Orphan recovery.**  :func:`recover` sweeps a directory on open:
  half-written ``*.tmp`` files are deleted, an unreferenced segment
  whose trajectory ids continue the manifest (the crashed
  rotation-then-manifest window) is *adopted* back into the manifest,
  and any other unreferenced segment or sidecar (e.g. a compaction
  output whose commit never landed) is deleted.  After recovery the
  directory and the manifest agree exactly.

The manifest format is version 2; any other version is refused.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from ..core.archive import ComponentBits, CompressionParams, CompressionStats
from ..io.durable import DEFAULT_FS, Filesystem
from ..io.format import ArchiveFormatError, read_archive
from ..query.sidecar import sidecar_path_for

MANIFEST_NAME = "manifest.json"
SEGMENT_DIR = "segments"
MANIFEST_FORMAT = "utcq-stream-manifest"
MANIFEST_VERSION = 2

SEGMENT_SUFFIX = ".utcq"
_SEGMENT_NAME = re.compile(r"^seg-(\d{5,})\.utcq$")

_COMPONENT_FIELDS = (
    "time", "edge", "distance", "flags", "probability", "overhead",
)

# every top-level field a version-2 manifest carries, with its JSON type
_MANIFEST_FIELDS = (
    ("generation", int),
    ("params", dict),
    ("provenance", dict),
    ("stats", list),
    ("trajectory_count", int),
    ("instance_count", int),
    ("next_segment_id", int),
    ("segments", list),
)
_segment_counts = attrgetter(
    "trajectory_count",
    "instance_count",
    "min_trajectory_id",
    "max_trajectory_id",
    "min_time",
    "max_time",
    "file_bytes",
    "level",
)


class StreamArchiveError(Exception):
    """Raised when a stream-archive directory or manifest is invalid."""


# ----------------------------------------------------------------------
# (de)serialization helpers
# ----------------------------------------------------------------------
def params_to_dict(params: CompressionParams) -> dict:
    return {
        "eta_distance": params.eta_distance,
        "eta_probability": params.eta_probability,
        "default_interval": params.default_interval,
        "symbol_width": params.symbol_width,
        "t0_bits": params.t0_bits,
        "pivot_count": params.pivot_count,
    }


def params_from_dict(data: dict) -> CompressionParams:
    try:
        return CompressionParams(**data)
    except (TypeError, ValueError) as error:
        raise StreamArchiveError(f"bad params in manifest: {error}") from None


def stats_to_list(stats: CompressionStats) -> list[int]:
    return [getattr(stats.original, f) for f in _COMPONENT_FIELDS] + [
        getattr(stats.compressed, f) for f in _COMPONENT_FIELDS
    ]


def stats_from_list(values: list[int]) -> CompressionStats:
    if len(values) != 12:
        raise StreamArchiveError(
            f"manifest stats must hold 12 values, got {len(values)}"
        )
    return CompressionStats(
        original=ComponentBits(*values[:6]),
        compressed=ComponentBits(*values[6:]),
    )


def stats_subtract(total: CompressionStats, part: CompressionStats) -> None:
    """Remove ``part`` from ``total`` in place (segment drop / GC)."""
    for side in ("original", "compressed"):
        target = getattr(total, side)
        source = getattr(part, side)
        for name in _COMPONENT_FIELDS:
            setattr(target, name, getattr(target, name) - getattr(source, name))


@dataclass(frozen=True)
class SegmentInfo:
    """One sealed segment as recorded in the manifest."""

    name: str
    trajectory_count: int
    instance_count: int
    min_trajectory_id: int
    max_trajectory_id: int
    min_time: int
    max_time: int
    file_bytes: int
    level: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trajectory_count": self.trajectory_count,
            "instance_count": self.instance_count,
            "min_trajectory_id": self.min_trajectory_id,
            "max_trajectory_id": self.max_trajectory_id,
            "min_time": self.min_time,
            "max_time": self.max_time,
            "file_bytes": self.file_bytes,
            "level": self.level,
        }

    @classmethod
    def of(
        cls, name: str, archive, *, file_bytes: int, level: int = 0
    ) -> "SegmentInfo":
        """The entry of segment ``name``, whose file of ``file_bytes``
        holds ``archive`` — one rule for a seal, a merge and an
        adopted orphan."""
        trajectories = archive.trajectories
        ids = [t.trajectory_id for t in trajectories]
        return cls(
            name=name,
            trajectory_count=archive.trajectory_count,
            instance_count=archive.instance_count,
            min_trajectory_id=min(ids),
            max_trajectory_id=max(ids),
            min_time=min(t.start_time for t in trajectories),
            max_time=max(t.end_time for t in trajectories),
            file_bytes=file_bytes,
            level=level,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentInfo":
        try:
            info = cls(**data)
        except TypeError as error:
            raise StreamArchiveError(
                f"bad segment entry in manifest: {error}"
            ) from None
        # the name becomes a path under segments/: only a segment name
        if not (
            isinstance(info.name, str)
            and _SEGMENT_NAME.match(info.name)
            and set(map(type, _segment_counts(info))) == {int}
        ):
            raise StreamArchiveError(f"bad segment entry in manifest: {data}")
        return info


def segment_id_of(name: str) -> int:
    match = _SEGMENT_NAME.match(name)
    if match is None:
        raise StreamArchiveError(f"not a segment name: {name!r}")
    return int(match.group(1))


def segment_name(segment_id: int) -> str:
    return f"seg-{segment_id:05d}{SEGMENT_SUFFIX}"


# ----------------------------------------------------------------------
# manifest document I/O
# ----------------------------------------------------------------------
def load_manifest(directory) -> dict:
    """Read and validate a stream-archive manifest; returns its dict."""
    path = Path(directory) / MANIFEST_NAME
    try:
        with open(path, encoding="utf-8") as stream:
            manifest = json.load(stream)
    except FileNotFoundError:
        raise StreamArchiveError(
            f"no stream archive at {directory} (missing {MANIFEST_NAME})"
        ) from None
    except ValueError as error:  # JSON syntax, or bytes that are not UTF-8
        raise StreamArchiveError(f"corrupt manifest {path}: {error}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise StreamArchiveError(
            f"{path} is not a stream-archive manifest"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise StreamArchiveError(
            f"unsupported manifest version {manifest.get('version')}"
        )
    for key, kind in _MANIFEST_FIELDS:
        value = manifest.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise StreamArchiveError(
                f"corrupt manifest {path}: {key!r} is missing or not "
                f"a JSON {kind.__name__}"
            )
    stats = manifest["stats"]
    if len(stats) != 12 or any(type(value) is not int for value in stats):
        raise StreamArchiveError(
            f"corrupt manifest {path}: 'stats' must hold 12 integers"
        )
    if any(type(value) is not str for value in manifest["provenance"].values()):
        raise StreamArchiveError(
            f"corrupt manifest {path}: 'provenance' values must be strings"
        )
    return manifest


def manifest_segments(manifest: dict) -> list[SegmentInfo]:
    """The segment entries of a manifest :func:`load_manifest` read;
    an entry with a missing, extra or mistyped field raises
    :class:`StreamArchiveError`."""
    return [SegmentInfo.from_dict(entry) for entry in manifest["segments"]]


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
@dataclass
class ManifestState:
    """In-memory image of one manifest generation."""

    params: CompressionParams
    provenance: dict[str, str]
    stats: CompressionStats = field(default_factory=CompressionStats)
    segments: list[SegmentInfo] = field(default_factory=list)
    generation: int = 0
    next_segment_id: int = 0


class ManifestStore:
    """Owns a directory's manifest: load, mutate under a lock, commit.

    The store is the single writer of ``manifest.json``.  Both the
    appendable writer and the compaction daemon mutate state through it
    while holding :attr:`lock`, so a seal and a merge can interleave
    safely in one process.  Every :meth:`commit` bumps the generation
    and is atomic + durable through the injectable :class:`Filesystem`.
    """

    def __init__(self, directory, state: ManifestState, *, fs: Filesystem | None = None) -> None:
        self.directory = Path(directory)
        self.segments_directory = self.directory / SEGMENT_DIR
        self.state = state
        self.fs = fs or DEFAULT_FS
        self.lock = threading.RLock()

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        directory,
        params: CompressionParams,
        provenance: dict[str, str],
        *,
        fs: Filesystem | None = None,
    ) -> "ManifestStore":
        store = cls(
            directory,
            ManifestState(params=params, provenance=dict(provenance)),
            fs=fs,
        )
        store.segments_directory.mkdir(parents=True, exist_ok=True)
        store.commit()
        return store

    @classmethod
    def open(cls, directory, *, fs: Filesystem | None = None) -> "ManifestStore":
        manifest = load_manifest(directory)
        state = ManifestState(
            params=params_from_dict(manifest["params"]),
            provenance=dict(manifest.get("provenance", {})),
            stats=stats_from_list(manifest["stats"]),
            segments=manifest_segments(manifest),
            generation=manifest["generation"],
            next_segment_id=manifest["next_segment_id"],
        )
        store = cls(directory, state, fs=fs)
        store.segments_directory.mkdir(parents=True, exist_ok=True)
        return store

    # -- paths ----------------------------------------------------------
    def segment_path(self, name: str) -> Path:
        return self.segments_directory / name

    def sidecar_path(self, name: str) -> Path:
        return sidecar_path_for(self.segment_path(name))

    # -- committing -----------------------------------------------------
    def as_manifest(self) -> dict:
        state = self.state
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "generation": state.generation,
            "params": params_to_dict(state.params),
            "provenance": state.provenance,
            "stats": stats_to_list(state.stats),
            "trajectory_count": sum(
                s.trajectory_count for s in state.segments
            ),
            "instance_count": sum(s.instance_count for s in state.segments),
            "next_segment_id": state.next_segment_id,
            "segments": [s.as_dict() for s in state.segments],
        }

    def commit(self) -> int:
        """Atomically publish the current state; returns the generation."""
        with self.lock:
            self.state.generation += 1
            document = self.as_manifest()
            data = (
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            ).encode("utf-8")
            tmp = self.directory / (MANIFEST_NAME + ".tmp")
            self.fs.write_bytes(tmp, data)
            self.fs.replace(tmp, self.directory / MANIFEST_NAME)
            self.fs.fsync_dir(self.directory)
            return self.state.generation

    # -- mutations (call under ``lock``) --------------------------------
    def allocate_segment_name(self) -> str:
        with self.lock:
            name = segment_name(self.state.next_segment_id)
            self.state.next_segment_id += 1
            return name

    def add_segment(self, info: SegmentInfo, added_stats: CompressionStats | None = None) -> None:
        with self.lock:
            self.state.segments.append(info)
            if added_stats is not None:
                self.state.stats.add(added_stats)
            self.commit()

    def replace_segments(
        self, old_names: list[str], new_info: SegmentInfo
    ) -> None:
        """Swap a merged run for its sources in one committed step."""
        with self.lock:
            removed = set(old_names)
            kept = [s for s in self.state.segments if s.name not in removed]
            if len(kept) + len(removed) != len(self.state.segments):
                raise StreamArchiveError(
                    f"compaction out of date: {sorted(removed)} not all "
                    f"present in generation {self.state.generation}"
                )
            kept.append(new_info)
            kept.sort(key=lambda s: s.min_trajectory_id)
            self.state.segments = kept
            self.commit()

    def drop_segments(
        self, names: list[str], dropped_stats: CompressionStats | None = None
    ) -> None:
        with self.lock:
            removed = set(names)
            self.state.segments = [
                s for s in self.state.segments if s.name not in removed
            ]
            if dropped_stats is not None:
                stats_subtract(self.state.stats, dropped_stats)
            self.commit()

    # -- views ----------------------------------------------------------
    def segments(self) -> list[SegmentInfo]:
        with self.lock:
            return list(self.state.segments)

    @property
    def last_trajectory_id(self) -> int:
        with self.lock:
            if not self.state.segments:
                return -1
            return max(s.max_trajectory_id for s in self.state.segments)


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """What :func:`recover` found and did."""

    adopted: list[str] = field(default_factory=list)
    deleted_segments: list[str] = field(default_factory=list)
    deleted_sidecars: list[str] = field(default_factory=list)
    deleted_tmp: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.adopted
            or self.deleted_segments
            or self.deleted_sidecars
            or self.deleted_tmp
        )


def recover(store: ManifestStore) -> RecoveryReport:
    """Reconcile the directory with the manifest after a crash.

    Invariants restored (in order):

    1. no ``*.tmp`` leftovers anywhere in the archive directory;
    2. an unreferenced segment that *continues* the manifest's id space
       (strictly greater ids, matching params — the crash window between
       segment rename and manifest commit) is adopted: its entry is
       rebuilt from its records by :meth:`SegmentInfo.of`, the rule its
       seal used, and committed, so no sealed trip is ever lost;
    3. every other unreferenced ``.utcq`` file (an interrupted
       compaction output whose ids overlap referenced segments, or an
       unreadable torn file) is deleted;
    4. every ``.stiu`` sidecar without a referenced segment is deleted.

    Idempotent: running it again on the result is a no-op.
    """
    report = RecoveryReport()
    fs = store.fs
    with store.lock:
        for parent in (store.directory, store.segments_directory):
            if not parent.is_dir():
                continue
            for tmp in sorted(parent.glob("*.tmp")):
                fs.unlink(tmp)
                report.deleted_tmp.append(tmp.name)

        referenced = {s.name for s in store.state.segments}
        on_disk = sorted(
            p.name
            for p in store.segments_directory.glob(f"*{SEGMENT_SUFFIX}")
        )
        last_id = store.last_trajectory_id
        adopted_any = False
        for name in on_disk:
            if name in referenced:
                continue
            path = store.segment_path(name)
            try:
                segment = read_archive(path)  # every record CRC-verified
            except (ArchiveFormatError, OSError):
                segment = None
            adoptable = (
                segment is not None
                and segment.trajectories
                and segment.params == store.state.params
                and min(t.trajectory_id for t in segment.trajectories)
                > last_id
            )
            if not adoptable:
                fs.unlink(path)
                report.deleted_segments.append(name)
                continue
            info = SegmentInfo.of(
                name, segment, file_bytes=path.stat().st_size
            )
            store.state.segments.append(info)
            store.state.segments.sort(key=lambda s: s.min_trajectory_id)
            store.state.stats.add(segment.stats)
            store.state.next_segment_id = max(
                store.state.next_segment_id, segment_id_of(name) + 1
            )
            referenced.add(name)
            last_id = max(last_id, info.max_trajectory_id)
            report.adopted.append(name)
            adopted_any = True

        kept = {store.sidecar_path(name) for name in referenced}
        every_sidecar = sidecar_path_for("*").name  # a glob pattern
        for sidecar in sorted(store.segments_directory.glob(every_sidecar)):
            if sidecar not in kept:
                fs.unlink(sidecar)
                report.deleted_sidecars.append(sidecar.name)

        if adopted_any:
            store.commit()
    return report


__all__ = [
    "DEFAULT_FS",
    "Filesystem",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ManifestState",
    "ManifestStore",
    "RecoveryReport",
    "SEGMENT_DIR",
    "SegmentInfo",
    "StreamArchiveError",
    "load_manifest",
    "manifest_segments",
    "params_from_dict",
    "params_to_dict",
    "recover",
    "segment_id_of",
    "segment_name",
    "stats_from_list",
    "stats_subtract",
    "stats_to_list",
]
