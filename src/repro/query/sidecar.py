"""Persistent StIU index: the versioned ``.stiu`` sidecar format.

The sidecar persists the StIU temporal layer — each trajectory's
``t.start`` per time interval — next to the archive (``<archive>.stiu``),
written once at compress/compact time, so an open decodes no time
stream.  The spatial layer is not stored: it is a pure
function of the records, the network and the grid, and
:class:`~repro.query.stiu.SpatialLayer` derives it, one time interval
at a time, when a query first needs it.

Layout (all integers little-endian; ``uv`` = unsigned LEB128 varint,
shared with :mod:`repro.io.format`)::

    +--------------------------------------------------------------+
    | magic "UTCQSTIU" (8) | version u16 | flags u16               |
    | archive_size u64 | archive_sha256 (32 raw bytes)             |
    | grid_cells_per_side u32 | time_partition_seconds u32         |
    | trajectory_count u64 | temporal_bytes u64                    |
    +--------------------------------------------------------------+
    | temporal section (zlib-deflated; ``temporal_bytes`` counts   |
    | the compressed form, which runs to the end of the file):     |
    |   uv interval_count, then per interval (ascending):          |
    |     uv interval, uv entry_count, then per entry (ascending   |
    |     trajectory id):                                          |
    |       uv id delta, uv t.start                                |
    +--------------------------------------------------------------+

An id delta is the difference from the previous id in its interval (the
first is the id itself).  The grid only shapes the derived spatial
layer, but it is pinned with the partition, so a sidecar answers for
exactly one index.

Staleness: the header pins the archive's byte size and SHA-256.  A
mismatch (the archive was rewritten, recompressed, or replaced) makes
:func:`load_index` return ``None`` so the caller rebuilds; the same
happens for a version bump (a version-2 file, which also carried the
spatial layer, and a version-3 one, whose entries also carried ``t.no``
and ``t.pos``, included) or different index parameters.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from pathlib import Path

from ..io.format import ArchiveFormatError, read_uvarint_stream, write_uvarints
from .stiu import StIUIndex

MAGIC = b"UTCQSTIU"
VERSION = 4

# the fixed header, in the order of the layout above
_HEADER = struct.Struct("<8sHHQ32sIIQQ")
_HEADER_FIELDS = (
    "magic version flags archive_size archive_sha256 grid_cells_per_side "
    "time_partition_seconds trajectory_count temporal_bytes"
).split()

SIDECAR_SUFFIX = ".stiu"


class SidecarFormatError(Exception):
    """Raised when a file is not a valid version-4 ``.stiu`` sidecar."""


def sidecar_path_for(archive_path) -> Path:
    """Where the sidecar of ``archive_path`` lives: the archive path plus
    ``.stiu``.  The one naming rule; every other module asks here."""
    return Path(str(archive_path) + SIDECAR_SUFFIX)


def archive_fingerprint(archive_path) -> tuple[int, bytes]:
    """(byte size, SHA-256 digest) of the archive file."""
    digest = hashlib.sha256()
    size = 0
    with open(archive_path, "rb") as stream:
        while True:
            chunk = stream.read(1 << 20)
            if not chunk:
                break
            size += len(chunk)
            digest.update(chunk)
    return size, digest.digest()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def _encode_temporal(index: StIUIndex) -> bytes:
    values = [len(index.temporal)]
    for interval in sorted(index.temporal):
        entries = index.temporal[interval]
        values += (interval, len(entries))
        previous = 0
        for trajectory_id in sorted(entries):
            values += (trajectory_id - previous, entries[trajectory_id])
            previous = trajectory_id
    out = bytearray()
    write_uvarints(out, values)
    return bytes(out)


def _decode_temporal(
    data: bytes,
) -> tuple[dict[int, dict[int, int]], dict[int, list[int]]]:
    try:
        values = read_uvarint_stream(data)
    except ArchiveFormatError as error:
        raise SidecarFormatError(f"temporal section: {error}") from None
    temporal: dict[int, dict[int, int]] = {}
    per_trajectory: dict[int, list[int]] = {}
    try:
        position = 1
        for _ in range(values[0]):
            interval, entry_count = values[position : position + 2]
            position += 2
            entries: dict[int, int] = {}
            trajectory_id = 0
            for _ in range(entry_count):
                delta, start = values[position : position + 2]
                position += 2
                trajectory_id += delta
                entries[trajectory_id] = start
                per_trajectory.setdefault(trajectory_id, []).append(start)
            temporal[interval] = entries
    except (IndexError, ValueError):  # ran off the end of ``values``
        raise SidecarFormatError("truncated temporal section") from None
    if position != len(values):
        raise SidecarFormatError("trailing bytes in temporal section")
    # _build_temporal keeps each trajectory's starts ascending
    for starts in per_trajectory.values():
        starts.sort()
    return temporal, per_trajectory


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def save_index(index: StIUIndex, archive_path) -> Path:
    """Persist ``index`` next to its archive; returns the sidecar path.

    The write is atomic (tmp + ``os.replace``), so a concurrent reader
    never observes a half-written sidecar.
    """
    target = sidecar_path_for(archive_path)
    size, digest = archive_fingerprint(archive_path)
    temporal_blob = zlib.compress(_encode_temporal(index), 6)
    header = _HEADER.pack(
        MAGIC, VERSION, 0, size, digest,
        index.grid.cells_per_side, index.time_partition_seconds,
        index.archive.trajectory_count, len(temporal_blob),
    )
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(header + temporal_blob)
    os.replace(tmp, target)
    return target


def read_sidecar(sidecar_path) -> dict:
    """Parse a sidecar file into its raw parts (strict: raises
    :class:`SidecarFormatError` on any structural problem)."""
    with open(sidecar_path, "rb") as stream:
        data = stream.read()
    if data[:8] != MAGIC:
        raise SidecarFormatError(f"bad magic {data[:8]!r}; not a StIU sidecar")
    if len(data) < _HEADER.size:
        raise SidecarFormatError("truncated sidecar (header)")
    document = dict(zip(_HEADER_FIELDS, _HEADER.unpack_from(data)))
    if document["version"] != VERSION:
        raise SidecarFormatError(
            f"unsupported sidecar version {document['version']} (reader "
            f"supports {VERSION})"
        )
    end = _HEADER.size + document["temporal_bytes"]
    if end != len(data):
        raise SidecarFormatError(
            "truncated sidecar (section)"
            if end > len(data)
            else "trailing bytes after temporal section"
        )
    try:
        document["temporal_blob"] = zlib.decompress(data[_HEADER.size :])
    except zlib.error as error:
        raise SidecarFormatError(f"corrupt deflated section: {error}") from None
    return document


def load_index(
    network,
    archive,
    archive_path,
    *,
    grid_cells_per_side: int = 32,
    time_partition_seconds: int = 1800,
) -> StIUIndex | None:
    """Load a fresh index from the sidecar, or ``None`` to rebuild.

    ``None`` covers every recoverable condition — missing or corrupt
    sidecar, version bump, parameter mismatch, stale archive
    fingerprint — so the caller's fallback is always a plain build.
    """
    try:
        document = read_sidecar(sidecar_path_for(archive_path))
    except (FileNotFoundError, SidecarFormatError):
        return None
    if (
        document["grid_cells_per_side"],
        document["time_partition_seconds"],
        document["trajectory_count"],
        document["archive_size"],
        document["archive_sha256"],
    ) != (
        grid_cells_per_side,
        time_partition_seconds,
        archive.trajectory_count,
        *archive_fingerprint(archive_path),
    ):
        return None
    try:
        temporal, per_trajectory = _decode_temporal(document["temporal_blob"])
    except SidecarFormatError:
        return None
    index = StIUIndex(
        network,
        archive,
        grid_cells_per_side=grid_cells_per_side,
        time_partition_seconds=time_partition_seconds,
        build=False,
    )
    index.temporal = temporal
    index._trajectory_starts.update(per_trajectory)
    index.loaded_from_sidecar = True
    return index


def load_or_build_index(
    network,
    archive,
    archive_path,
    *,
    grid_cells_per_side: int = 32,
    time_partition_seconds: int = 1800,
) -> tuple[StIUIndex, bool]:
    """Load the index from its sidecar, or build it; never ``None``.

    Returns ``(index, from_sidecar)`` — the flag is what the streaming
    tier's sidecar-hit accounting (and its "opens never rebuild" test)
    keys on.  The build fallback covers every recoverable sidecar
    condition :func:`load_index` maps to ``None``.
    """
    index = load_index(
        network,
        archive,
        archive_path,
        grid_cells_per_side=grid_cells_per_side,
        time_partition_seconds=time_partition_seconds,
    )
    if index is not None:
        return index, True
    index = StIUIndex(
        network,
        archive,
        grid_cells_per_side=grid_cells_per_side,
        time_partition_seconds=time_partition_seconds,
    )
    return index, False
