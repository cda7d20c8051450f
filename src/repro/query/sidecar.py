"""Persistent StIU index: the versioned ``.stiu`` sidecar format.

Rebuilding the StIU index on every archive open decodes every
trajectory's time stream and factor spans — by far the dominant cost of
``repro query`` on a warm archive.  The sidecar persists the finished
index structures next to the archive (``<archive>.stiu``), written once
at compress/compact time and loaded in milliseconds afterwards.

Layout (all integers little-endian; ``uv`` = unsigned LEB128 varint,
shared with :mod:`repro.io.format`)::

    +--------------------------------------------------------------+
    | magic "UTCQSTIU" (8) | version u16 | flags u16               |
    | archive_size u64 | archive_sha256 (32 raw bytes)             |
    | grid_cells_per_side u32 | time_partition_seconds u32         |
    | trajectory_count u64                                         |
    | temporal_bytes u64 | spatial_bytes u64                       |
    Both sections are zlib-deflated on disk (``temporal_bytes`` /
    ``spatial_bytes`` count the compressed form); the structures below
    describe the inflated streams, which are varints and nothing else.

    +--------------------------------------------------------------+
    | temporal section:                                            |
    |   uv interval_count, then per interval (ascending):          |
    |     uv interval, uv entry_count, then per entry (ascending   |
    |     trajectory id):                                          |
    |       uv id delta, uv t.start, uv t.no, uv t.pos             |
    +--------------------------------------------------------------+
    | spatial section:                                             |
    |   uv trajectory_count, uv L (probability bits),              |
    |   then per trajectory (ascending id):                        |
    |     uv id delta, uv first active interval,                   |
    |     uv extra-interval count, uv region_count,                |
    |     then per region (ascending cell):                        |
    |       uv cell delta                                          |
    |       uv n_references, then per reference:                   |
    |         uv instance_index, uv final_vertex + 1 (0 = inf),    |
    |         uv fv.no, uv d.pos, uv p_total numerator,            |
    |         uv p_max numerator                                   |
    |       uv n_non_references, then per non-reference:           |
    |         uv instance_index, uv rv.id, uv rv.no, uv ma.pos     |
    +--------------------------------------------------------------+

An id or cell delta is the difference from the previous one in its list
(the first is the value itself).  A trajectory's region tuples do not
depend on the time interval, so version 2 writes them once, exactly as
:class:`~repro.query.stiu.SpatialLayer` keeps them in memory: the loader
appends each trajectory's block to the columns, and the block stands
for every interval from the first active one to ``first + extra``.  The
span must agree with the trajectory's temporal tuples, which bounds the
fan-out of a damaged count, and every count is checked against the
values left in the section before anything is read for it.
``p_total`` / ``p_max`` are sums and maxima of PDDP-decoded
probabilities, so they are exact multiples of a small ``2^-L`` and are
stored as that numerator, under the one smallest ``L`` that serves the
section (:func:`repro.io.format.dyadic_numerators`).

Staleness: the header pins the archive's byte size and SHA-256.  A
mismatch (the archive was rewritten, recompressed, or replaced) makes
:func:`load_index` return ``None`` so the caller rebuilds; the same
happens for a version bump or different index parameters.  The temporal
section is parsed eagerly (every query needs it); the spatial section
is retained as raw bytes and materialized on first spatial lookup, so
a purely temporal query never pays for it.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from pathlib import Path

from ..io.format import (
    ArchiveFormatError,
    dyadic_numerators,
    probability_unit,
    read_uvarint_stream,
    write_uvarints,
)
from .stiu import SpatialLayer, StIUIndex, TemporalTuple, between

MAGIC = b"UTCQSTIU"
VERSION = 2

# the fixed header, in the order of the layout above
_HEADER = struct.Struct("<8sHHQ32sIIQQQ")
_HEADER_FIELDS = (
    "magic version flags archive_size archive_sha256 grid_cells_per_side "
    "time_partition_seconds trajectory_count temporal_bytes spatial_bytes"
).split()

SIDECAR_SUFFIX = ".stiu"


class SidecarFormatError(Exception):
    """Raised when a file is not a valid version-2 ``.stiu`` sidecar, or
    when an index holds something version 2 cannot store."""


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
            entry = entries[trajectory_id]
            values += (
                trajectory_id - previous,
                entry.start,
                entry.number,
                entry.bit_position,
            )
            previous = trajectory_id
    out = bytearray()
    write_uvarints(out, values)
    return bytes(out)


def _encode_spatial(index: StIUIndex) -> bytes:
    layer = index.spatial
    references, non_references = layer.references, layer.non_references
    # one L for the section; the few distinct aggregates recur
    distinct = list(set(references[4]) | set(references[5]))
    bits, numerators = dyadic_numerators(distinct)
    numerator = dict(zip(distinct, numerators))
    ids = layer.trajectory_ids
    values = [len(ids), bits]
    previous_id = 0
    for block in sorted(range(len(ids)), key=ids.__getitem__):
        rows = between(layer.region_start, block)
        first = layer.first_interval[block]
        last = layer.last_interval[block]
        values += (ids[block] - previous_id, first, last - first, len(rows))
        previous_id = ids[block]
        previous_region = 0
        for row in rows:
            tuples = between(layer.reference_start, row)
            values += (layer.cells[row] - previous_region, len(tuples))
            previous_region = layer.cells[row]
            for k in tuples:
                values += (
                    references[0][k],
                    references[1][k] + 1,
                    references[2][k],
                    references[3][k],
                    numerator[references[4][k]],
                    numerator[references[5][k]],
                )
            tuples = between(layer.non_reference_start, row)
            values.append(len(tuples))
            for k in tuples:
                values += (column[k] for column in non_references)
    out = bytearray()
    write_uvarints(out, values)
    return bytes(out)


def _section_values(data: bytes, what: str) -> list[int]:
    try:
        return read_uvarint_stream(data)
    except ArchiveFormatError as error:
        raise SidecarFormatError(f"{what} section: {error}") from None


def _decode_temporal(
    data: bytes,
) -> tuple[dict[int, dict[int, TemporalTuple]], dict[int, list[TemporalTuple]]]:
    values = _section_values(data, "temporal")
    temporal: dict[int, dict[int, TemporalTuple]] = {}
    per_trajectory: dict[int, list[TemporalTuple]] = {}
    try:
        position = 1
        for _ in range(values[0]):
            interval, entry_count = values[position : position + 2]
            position += 2
            entries: dict[int, TemporalTuple] = {}
            trajectory_id = 0
            for _ in range(entry_count):
                delta, start, number, bit_position = values[
                    position : position + 4
                ]
                position += 4
                trajectory_id += delta
                entry = TemporalTuple(start, number, bit_position)
                entries[trajectory_id] = entry
                per_trajectory.setdefault(trajectory_id, []).append(entry)
            temporal[interval] = entries
    except (IndexError, ValueError):  # ran off the end of ``values``
        raise SidecarFormatError("truncated temporal section") from None
    if position != len(values):
        raise SidecarFormatError("trailing bytes in temporal section")
    # _build_temporal appends tuples in timestamp order; restore it
    for tuples in per_trajectory.values():
        tuples.sort(key=lambda entry: (entry.start, entry.number))
    return temporal, per_trajectory


def _decode_spatial(
    data: bytes, spans: dict[int, tuple[int, int]]
) -> SpatialLayer:
    """Fill the spatial columns from the section in one pass.

    ``spans`` is each trajectory's ``(first, last)`` interval according
    to the temporal layer; a stored span that disagrees is damage, and
    the check is what bounds the fan-out of the derived CSR.  Each count
    is checked against the values left in the section before anything
    is read for it, so a forged count costs nothing.
    """
    values = _section_values(data, "spatial")
    layer = SpatialLayer()
    instance, vertex, entry, distance, p_total, p_max = layer.references
    position = 2

    def counted(count: int, width: int, what: str) -> int:
        if count * width > len(values) - position:
            raise SidecarFormatError(
                f"spatial section: {what} count {count} exceeds the "
                f"{len(values) - position} values left"
            )
        return count

    try:
        trajectory_count, bits = values[:2]
        unit = probability_unit(bits)
        trajectory_id = 0
        for block in range(counted(trajectory_count, 4, "trajectory")):
            delta, first, extra, region_count = values[position : position + 4]
            position += 4
            if block and not delta:
                raise SidecarFormatError(
                    f"trajectory {trajectory_id} is listed twice"
                )
            trajectory_id += delta
            if spans.get(trajectory_id) != (first, first + extra):
                raise SidecarFormatError(
                    f"trajectory {trajectory_id} spans intervals {first} to "
                    f"{first + extra} in the spatial section but "
                    f"{spans.get(trajectory_id)} in the temporal one"
                )
            layer.trajectory_ids.append(trajectory_id)
            layer.first_interval.append(first)
            layer.last_interval.append(first + extra)
            region = 0
            for ordinal in range(counted(region_count, 3, "region")):
                delta, count = values[position : position + 2]
                position += 2
                if ordinal and not delta:
                    raise SidecarFormatError(
                        f"trajectory {trajectory_id} lists region {region} "
                        f"twice"
                    )
                region += delta
                layer.cells.append(region)
                end = position + 6 * counted(count, 6, "reference")
                tuples, position = values[position:end], end
                instance.extend(tuples[0::6])
                # 0 encodes fv = inf (INFINITE_VERTEX == -1)
                vertex.extend([v - 1 for v in tuples[1::6]])
                entry.extend(tuples[2::6])
                distance.extend(tuples[3::6])
                p_total.extend([v * unit for v in tuples[4::6]])
                p_max.extend([v * unit for v in tuples[5::6]])
                layer.reference_start.append(len(instance))
                count = values[position]
                position += 1
                end = position + 4 * counted(count, 4, "non-reference")
                for field, column in enumerate(layer.non_references):
                    column.extend(values[position + field : end : 4])
                position = end
                layer.non_reference_start.append(len(layer.non_references[0]))
            layer.region_start.append(len(layer.cells))
    except ArchiveFormatError as error:
        raise SidecarFormatError(f"spatial section: {error}") from None
    except (IndexError, ValueError):  # ran off the end of ``values``
        raise SidecarFormatError("truncated spatial section") from None
    except OverflowError:  # a value wider than its column
        raise SidecarFormatError("spatial section: value too wide") from None
    if position != len(values):
        raise SidecarFormatError("trailing bytes in spatial section")
    return layer


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
    spatial_blob = zlib.compress(_encode_spatial(index), 6)
    header = _HEADER.pack(
        MAGIC, VERSION, 0, size, digest,
        index.grid.cells_per_side, index.time_partition_seconds,
        index.archive.trajectory_count, len(temporal_blob), len(spatial_blob),
    )
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(header + temporal_blob + spatial_blob)
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
    split = _HEADER.size + document["temporal_bytes"]
    end = split + document["spatial_bytes"]
    if end != len(data):
        raise SidecarFormatError(
            "truncated sidecar (sections)"
            if end > len(data)
            else "trailing bytes after spatial section"
        )
    try:
        document["temporal_blob"] = zlib.decompress(data[_HEADER.size : split])
        document["spatial_blob"] = zlib.decompress(data[split:])
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
    index._trajectory_tuples = per_trajectory
    spatial_blob = document["spatial_blob"]

    def load_spatial():
        # (no reference to ``index``: the loader must not keep it alive)
        spans = {
            trajectory_id: (
                tuples[0].start // time_partition_seconds,
                tuples[-1].start // time_partition_seconds,
            )
            for trajectory_id, tuples in per_trajectory.items()
        }
        return _decode_spatial(spatial_blob, spans)

    index._spatial_loader = load_spatial
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
