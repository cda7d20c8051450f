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
depend on the time interval, so version 2 writes them once and the
loader enters the one shared :class:`RegionEntry` under every interval
from the first active one to ``first + extra``; the span must agree with
the trajectory's temporal tuples, which bounds the fan-out of a damaged
count.  ``p_total`` / ``p_max`` are sums and maxima of PDDP-decoded
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
from .stiu import (
    NonReferenceTuple,
    ReferenceTuple,
    RegionEntry,
    StIUIndex,
    TemporalTuple,
)

MAGIC = b"UTCQSTIU"
VERSION = 2

_HEAD = struct.Struct("<8sHH")
_FINGERPRINT = struct.Struct("<Q32s")
_PARAMS = struct.Struct("<II")
_COUNTS = struct.Struct("<Q")
_SECTIONS = struct.Struct("<QQ")

SIDECAR_SUFFIX = ".stiu"


class SidecarFormatError(Exception):
    """Raised when a file is not a valid version-2 ``.stiu`` sidecar, or
    when an index holds something version 2 cannot store."""


def sidecar_path_for(archive_path) -> Path:
    """Default sidecar location: the archive path plus ``.stiu``."""
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


def _regions_by_trajectory(
    index: StIUIndex,
) -> list[tuple[int, int, int, list[tuple[int, RegionEntry]]]]:
    """``(trajectory_id, first interval, last interval, [(region,
    entry), ...])`` in id and region order, checked: the format stores a
    trajectory's regions once, so they must be the same under every
    interval of one unbroken span."""
    spatial = index.spatial
    found: dict[int, list] = {}
    for interval in sorted(spatial):
        for region, entry_map in spatial[interval].items():
            for trajectory_id, entry in entry_map.items():
                state = found.get(trajectory_id)
                if state is None:
                    # first interval, last interval, (interval, region)
                    # pairs seen, regions
                    state = found[trajectory_id] = [interval, interval, 0, {}]
                if state[0] == interval:
                    state[3][region] = entry
                elif state[3].get(region) != entry:
                    raise SidecarFormatError(
                        f"trajectory {trajectory_id} has different tuples "
                        f"for region {region} in intervals {state[0]} and "
                        f"{interval}"
                    )
                state[1] = interval
                state[2] += 1
    for trajectory_id, (first, last, pairs, regions) in found.items():
        # every pair matched a region of the first interval, so the
        # count is complete only if no interval or region is missing
        if pairs != len(regions) * (last - first + 1):
            raise SidecarFormatError(
                f"trajectory {trajectory_id} does not have the same regions "
                f"in every interval from {first} to {last}"
            )
    return [
        (trajectory_id, first, last, sorted(regions.items()))
        for trajectory_id, (first, last, _, regions) in sorted(found.items())
    ]


def _encode_spatial(index: StIUIndex) -> bytes:
    by_trajectory = _regions_by_trajectory(index)
    # one L for the section; the few distinct aggregates recur
    distinct = list(
        {
            probability
            for _, _, _, regions in by_trajectory
            for _, entry in regions
            for reference in entry.references
            for probability in (reference.p_total, reference.p_max)
        }
    )
    bits, numerators = dyadic_numerators(distinct)
    numerator = dict(zip(distinct, numerators))
    values = [len(by_trajectory), bits]
    previous_id = 0
    for trajectory_id, first, last, regions in by_trajectory:
        values += (trajectory_id - previous_id, first, last - first, len(regions))
        previous_id = trajectory_id
        previous_region = 0
        for region, entry in regions:
            values += (region - previous_region, len(entry.references))
            previous_region = region
            for reference in entry.references:
                values += (
                    reference.instance_index,
                    reference.final_vertex + 1,
                    reference.entry_number,
                    reference.distance_position,
                    numerator[reference.p_total],
                    numerator[reference.p_max],
                )
            values.append(len(entry.non_references))
            for non_reference in entry.non_references:
                values += (
                    non_reference.instance_index,
                    non_reference.anchor_vertex,
                    non_reference.anchor_number,
                    non_reference.factor_position,
                )
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
) -> dict[int, dict[int, dict[int, RegionEntry]]]:
    """Fan the per-trajectory section back out to
    ``spatial[interval][region][trajectory]``.

    ``spans`` is each trajectory's ``(first, last)`` interval according
    to the temporal layer; a stored span that disagrees is damage, and
    the check is what bounds the fan-out.
    """
    values = _section_values(data, "spatial")
    spatial: dict[int, dict[int, dict[int, RegionEntry]]] = {}
    try:
        trajectory_count, bits = values[:2]
        unit = probability_unit(bits)
        position = 2
        trajectory_id = 0
        for _ in range(trajectory_count):
            delta, first, extra, region_count = values[position : position + 4]
            position += 4
            trajectory_id += delta
            if spans.get(trajectory_id) != (first, first + extra):
                raise SidecarFormatError(
                    f"trajectory {trajectory_id} spans intervals {first} to "
                    f"{first + extra} in the spatial section but "
                    f"{spans.get(trajectory_id)} in the temporal one"
                )
            interval_maps = [
                spatial.setdefault(interval, {})
                for interval in range(first, first + extra + 1)
            ]
            region = 0
            for _ in range(region_count):
                delta, count = values[position : position + 2]
                position += 2
                region += delta
                entry = RegionEntry()
                for _ in range(count):
                    (
                        instance_index,
                        shifted_vertex,
                        entry_number,
                        distance_position,
                        p_total,
                        p_max,
                    ) = values[position : position + 6]
                    position += 6
                    entry.references.append(
                        ReferenceTuple(
                            instance_index,
                            # 0 encodes fv = inf (INFINITE_VERTEX == -1)
                            shifted_vertex - 1,
                            entry_number,
                            distance_position,
                            p_total * unit,
                            p_max * unit,
                        )
                    )
                count = values[position]
                position += 1
                for _ in range(count):
                    (
                        instance_index,
                        anchor_vertex,
                        anchor_number,
                        factor_position,
                    ) = values[position : position + 4]
                    position += 4
                    entry.non_references.append(
                        NonReferenceTuple(
                            instance_index,
                            anchor_vertex,
                            anchor_number,
                            factor_position,
                        )
                    )
                for interval_map in interval_maps:
                    interval_map.setdefault(region, {})[trajectory_id] = entry
    except ArchiveFormatError as error:
        raise SidecarFormatError(f"spatial section: {error}") from None
    except (IndexError, ValueError):  # ran off the end of ``values``
        raise SidecarFormatError("truncated spatial section") from None
    if position != len(values):
        raise SidecarFormatError("trailing bytes in spatial section")
    return spatial


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def save_index(
    index: StIUIndex, archive_path, *, sidecar_path=None
) -> Path:
    """Persist ``index`` next to its archive; returns the sidecar path.

    The write is atomic (tmp + ``os.replace``), so a concurrent reader
    never observes a half-written sidecar.
    """
    target = (
        sidecar_path_for(archive_path)
        if sidecar_path is None
        else Path(sidecar_path)
    )
    size, digest = archive_fingerprint(archive_path)
    temporal_blob = zlib.compress(_encode_temporal(index), 6)
    spatial_blob = zlib.compress(_encode_spatial(index), 6)
    blob = bytearray()
    blob += _HEAD.pack(MAGIC, VERSION, 0)
    blob += _FINGERPRINT.pack(size, digest)
    blob += _PARAMS.pack(
        index.grid.cells_per_side, index.time_partition_seconds
    )
    blob += _COUNTS.pack(index.archive.trajectory_count)
    blob += _SECTIONS.pack(len(temporal_blob), len(spatial_blob))
    blob += temporal_blob
    blob += spatial_blob
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as out:
        out.write(bytes(blob))
    os.replace(tmp, target)
    return target


def read_sidecar(sidecar_path) -> dict:
    """Parse a sidecar file into its raw parts (strict: raises
    :class:`SidecarFormatError` on any structural problem)."""
    with open(sidecar_path, "rb") as stream:
        data = stream.read()

    def take(offset: int, size: int, what: str) -> bytes:
        if offset + size > len(data):
            raise SidecarFormatError(f"truncated sidecar ({what})")
        return data[offset : offset + size]

    offset = 0
    magic, version, _flags = _HEAD.unpack(take(offset, _HEAD.size, "magic"))
    offset += _HEAD.size
    if magic != MAGIC:
        raise SidecarFormatError(f"bad magic {magic!r}; not a StIU sidecar")
    if version != VERSION:
        raise SidecarFormatError(
            f"unsupported sidecar version {version} (reader supports "
            f"{VERSION})"
        )
    archive_size, archive_sha = _FINGERPRINT.unpack(
        take(offset, _FINGERPRINT.size, "fingerprint")
    )
    offset += _FINGERPRINT.size
    cells_per_side, time_partition = _PARAMS.unpack(
        take(offset, _PARAMS.size, "params")
    )
    offset += _PARAMS.size
    (trajectory_count,) = _COUNTS.unpack(take(offset, _COUNTS.size, "counts"))
    offset += _COUNTS.size
    temporal_bytes, spatial_bytes = _SECTIONS.unpack(
        take(offset, _SECTIONS.size, "sections")
    )
    offset += _SECTIONS.size
    temporal_deflated = take(offset, temporal_bytes, "temporal section")
    offset += temporal_bytes
    spatial_deflated = take(offset, spatial_bytes, "spatial section")
    offset += spatial_bytes
    if offset != len(data):
        raise SidecarFormatError("trailing bytes after spatial section")
    try:
        temporal_blob = zlib.decompress(temporal_deflated)
        spatial_blob = zlib.decompress(spatial_deflated)
    except zlib.error as error:
        raise SidecarFormatError(f"corrupt deflated section: {error}") from None
    return {
        "archive_size": archive_size,
        "archive_sha256": archive_sha,
        "grid_cells_per_side": cells_per_side,
        "time_partition_seconds": time_partition,
        "trajectory_count": trajectory_count,
        "temporal_blob": temporal_blob,
        "spatial_blob": spatial_blob,
    }


def load_index(
    network,
    archive,
    archive_path,
    *,
    sidecar_path=None,
    grid_cells_per_side: int = 32,
    time_partition_seconds: int = 1800,
) -> StIUIndex | None:
    """Load a fresh index from the sidecar, or ``None`` to rebuild.

    ``None`` covers every recoverable condition — missing or corrupt
    sidecar, version bump, parameter mismatch, stale archive
    fingerprint — so the caller's fallback is always a plain build.
    """
    target = (
        sidecar_path_for(archive_path)
        if sidecar_path is None
        else Path(sidecar_path)
    )
    try:
        document = read_sidecar(target)
    except (FileNotFoundError, SidecarFormatError):
        return None
    if document["grid_cells_per_side"] != grid_cells_per_side:
        return None
    if document["time_partition_seconds"] != time_partition_seconds:
        return None
    if document["trajectory_count"] != archive.trajectory_count:
        return None
    size, digest = archive_fingerprint(archive_path)
    if (size, digest) != (
        document["archive_size"],
        document["archive_sha256"],
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
    sidecar_path=None,
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
        sidecar_path=sidecar_path,
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
