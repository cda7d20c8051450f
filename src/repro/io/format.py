"""The ``.utcq`` on-disk archive format (version 1).

A :class:`~repro.core.archive.CompressedArchive` is written as a small
fixed header followed by a per-trajectory directory and one variable-
length record per trajectory.  The directory stores absolute byte
offsets, so a single trajectory can be loaded without touching the rest
of the file (:class:`~repro.io.reader.FileBackedArchive` builds on this).

All compressed payloads (SIAR time streams, reference and factor
streams) are stored verbatim — the same bytes :class:`~repro.bits.bitio.
BitWriter` produced at compression time, together with their exact bit
counts — so serialization round-trips bit-for-bit and every StIU offset
(``t.pos``, ``d.pos``, ``ma.pos``, the per-instance section offsets)
remains valid against the on-disk stream.

Layout (all integers little-endian)::

    +--------------------------------------------------------------+
    | magic  "UTCQARC\\0" (8)  | version u16 | flags u16            |
    | params: eta_d f64, eta_p f64, interval u32, symbol_width u16,|
    |         t0_bits u16, pivot_count u32                         |
    | stats: 12 x u64 (original T/E/D/T'/p/overhead bits,          |
    |                  then compressed, same order)                 |
    | provenance: count u32, then (klen u16, key, vlen u16, value) |
    | trajectory_count u32, instance_count u64                     |
    +--------------------------------------------------------------+
    | directory: trajectory_count x 32-byte entries                |
    |   trajectory_id u64 | offset u64 | length u64 | crc32 u32 |  |
    |   reserved u32                                               |
    +--------------------------------------------------------------+
    | records (one per trajectory, LEB128 varints + raw payloads)  |
    +--------------------------------------------------------------+

Record layout (``uv`` = unsigned LEB128 varint)::

    uv trajectory_id, uv point_count, uv start_time, uv end_time
    uv time_payload_bits, raw time payload ((bits + 7) // 8 bytes)
    uv n_deviation_positions, n x uv
    12 x uv (the trajectory's CompressionStats, header order)
    uv instance_count, then per instance:
        u8 flags (bit0 = is_reference, bit1 = has start_vertex)
        [uv start_vertex]  (iff bit1)
        uv reference_ordinal
        uv payload_bits, raw payload
        uv edge_offset, uv flags_offset, uv distance_offset,
        uv probability_offset
        uv n_distance_positions, n x uv
        uv n_factor_positions, n x uv
        f64 probability
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

from ..core.archive import (
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
    ComponentBits,
    CompressionParams,
    CompressionStats,
)

MAGIC = b"UTCQARC\x00"
VERSION = 1

_HEAD = struct.Struct("<8sHH")
_PARAMS = struct.Struct("<ddIHHI")
_STATS = struct.Struct("<12Q")
_COUNTS = struct.Struct("<IQ")
_DIRENT = struct.Struct("<QQQII")
_KVLEN = struct.Struct("<H")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

DIRECTORY_ENTRY_SIZE = _DIRENT.size

_FLAG_REFERENCE = 1
_FLAG_START_VERTEX = 2

_STATS_FIELDS = (
    "time",
    "edge",
    "distance",
    "flags",
    "probability",
    "overhead",
)


class ArchiveFormatError(Exception):
    """Raised when a file is not a valid version-1 ``.utcq`` archive."""


class CorruptArchiveError(ArchiveFormatError):
    """A structurally valid archive whose stored bytes are damaged.

    Raised when a trajectory record contradicts its directory entry —
    CRC-32 mismatch, short read, or a record carrying the wrong
    trajectory id.  Distinct from :class:`ArchiveFormatError` proper
    (wrong magic/version: the file was never one of ours) so a serving
    tier can quarantine a damaged shard instead of treating it like a
    malformed input.
    """


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise ArchiveFormatError(f"cannot store negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, position: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns ``(value, new_position)``."""
    value = 0
    shift = 0
    try:
        while True:
            byte = data[position]
            position += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value, position
            shift += 7
            if shift >= 70:  # ten bytes hold any u64
                raise ArchiveFormatError("varint too long")
    except IndexError:
        raise ArchiveFormatError("truncated varint") from None


def read_uvarints(
    data: bytes, position: int, count: int
) -> tuple[list[int], int]:
    """Read ``count`` consecutive varints; returns ``(values, new_position)``.

    :func:`read_uvarint` unrolled over a run, with a one-byte fast path:
    a record costs a handful of calls instead of one per field.  Both
    let the byte fetch's ``IndexError`` signal the end of ``data`` and
    translate it once, instead of checking the bound per byte.
    """
    values = []
    append = values.append
    try:
        for _ in range(count):
            byte = data[position]
            position += 1
            if byte < 0x80:  # the common case: one byte
                append(byte)
                continue
            value = byte & 0x7F
            shift = 7
            while True:
                byte = data[position]
                position += 1
                value |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift >= 70:  # ten bytes hold any u64
                    raise ArchiveFormatError("varint too long")
            append(value)
    except IndexError:
        raise ArchiveFormatError("truncated varint") from None
    return values, position


def _write_uvarint_seq(out: bytearray, values: tuple[int, ...]) -> None:
    write_uvarint(out, len(values))
    for value in values:
        write_uvarint(out, value)


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def _stats_values(stats: CompressionStats) -> list[int]:
    return [getattr(stats.original, name) for name in _STATS_FIELDS] + [
        getattr(stats.compressed, name) for name in _STATS_FIELDS
    ]


def _stats_from_values(values: Sequence[int]) -> CompressionStats:
    original = ComponentBits(*values[:6])
    compressed = ComponentBits(*values[6:12])
    return CompressionStats(original=original, compressed=compressed)


# ----------------------------------------------------------------------
# trajectory records
# ----------------------------------------------------------------------
def encode_trajectory_record(trajectory: CompressedTrajectory) -> bytes:
    """Serialize one compressed trajectory to its on-disk record."""
    out = bytearray()
    write_uvarint(out, trajectory.trajectory_id)
    write_uvarint(out, trajectory.point_count)
    write_uvarint(out, trajectory.start_time)
    write_uvarint(out, trajectory.end_time)
    payload_bytes = (trajectory.time_payload_bits + 7) // 8
    if len(trajectory.time_payload) != payload_bytes:
        raise ArchiveFormatError(
            f"time payload of trajectory {trajectory.trajectory_id} has "
            f"{len(trajectory.time_payload)} bytes for "
            f"{trajectory.time_payload_bits} bits"
        )
    write_uvarint(out, trajectory.time_payload_bits)
    out += trajectory.time_payload
    _write_uvarint_seq(out, trajectory.deviation_positions)
    for value in _stats_values(trajectory.stats):
        write_uvarint(out, value)
    write_uvarint(out, len(trajectory.instances))
    for instance in trajectory.instances:
        _encode_instance(out, instance)
    return bytes(out)


def _encode_instance(out: bytearray, instance: CompressedInstance) -> None:
    flags = 0
    if instance.is_reference:
        flags |= _FLAG_REFERENCE
    if instance.start_vertex is not None:
        flags |= _FLAG_START_VERTEX
    out.append(flags)
    if instance.start_vertex is not None:
        write_uvarint(out, instance.start_vertex)
    write_uvarint(out, instance.reference_ordinal)
    payload_bytes = (instance.payload_bits + 7) // 8
    if len(instance.payload) != payload_bytes:
        raise ArchiveFormatError(
            f"instance payload has {len(instance.payload)} bytes for "
            f"{instance.payload_bits} bits"
        )
    write_uvarint(out, instance.payload_bits)
    out += instance.payload
    write_uvarint(out, instance.edge_offset)
    write_uvarint(out, instance.flags_offset)
    write_uvarint(out, instance.distance_offset)
    write_uvarint(out, instance.probability_offset)
    _write_uvarint_seq(out, instance.distance_positions)
    _write_uvarint_seq(out, instance.factor_positions)
    out += _F64.pack(instance.probability)


def decode_record_time_span(data: bytes) -> tuple[int, int, int]:
    """``(trajectory_id, start_time, end_time)`` from a record's four
    leading varints, without parsing the rest."""
    (trajectory_id, _, start_time, end_time), _ = read_uvarints(data, 0, 4)
    return trajectory_id, start_time, end_time


def decode_trajectory_record(data: bytes) -> CompressedTrajectory:
    """Parse one on-disk record back into a compressed trajectory."""
    (
        trajectory_id,
        point_count,
        start_time,
        end_time,
        time_payload_bits,
    ), position = read_uvarints(data, 0, 5)
    payload_bytes = (time_payload_bits + 7) // 8
    time_payload = bytes(data[position : position + payload_bytes])
    if len(time_payload) != payload_bytes:
        raise ArchiveFormatError("truncated time payload")
    position += payload_bytes
    count, position = read_uvarint(data, position)
    deviation_positions, position = read_uvarints(data, position, count)
    # the 12 stats fields, then the instance count
    values, position = read_uvarints(data, position, 13)
    instance_count = values.pop()
    instances = []
    for _ in range(instance_count):
        instance, position = _decode_instance(data, position)
        instances.append(instance)
    if position != len(data):
        raise ArchiveFormatError(
            f"trailing bytes in record of trajectory {trajectory_id}"
        )
    return CompressedTrajectory(
        trajectory_id=trajectory_id,
        time_payload=time_payload,
        time_payload_bits=time_payload_bits,
        point_count=point_count,
        start_time=start_time,
        end_time=end_time,
        deviation_positions=tuple(deviation_positions),
        instances=instances,
        stats=_stats_from_values(values),
    )


def _decode_instance(
    data: bytes, position: int
) -> tuple[CompressedInstance, int]:
    if position >= len(data):
        raise ArchiveFormatError("truncated instance record")
    flags = data[position]
    start_vertex: int | None = None
    if flags & _FLAG_START_VERTEX:
        (start_vertex, reference_ordinal, payload_bits), position = (
            read_uvarints(data, position + 1, 3)
        )
    else:
        (reference_ordinal, payload_bits), position = read_uvarints(
            data, position + 1, 2
        )
    payload_bytes = (payload_bits + 7) // 8
    payload = bytes(data[position : position + payload_bytes])
    if len(payload) != payload_bytes:
        raise ArchiveFormatError("truncated instance payload")
    # the four section offsets, then the distance-position count
    (
        edge_offset,
        flags_offset,
        distance_offset,
        probability_offset,
        count,
    ), position = read_uvarints(data, position + payload_bytes, 5)
    distance_positions, position = read_uvarints(data, position, count)
    count, position = read_uvarint(data, position)
    factor_positions, position = read_uvarints(data, position, count)
    if position + _F64.size > len(data):
        raise ArchiveFormatError("truncated instance probability")
    (probability,) = _F64.unpack_from(data, position)
    instance = CompressedInstance(
        is_reference=bool(flags & _FLAG_REFERENCE),
        payload=payload,
        payload_bits=payload_bits,
        start_vertex=start_vertex,
        reference_ordinal=reference_ordinal,
        edge_offset=edge_offset,
        flags_offset=flags_offset,
        distance_offset=distance_offset,
        probability_offset=probability_offset,
        distance_positions=tuple(distance_positions),
        factor_positions=tuple(factor_positions),
        probability=probability,
    )
    return instance, position + _F64.size


# ----------------------------------------------------------------------
# header + directory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DirectoryEntry:
    """One fixed-size directory slot: where a trajectory record lives."""

    trajectory_id: int
    offset: int
    length: int
    crc32: int


@dataclass
class ArchiveHeader:
    """Everything before the records: params, stats, provenance, directory."""

    version: int
    params: CompressionParams
    stats: CompressionStats
    provenance: dict[str, str]
    trajectory_count: int
    instance_count: int
    directory: list[DirectoryEntry] = field(default_factory=list)


def write_header(
    out: BinaryIO,
    params: CompressionParams,
    stats: CompressionStats,
    provenance: dict[str, str],
    trajectory_count: int,
    instance_count: int,
) -> int:
    """Write everything up to (excluding) the directory; returns byte size."""
    blob = bytearray()
    blob += _HEAD.pack(MAGIC, VERSION, 0)
    blob += _PARAMS.pack(
        params.eta_distance,
        params.eta_probability,
        params.default_interval,
        params.symbol_width,
        params.t0_bits,
        params.pivot_count,
    )
    blob += _STATS.pack(*_stats_values(stats))
    blob += _U32.pack(len(provenance))
    for key, value in provenance.items():
        key_bytes = key.encode("utf-8")
        value_bytes = value.encode("utf-8")
        blob += _KVLEN.pack(len(key_bytes)) + key_bytes
        blob += _KVLEN.pack(len(value_bytes)) + value_bytes
    blob += _COUNTS.pack(trajectory_count, instance_count)
    out.write(bytes(blob))
    return len(blob)


def write_directory(out: BinaryIO, entries: list[DirectoryEntry]) -> None:
    for entry in entries:
        out.write(
            _DIRENT.pack(
                entry.trajectory_id, entry.offset, entry.length, entry.crc32, 0
            )
        )


def read_header(stream: BinaryIO) -> ArchiveHeader:
    """Read and validate the header + directory from ``stream`` (at 0)."""

    def take(size: int, what: str) -> bytes:
        data = stream.read(size)
        if len(data) != size:
            raise ArchiveFormatError(f"truncated archive ({what})")
        return data

    magic, version, _flags = _HEAD.unpack(take(_HEAD.size, "magic"))
    if magic != MAGIC:
        raise ArchiveFormatError(
            f"bad magic {magic!r}; not a UTCQ archive"
        )
    if version != VERSION:
        raise ArchiveFormatError(
            f"unsupported archive version {version} (reader supports {VERSION})"
        )
    (
        eta_distance,
        eta_probability,
        default_interval,
        symbol_width,
        t0_bits,
        pivot_count,
    ) = _PARAMS.unpack(take(_PARAMS.size, "params"))
    params = CompressionParams(
        eta_distance=eta_distance,
        eta_probability=eta_probability,
        default_interval=default_interval,
        symbol_width=symbol_width,
        t0_bits=t0_bits,
        pivot_count=pivot_count,
    )
    stats = _stats_from_values(_STATS.unpack(take(_STATS.size, "stats")))
    (provenance_count,) = _U32.unpack(take(_U32.size, "provenance count"))
    provenance: dict[str, str] = {}
    for _ in range(provenance_count):
        (key_length,) = _KVLEN.unpack(take(_KVLEN.size, "provenance key"))
        key = take(key_length, "provenance key").decode("utf-8")
        (value_length,) = _KVLEN.unpack(take(_KVLEN.size, "provenance value"))
        provenance[key] = take(value_length, "provenance value").decode("utf-8")
    trajectory_count, instance_count = _COUNTS.unpack(
        take(_COUNTS.size, "counts")
    )
    directory = []
    for _ in range(trajectory_count):
        trajectory_id, offset, length, crc, _reserved = _DIRENT.unpack(
            take(_DIRENT.size, "directory")
        )
        directory.append(DirectoryEntry(trajectory_id, offset, length, crc))
    return ArchiveHeader(
        version=version,
        params=params,
        stats=stats,
        provenance=provenance,
        trajectory_count=trajectory_count,
        instance_count=instance_count,
        directory=directory,
    )


def record_crc(record: bytes) -> int:
    return zlib.crc32(record) & 0xFFFFFFFF


def write_archive(
    archive: CompressedArchive,
    path,
    *,
    provenance: dict[str, str] | None = None,
) -> int:
    """Serialize ``archive`` to ``path``; returns the file size in bytes.

    ``provenance`` is an optional string-to-string map recorded in the
    header — the CLI stores the generating dataset profile/seed there so
    ``query``/``decompress`` can rebuild the matching road network.
    """
    provenance = dict(provenance or {})
    records = [
        encode_trajectory_record(trajectory)
        for trajectory in archive.trajectories
    ]
    with open(path, "wb") as out:
        header_size = write_header(
            out,
            archive.params,
            archive.stats,
            provenance,
            len(records),
            archive.instance_count,
        )
        offset = header_size + DIRECTORY_ENTRY_SIZE * len(records)
        entries = []
        for trajectory, record in zip(archive.trajectories, records):
            entries.append(
                DirectoryEntry(
                    trajectory.trajectory_id,
                    offset,
                    len(record),
                    record_crc(record),
                )
            )
            offset += len(record)
        write_directory(out, entries)
        for record in records:
            out.write(record)
    return offset


def read_archive(path) -> CompressedArchive:
    """Eagerly read a whole archive back into memory.

    Verifies every record CRC; for lazy access use
    :class:`~repro.io.reader.FileBackedArchive` instead.
    """
    with open(path, "rb") as stream:
        header = read_header(stream)
        trajectories = []
        for entry in header.directory:
            stream.seek(entry.offset)
            record = stream.read(entry.length)
            if len(record) != entry.length:
                raise CorruptArchiveError(
                    f"truncated record for trajectory {entry.trajectory_id}"
                )
            if record_crc(record) != entry.crc32:
                raise CorruptArchiveError(
                    f"CRC mismatch for trajectory {entry.trajectory_id}"
                )
            trajectories.append(decode_trajectory_record(record))
    return CompressedArchive(
        params=header.params, trajectories=trajectories, stats=header.stats
    )
