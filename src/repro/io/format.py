"""The ``.utcq`` on-disk archive format (version 4).

A :class:`~repro.core.archive.CompressedArchive` is written as a small
fixed header followed by a packed per-trajectory directory and one
variable-length record per trajectory.  The directory gives every
record's id, length and CRC-32; byte offsets are the running sum of the
lengths, recomputed at open, so a single trajectory can be loaded
without touching the rest of the file
(:class:`~repro.io.reader.FileBackedArchive` builds on this).

All compressed payloads (SIAR time streams, reference and factor
streams) are stored verbatim — the same bytes :class:`~repro.bits.bitio.
BitWriter` produced at compression time, together with their exact bit
counts — so serialization round-trips bit-for-bit.

Version 4 stores every fact once.  A record holds no copy of what the
file already holds elsewhere:

* its trajectory id is the directory's, and the directory's CRC covers
  it — the CRC-32 of ``uv trajectory_id`` followed by the record — so a
  record read from another entry's slot fails its check;
* its start time and point count are the ``t0`` and the Exp-Golomb
  count its SIAR time payload opens with;
* each instance's probability is the PDDP code its payload opens with
  (:func:`~repro.core.encoder.write_probability`), read at parse time
  from the payload's leading bytes, so pruning still needs no decode.

A record parser therefore takes the id from the directory and the
archive's params (``t0_bits``, ``eta_probability``); the header ends in
a CRC-32 of itself, so a damaged param is refused at open instead of
changing every record it parses.  The per-trajectory
:class:`CompressionStats` are not stored — the header holds their sum,
and a parsed record carries ``stats=None`` — nor are bit positions or
section offsets: every stream is decoded from its start (a
non-reference's reference index is
:func:`~repro.core.archive.reference_index_width` bits wide, which the
record's reference flags give).  The encoder refuses what it cannot
store exactly (a start time, point count or probability its payloads do
not decode to, a trajectory that ends before it starts, ids out of
order) with :class:`ArchiveFormatError`; it never rounds or reorders.
A version-1, -2 or -3 file is refused by its version number.

Layout (all integers little-endian; ``uv`` = unsigned LEB128 varint)::

    +--------------------------------------------------------------+
    | magic  "UTCQARC\\0" (8)  | version u16 | flags u16            |
    | params: eta_d f64, eta_p f64, interval u32, symbol_width u16,|
    |         t0_bits u16, pivot_count u32                         |
    | stats: 12 x u64 (original T/E/D/T'/p/overhead bits,          |
    |                  then compressed, same order)                 |
    | provenance: count u32, then (klen u16, key, vlen u16, value) |
    | trajectory_count u32, instance_count u64, directory_bytes u64|
    | header_crc u32 (CRC-32 of every header byte before it)       |
    +--------------------------------------------------------------+
    | directory (directory_bytes), in ascending id order:          |
    |   trajectory_count x (uv id delta, uv record length)         |
    |   trajectory_count x u32 crc32(uv id + record)               |
    +--------------------------------------------------------------+
    | records, back to back in directory order                     |
    +--------------------------------------------------------------+

The first id delta is the id itself; every later one is at least 1.

Record layout: every varint field first, in one run a reader decodes
in a single pass, then the raw payloads the fields describe::

    uv fields_bytes (byte length of the varint fields that follow)
    uv end_time - start_time
    uv time_payload_bits
    uv instance_count, then per instance:
        uv flags (bit0 = is_reference, bit1 = has start_vertex,
                  bits 2.. = reference_ordinal)
        [uv start_vertex]  (iff bit1)
        uv payload_bits
    raw time payload ((time_payload_bits + 7) // 8 bytes; opens with
        t0 in t0_bits bits, then the point count), then each instance's
        raw payload ((payload_bits + 7) // 8 bytes; opens with its
        probability code), in order
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub
from typing import BinaryIO, Iterable, Sequence

from ..bits.bitio import uint_width
from ..core import siar
from ..core.archive import (
    DECODE_FAILURES,
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
    ComponentBits,
    CompressionParams,
    CompressionStats,
)
from ..core.pddp import leading_probability, max_code_length

MAGIC = b"UTCQARC\x00"
VERSION = 4

_HEAD = struct.Struct("<8sHH")
_PARAMS = struct.Struct("<ddIHHI")
_STATS = struct.Struct("<12Q")
_COUNTS = struct.Struct("<IQQ")
_KVLEN = struct.Struct("<H")
_U32 = struct.Struct("<I")

_FLAG_REFERENCE = 1
_FLAG_START_VERTEX = 2
_ORDINAL_SHIFT = 2

# every varint is a u64: ten bytes, which is where the readers stop
_U64_END = 1 << 64
# a start time is read from the time payload's first t0_bits bits
_MAX_T0_BITS = 64

_STATS_FIELDS = (
    "time",
    "edge",
    "distance",
    "flags",
    "probability",
    "overhead",
)


class ArchiveFormatError(Exception):
    """Raised when a file is not a valid version-4 ``.utcq`` archive, or
    when an archive holds something version 4 cannot store exactly.

    ``path`` names the file when the reader that found the problem
    knows it (:func:`read_header` and
    :class:`~repro.io.reader.FileBackedArchive` always do); it is not
    part of the message.
    """

    path: str | None = None


class CorruptArchiveError(ArchiveFormatError):
    """A structurally valid archive whose stored bytes are damaged.

    Raised when a trajectory record contradicts its directory entry —
    a CRC-32 mismatch (which a record in the wrong slot is too) or a
    short read.  Distinct from :class:`ArchiveFormatError` proper
    (wrong magic/version: the file was never one of ours) so a serving
    tier can quarantine a damaged shard instead of treating it like a
    malformed input.
    """


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    write_uvarints(out, (value,))


def write_uvarints(out: bytearray, values: Iterable[int]) -> None:
    """Append a run of varints, with a one-byte fast path: a record
    costs one call, not one a field."""
    append = out.append
    for value in values:
        if 0 <= value < 0x80:  # the common case: one byte
            append(value)
            continue
        if not 0 <= value < _U64_END:
            raise ArchiveFormatError(f"cannot store {value}: not a u64")
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)


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
    translate it once, instead of checking the bound per byte — so a
    damaged ``count`` costs at most one pass over ``data``.
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


def read_uvarint_stream(data: bytes) -> list[int]:
    """Every varint of ``data``, which holds varints and nothing else (a
    record's fields, a ``.stiu`` section): one pass, no call per field."""
    values = []
    append = values.append
    value = 0
    shift = 0
    for byte in data:
        if byte < 0x80:
            append(value | (byte << shift) if shift else byte)
            value = 0
            shift = 0
        else:
            value |= (byte & 0x7F) << shift
            shift += 7
            if shift >= 70:  # ten bytes hold any u64
                raise ArchiveFormatError("varint too long")
    if shift:
        raise ArchiveFormatError("truncated varint")
    return values


def deltas(values: Sequence[int]) -> Iterable[int]:
    """``values[0]``, then each successive difference
    (``itertools.accumulate`` is the inverse).  A descending list gives
    a negative difference, which the varint writers refuse."""
    return map(sub, values, (0, *values))


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
def _probability_code_widths(params: CompressionParams) -> tuple[int, int]:
    """``(length field bits, longest code)`` of a payload's probability."""
    longest = max_code_length(params.eta_probability)
    return uint_width(longest), longest


def encode_trajectory_record(
    trajectory: CompressedTrajectory, params: CompressionParams
) -> bytes:
    """Serialize one compressed trajectory to its on-disk record.

    The record leaves out what its payloads hold (see the module
    docstring), so a trajectory whose ``start_time``, ``point_count`` or
    an instance ``probability`` differs from what its payloads decode to
    is refused: the format stores nothing it would read back changed.
    """
    trajectory_id = trajectory.trajectory_id
    instances = trajectory.instances
    if len(trajectory.time_payload) != (trajectory.time_payload_bits + 7) >> 3:
        raise ArchiveFormatError(
            f"time payload of trajectory {trajectory_id} has "
            f"{len(trajectory.time_payload)} bytes for "
            f"{trajectory.time_payload_bits} bits"
        )
    try:
        time_head = siar.read_head(
            trajectory.time_payload,
            trajectory.time_payload_bits,
            t0_bits=params.t0_bits,
        )
    except DECODE_FAILURES:
        time_head = None
    if time_head != (trajectory.start_time, trajectory.point_count):
        raise ArchiveFormatError(
            f"trajectory {trajectory_id}: start time {trajectory.start_time} "
            f"and point count {trajectory.point_count} are not what its time "
            f"payload opens with ({time_head})"
        )
    length_bits, longest = _probability_code_widths(params)
    fields = [
        trajectory.end_time - trajectory.start_time,
        trajectory.time_payload_bits,
        len(instances),
    ]
    payloads = [trajectory.time_payload]
    for index, instance in enumerate(instances):
        if len(instance.payload) != (instance.payload_bits + 7) >> 3:
            raise ArchiveFormatError(
                f"instance payload has {len(instance.payload)} bytes for "
                f"{instance.payload_bits} bits"
            )
        try:
            probability = leading_probability(
                instance.payload, instance.payload_bits, length_bits, longest
            )
        except ValueError as error:
            raise ArchiveFormatError(
                f"trajectory {trajectory_id}: instance {index}: {error}"
            ) from None
        if probability != instance.probability:
            raise ArchiveFormatError(
                f"trajectory {trajectory_id}: instance {index} has "
                f"probability {instance.probability!r}, its payload's code "
                f"{probability!r}"
            )
        payloads.append(instance.payload)
        flags = instance.reference_ordinal << _ORDINAL_SHIFT
        if instance.is_reference:
            flags |= _FLAG_REFERENCE
        if instance.start_vertex is None:
            fields += (flags, instance.payload_bits)
        else:
            fields += (
                flags | _FLAG_START_VERTEX,
                instance.start_vertex,
                instance.payload_bits,
            )
    body = bytearray()
    try:
        write_uvarints(body, fields)
    except ArchiveFormatError as error:
        raise ArchiveFormatError(
            f"trajectory {trajectory_id}: {error} (its end time must not "
            f"precede its start time)"
        ) from None
    head = bytearray()
    write_uvarint(head, len(body))
    return b"".join((head, body, *payloads))


def decode_record_time_span(data: bytes, t0_bits: int) -> tuple[int, int]:
    """``(start_time, end_time)`` of a record, from its duration (the
    first field) and the ``t0`` its time payload opens with, without
    parsing the rest."""
    fields_bytes, position = read_uvarint(data, 0)
    duration, _ = read_uvarint(data, position)
    start = position + fields_bytes
    size = (t0_bits + 7) >> 3
    head = data[start : start + size]
    if len(head) != size:
        raise ArchiveFormatError("truncated record (time payload)")
    start_time = int.from_bytes(head, "big") >> ((size << 3) - t0_bits)
    return start_time, start_time + duration


def decode_trajectory_record(
    data: bytes, trajectory_id: int, params: CompressionParams
) -> CompressedTrajectory:
    """Parse one on-disk record, stored under ``trajectory_id`` in an
    archive compressed with ``params``, back into a compressed trajectory.

    The start time and point count come from the time payload's head,
    each probability from its payload's leading code.  The result
    carries ``stats=None``: the format keeps the stats in the header
    only.
    """
    fields_bytes, position = read_uvarint(data, 0)
    cursor = position + fields_bytes  # walks the raw payloads
    if cursor > len(data):
        raise ArchiveFormatError("truncated record fields")
    fields = read_uvarint_stream(data[position:cursor])
    if len(fields) < 3:
        raise ArchiveFormatError("truncated record fields")
    duration, time_payload_bits, instance_count = fields[:3]
    position = 3
    size = (time_payload_bits + 7) >> 3
    time_payload = bytes(data[cursor : cursor + size])
    cursor += size
    length_bits, longest = _probability_code_widths(params)
    instances = []
    try:
        for index in range(instance_count):
            flags = fields[position]
            start_vertex: int | None = None
            if flags & _FLAG_START_VERTEX:
                position += 1
                start_vertex = fields[position]
            payload_bits = fields[position + 1]
            position += 2
            size = (payload_bits + 7) >> 3
            payload = bytes(data[cursor : cursor + size])
            cursor += size
            instances.append(
                CompressedInstance(
                    is_reference=bool(flags & _FLAG_REFERENCE),
                    payload=payload,
                    payload_bits=payload_bits,
                    start_vertex=start_vertex,
                    reference_ordinal=flags >> _ORDINAL_SHIFT,
                    probability=leading_probability(
                        payload, payload_bits, length_bits, longest
                    ),
                )
            )
    except IndexError:  # ran off the end of ``fields``
        raise ArchiveFormatError("truncated record fields") from None
    except ValueError as error:  # the probability code
        raise ArchiveFormatError(
            f"trajectory {trajectory_id}: instance {index}: {error}"
        ) from None
    if position != len(fields):
        raise ArchiveFormatError(
            f"trailing fields in record of trajectory {trajectory_id}"
        )
    # a short payload slice leaves the cursor past the end
    if cursor != len(data):
        raise ArchiveFormatError(
            f"record of trajectory {trajectory_id} has {len(data)} bytes, "
            f"its fields say {cursor}"
        )
    try:
        start_time, point_count = siar.read_head(
            time_payload, time_payload_bits, t0_bits=params.t0_bits
        )
    except DECODE_FAILURES as error:
        raise ArchiveFormatError(
            f"trajectory {trajectory_id}: time payload: {error}"
        ) from None
    return CompressedTrajectory(
        trajectory_id=trajectory_id,
        time_payload=time_payload,
        time_payload_bits=time_payload_bits,
        point_count=point_count,
        start_time=start_time,
        end_time=start_time + duration,
        instances=instances,
    )


# ----------------------------------------------------------------------
# header + directory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DirectoryEntry:
    """Where one trajectory record lives (``offset`` is derived: the
    running sum of the stored lengths)."""

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
    directory_bytes: int,
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
    blob += _COUNTS.pack(trajectory_count, instance_count, directory_bytes)
    blob += _U32.pack(zlib.crc32(blob) & 0xFFFFFFFF)
    out.write(bytes(blob))
    return len(blob)


def encode_directory(
    trajectory_ids: Sequence[int], records: Sequence[bytes]
) -> bytes:
    """The packed directory of ``records`` (see the module docstring)."""
    id_deltas = list(deltas(trajectory_ids))
    if id_deltas and (id_deltas[0] < 0 or min(id_deltas[1:], default=1) < 1):
        raise ArchiveFormatError(
            f"trajectory ids must be unique and ascending, got "
            f"{tuple(trajectory_ids)}"
        )
    out = bytearray()
    write_uvarints(
        out,
        (
            value
            for pair in zip(id_deltas, map(len, records))
            for value in pair
        ),
    )
    out += struct.pack(
        f"<{len(records)}I", *map(record_crc, trajectory_ids, records)
    )
    return bytes(out)


def decode_directory(
    blob: bytes, count: int, first_offset: int
) -> list[DirectoryEntry]:
    """Parse the packed directory of ``count`` records, the first of
    which starts at byte ``first_offset`` of the file."""
    fields, position = read_uvarints(blob, 0, 2 * count)
    if len(blob) - position != _U32.size * count:
        raise ArchiveFormatError(
            f"directory of {count} records has {len(blob) - position} "
            f"CRC bytes"
        )
    id_deltas = fields[0::2]
    if 0 in id_deltas[1:]:
        raise ArchiveFormatError("directory ids do not ascend")
    lengths = fields[1::2]
    return list(
        map(
            DirectoryEntry,
            accumulate(id_deltas),
            accumulate(lengths[:-1], initial=first_offset),
            lengths,
            struct.unpack_from(f"<{count}I", blob, position),
        )
    )


def read_header(stream: BinaryIO) -> ArchiveHeader:
    """Read and validate the header + directory from ``stream`` (at 0).
    An :class:`ArchiveFormatError` names the stream's file as ``path``."""
    try:
        return _read_header(stream)
    except ArchiveFormatError as error:
        error.path = getattr(stream, "name", None)
        raise


def _read_header(stream: BinaryIO) -> ArchiveHeader:
    crc = 0  # of every header byte read so far

    def take(size: int, what: str) -> bytes:
        nonlocal crc
        data = stream.read(size)
        if len(data) != size:
            raise ArchiveFormatError(f"truncated archive ({what})")
        crc = zlib.crc32(data, crc)
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
    stats = _stats_from_values(_STATS.unpack(take(_STATS.size, "stats")))
    (provenance_count,) = _U32.unpack(take(_U32.size, "provenance count"))
    provenance: dict[str, str] = {}
    try:
        for _ in range(provenance_count):
            (key_length,) = _KVLEN.unpack(take(_KVLEN.size, "provenance key"))
            key = take(key_length, "provenance key").decode("utf-8")
            (value_length,) = _KVLEN.unpack(
                take(_KVLEN.size, "provenance value")
            )
            provenance[key] = take(value_length, "provenance value").decode(
                "utf-8"
            )
    except UnicodeDecodeError as error:
        raise ArchiveFormatError(f"provenance is not UTF-8: {error}") from None
    trajectory_count, instance_count, directory_bytes = _COUNTS.unpack(
        take(_COUNTS.size, "counts")
    )
    header_crc = crc & 0xFFFFFFFF
    if _U32.unpack(take(_U32.size, "header CRC"))[0] != header_crc:
        raise CorruptArchiveError("header CRC mismatch")
    # records parse with the params: a crafted header is refused too
    try:
        for eta in (eta_distance, eta_probability):
            max_code_length(eta)
    except ValueError as error:
        raise ArchiveFormatError(f"bad params: {error}") from None
    if t0_bits > _MAX_T0_BITS:
        raise ArchiveFormatError(
            f"bad params: a {t0_bits}-bit start time; at most {_MAX_T0_BITS}"
        )
    params = CompressionParams(
        eta_distance=eta_distance,
        eta_probability=eta_probability,
        default_interval=default_interval,
        symbol_width=symbol_width,
        t0_bits=t0_bits,
        pivot_count=pivot_count,
    )
    # directory_bytes and the record lengths size reads: hold both to
    # the file's real size before trusting them
    directory_start = stream.tell()
    file_size = stream.seek(0, os.SEEK_END)
    stream.seek(directory_start)
    if directory_bytes > file_size - directory_start:
        raise ArchiveFormatError("truncated archive (directory)")
    directory = decode_directory(
        take(directory_bytes, "directory"),
        trajectory_count,
        directory_start + directory_bytes,
    )
    if directory and directory[-1].offset + directory[-1].length > file_size:
        raise CorruptArchiveError(
            "truncated archive: its records extend past the end of the file"
        )
    return ArchiveHeader(
        version=version,
        params=params,
        stats=stats,
        provenance=provenance,
        trajectory_count=trajectory_count,
        instance_count=instance_count,
        directory=directory,
    )


def record_crc(trajectory_id: int, record: bytes) -> int:
    """The directory's check of ``record`` stored under ``trajectory_id``:
    the CRC-32 of ``uv trajectory_id`` followed by the record, so a
    record read from another entry's slot fails it."""
    prefix = bytearray()
    write_uvarint(prefix, trajectory_id)
    return zlib.crc32(record, zlib.crc32(prefix)) & 0xFFFFFFFF


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
        encode_trajectory_record(trajectory, archive.params)
        for trajectory in archive.trajectories
    ]
    directory = encode_directory(
        [trajectory.trajectory_id for trajectory in archive.trajectories],
        records,
    )
    with open(path, "wb") as out:
        size = write_header(
            out,
            archive.params,
            archive.stats,
            provenance,
            len(records),
            archive.instance_count,
            len(directory),
        )
        out.write(directory)
        out.write(b"".join(records))
    return size + len(directory) + sum(map(len, records))


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
            if record_crc(entry.trajectory_id, record) != entry.crc32:
                raise CorruptArchiveError(
                    f"CRC mismatch for trajectory {entry.trajectory_id}"
                )
            trajectories.append(
                decode_trajectory_record(
                    record, entry.trajectory_id, header.params
                )
            )
    return CompressedArchive(
        params=header.params, trajectories=trajectories, stats=header.stats
    )
