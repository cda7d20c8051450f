"""The ``.utcq`` on-disk archive format (version 3).

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

Version 2 stored each fact once: a probability — a PDDP-decoded value,
so a multiple ``m * 2^-L`` of a small power of two — as its numerator
``m``, with one ``L`` per record (the smallest that serves all its
instances), and the per-trajectory :class:`CompressionStats` not at all
— the header holds their sum, and a parsed record carries
``stats=None``.  Version 3 stores only what a decoder or a query reads:
the bit positions of time deviations, distances and factors and the
per-instance section offsets, kept for resuming a stream partway, are
gone, since every stream is decoded from its start (a non-reference's
reference index is :func:`~repro.core.archive.reference_index_width`
bits wide, which the record's reference flags give).  The encoder
refuses what it cannot store exactly (a probability that is negative,
not finite or finer than ``2^-64``, a trajectory that ends before it
starts, ids out of order) with :class:`ArchiveFormatError`; it never
rounds or reorders.  A version-1 or -2 file is refused by its version
number.

Layout (all integers little-endian; ``uv`` = unsigned LEB128 varint)::

    +--------------------------------------------------------------+
    | magic  "UTCQARC\\0" (8)  | version u16 | flags u16            |
    | params: eta_d f64, eta_p f64, interval u32, symbol_width u16,|
    |         t0_bits u16, pivot_count u32                         |
    | stats: 12 x u64 (original T/E/D/T'/p/overhead bits,          |
    |                  then compressed, same order)                 |
    | provenance: count u32, then (klen u16, key, vlen u16, value) |
    | trajectory_count u32, instance_count u64, directory_bytes u64|
    +--------------------------------------------------------------+
    | directory (directory_bytes), in ascending id order:          |
    |   trajectory_count x (uv id delta, uv record length)         |
    |   trajectory_count x u32 crc32                               |
    +--------------------------------------------------------------+
    | records, back to back in directory order                     |
    +--------------------------------------------------------------+

The first id delta is the id itself; every later one is at least 1.

Record layout: every varint field first, in one run a reader decodes
in a single pass, then the raw payloads the fields describe::

    uv fields_bytes (byte length of the varint fields that follow)
    uv trajectory_id, uv point_count, uv start_time,
    uv end_time - start_time
    uv time_payload_bits
    uv instance_count, uv L (probability bits), then per instance:
        uv flags (bit0 = is_reference, bit1 = has start_vertex,
                  bits 2.. = reference_ordinal)
        [uv start_vertex]  (iff bit1)
        uv payload_bits
        uv probability numerator m  (probability = m / 2**L)
    raw time payload ((time_payload_bits + 7) // 8 bytes), then each
    instance's raw payload ((payload_bits + 7) // 8 bytes), in order
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub
from typing import BinaryIO, Iterable, Sequence

from ..core.archive import (
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
    ComponentBits,
    CompressionParams,
    CompressionStats,
)

MAGIC = b"UTCQARC\x00"
VERSION = 3

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
# a probability is m * 2^-L, m a varint
_MAX_PROBABILITY_BITS = 64

_STATS_FIELDS = (
    "time",
    "edge",
    "distance",
    "flags",
    "probability",
    "overhead",
)


class ArchiveFormatError(Exception):
    """Raised when a file is not a valid version-3 ``.utcq`` archive, or
    when an archive holds something version 3 cannot store exactly.

    ``path`` names the file when the reader that found the problem
    knows it (:func:`read_header` and
    :class:`~repro.io.reader.FileBackedArchive` always do); it is not
    part of the message.
    """

    path: str | None = None


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
# probabilities
# ----------------------------------------------------------------------
def dyadic_numerators(values: Sequence[float]) -> tuple[int, list[int]]:
    """``(L, [m, ...])`` with ``m / 2**L == value`` bit for bit for every
    value, ``L`` the smallest that does it — or an
    :class:`ArchiveFormatError`; a value is never rounded.

    A PDDP-decoded probability has at most ``max_code_length(eta_p)``
    fractional bits (9 at the default bound), and sums and maxima of
    such values no more, so ``m`` is a one- or two-byte varint.
    """
    try:
        ratios = [value.as_integer_ratio() for value in values]
    except (OverflowError, ValueError):  # inf, nan
        ratios = None
    if ratios is not None:
        # the denominators are powers of two: the largest serves them all
        shared = max([den for _, den in ratios], default=1)
        numerators = [num * (shared // den) for num, den in ratios]
        if shared <= 1 << _MAX_PROBABILITY_BITS and (
            not numerators
            or (min(numerators) >= 0 and max(numerators) < _U64_END)
        ):
            return shared.bit_length() - 1, numerators
    raise ArchiveFormatError(
        f"cannot store {tuple(values)} exactly: a stored value is a "
        f"non-negative multiple m * 2^-L with L <= {_MAX_PROBABILITY_BITS} "
        f"and m < 2^64"
    )


def probability_unit(bits: int) -> float:
    """``2^-bits`` for a stored ``L`` (hostile input: checked)."""
    if bits > _MAX_PROBABILITY_BITS:
        raise ArchiveFormatError(
            f"{bits}-bit probabilities; the format stores at most "
            f"{_MAX_PROBABILITY_BITS}"
        )
    return 2.0**-bits


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
    instances = trajectory.instances
    if len(trajectory.time_payload) != (trajectory.time_payload_bits + 7) >> 3:
        raise ArchiveFormatError(
            f"time payload of trajectory {trajectory.trajectory_id} has "
            f"{len(trajectory.time_payload)} bytes for "
            f"{trajectory.time_payload_bits} bits"
        )
    bits, numerators = dyadic_numerators(
        [instance.probability for instance in instances]
    )
    fields = [
        trajectory.trajectory_id,
        trajectory.point_count,
        trajectory.start_time,
        trajectory.end_time - trajectory.start_time,
        trajectory.time_payload_bits,
        len(instances),
        bits,
    ]
    payloads = [trajectory.time_payload]
    for instance, numerator in zip(instances, numerators):
        if len(instance.payload) != (instance.payload_bits + 7) >> 3:
            raise ArchiveFormatError(
                f"instance payload has {len(instance.payload)} bytes for "
                f"{instance.payload_bits} bits"
            )
        payloads.append(instance.payload)
        flags = instance.reference_ordinal << _ORDINAL_SHIFT
        if instance.is_reference:
            flags |= _FLAG_REFERENCE
        if instance.start_vertex is None:
            fields += (flags, instance.payload_bits, numerator)
        else:
            fields += (
                flags | _FLAG_START_VERTEX,
                instance.start_vertex,
                instance.payload_bits,
                numerator,
            )
    body = bytearray()
    try:
        write_uvarints(body, fields)
    except ArchiveFormatError as error:
        raise ArchiveFormatError(
            f"trajectory {trajectory.trajectory_id}: {error} (its end time "
            f"must not precede its start time)"
        ) from None
    head = bytearray()
    write_uvarint(head, len(body))
    return b"".join((head, body, *payloads))


def decode_record_time_span(data: bytes) -> tuple[int, int, int]:
    """``(trajectory_id, start_time, end_time)`` from a record's five
    leading varints, without parsing the rest."""
    (_, trajectory_id, _, start_time, duration), _ = read_uvarints(data, 0, 5)
    return trajectory_id, start_time, start_time + duration


def decode_trajectory_record(data: bytes) -> CompressedTrajectory:
    """Parse one on-disk record back into a compressed trajectory.

    The result carries ``stats=None``: the format keeps the stats in the
    header only.
    """
    fields_bytes, position = read_uvarint(data, 0)
    cursor = position + fields_bytes  # walks the raw payloads
    if cursor > len(data):
        raise ArchiveFormatError("truncated record fields")
    fields = read_uvarint_stream(data[position:cursor])
    try:
        (
            trajectory_id,
            point_count,
            start_time,
            duration,
            time_payload_bits,
            instance_count,
            bits,
        ) = fields[:7]
        position = 7
        unit = probability_unit(bits)
        size = (time_payload_bits + 7) >> 3
        time_payload = bytes(data[cursor : cursor + size])
        cursor += size
        instances = []
        for _ in range(instance_count):
            flags = fields[position]
            start_vertex: int | None = None
            if flags & _FLAG_START_VERTEX:
                position += 1
                start_vertex = fields[position]
            payload_bits, numerator = fields[position + 1 : position + 3]
            position += 3
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
                    probability=numerator * unit,
                )
            )
    except (IndexError, ValueError):  # ran off the end of ``fields``
        raise ArchiveFormatError("truncated record fields") from None
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
    out += struct.pack(f"<{len(records)}I", *map(record_crc, records))
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
            if record_crc(record) != entry.crc32:
                raise CorruptArchiveError(
                    f"CRC mismatch for trajectory {entry.trajectory_id}"
                )
            trajectories.append(decode_trajectory_record(record))
    return CompressedArchive(
        params=header.params, trajectories=trajectories, stats=header.stats
    )
