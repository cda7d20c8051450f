"""On-disk format tests: bit-exact round trips and lazy loading."""

import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bits import BitWriter, expgolomb
from repro.core import UTCQCompressor, decode_trajectory
from repro.core.decoder import DecodeSpanCache
from repro.core.encoder import write_probability
from repro.core.archive import (
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
    CompressionParams,
)
from repro.core.pddp import leading_probability, max_code_length
from repro.io import (
    ArchiveFormatError,
    CorruptArchiveError,
    FileBackedArchive,
    read_archive,
    read_header,
    write_archive,
)
from repro.io.format import (
    decode_directory,
    decode_record_time_span,
    decode_trajectory_record,
    encode_directory,
    encode_trajectory_record,
    read_uvarint,
    read_uvarint_stream,
    read_uvarints,
    write_uvarint,
    write_uvarints,
)
from repro.trajectories.datasets import CD, load_dataset


@pytest.fixture(scope="module")
def cd_data():
    return load_dataset("CD", 25, seed=21, network_scale=12)


@pytest.fixture(scope="module")
def cd_archive(cd_data):
    network, trajectories = cd_data
    compressor = UTCQCompressor(
        network=network, default_interval=CD.default_interval, pivot_count=1
    )
    return compressor.compress(trajectories)


@pytest.fixture()
def archive_path(cd_archive, tmp_path):
    path = tmp_path / "cd.utcq"
    write_archive(cd_archive, path, provenance={"profile": "CD", "k": "v"})
    return path


class TestVarints:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 2**21, 2**63, 2**64 - 1]
    )
    def test_round_trip(self, value):
        out = bytearray()
        write_uvarint(out, value)
        decoded, position = read_uvarint(bytes(out), 0)
        assert decoded == value
        assert position == len(out)

    def test_negative_rejected(self):
        """...and so is anything past a u64: the readers stop at ten bytes."""
        for value in (-1, 2**64):
            with pytest.raises(ArchiveFormatError):
                write_uvarint(bytearray(), value)
            with pytest.raises(ArchiveFormatError):
                write_uvarints(bytearray(), [3, value])

    def test_truncated_rejected(self):
        out = bytearray()
        write_uvarint(out, 300)
        with pytest.raises(ArchiveFormatError):
            read_uvarint(bytes(out[:-1]), 0)


    def test_eleven_byte_varint_rejected(self):
        """Ten bytes hold any u64; an eleventh is a damaged stream, not
        a bigger number."""
        overlong = b"\x80" * 10 + b"\x01"
        with pytest.raises(ArchiveFormatError, match="varint too long"):
            read_uvarint(overlong, 0)
        with pytest.raises(ArchiveFormatError, match="varint too long"):
            read_uvarints(b"\x05" + overlong, 0, 2)
        with pytest.raises(ArchiveFormatError, match="varint too long"):
            decode_trajectory_record(overlong, 0, PARAMS)

    def test_run_reader_matches_single_reader(self):
        values = [0, 1, 127, 128, 300, 2**21, 2**63, 2**64 - 1, 5]
        out = bytearray(b"\xff")  # a run need not start at 0
        for value in values:
            write_uvarint(out, value)
        run = bytearray(b"\xff")
        write_uvarints(run, values)
        assert run == out
        assert read_uvarints(bytes(out), 1, len(values)) == (values, len(out))
        assert read_uvarints(bytes(out), 1, 0) == ([], 1)
        assert read_uvarint_stream(bytes(out[1:])) == values
        assert read_uvarint_stream(b"") == []
        with pytest.raises(ArchiveFormatError, match="truncated"):
            read_uvarints(bytes(out), 1, len(values) + 1)
        with pytest.raises(ArchiveFormatError, match="truncated"):
            read_uvarint_stream(bytes(out[1:-1]) + b"\x80")
        with pytest.raises(ArchiveFormatError, match="varint too long"):
            read_uvarint_stream(b"\x80" * 10 + b"\x01")


#: what the generated records below are written with: a 17-bit t0 and
#: probability codes of at most 9 bits behind a 4-bit length field
PARAMS = CompressionParams(
    eta_distance=2.0**-7,
    eta_probability=2.0**-9,
    default_interval=10,
    symbol_width=3,
)


def _code(length: int, code: int, *, eta: float = PARAMS.eta_probability):
    """A payload holding one probability code, as its writer packs it."""
    writer = BitWriter()
    writer.write_uint(length, (max_code_length(eta)).bit_length())
    writer.write_uint(code, length)
    return writer.getvalue(), len(writer)


def _leading(payload: bytes, bits: int, eta: float) -> float:
    longest = max_code_length(eta)
    return leading_probability(payload, bits, longest.bit_length(), longest)


class TestProbabilityNumerators:
    """A probability is stored once, as the PDDP code ``m * 2^-L`` its
    payload opens with; the record parser reads it from the payload's
    leading bytes, and gets the same float the writer decoded."""

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_every_numerator_round_trips(self, bits):
        eta = 2.0 ** -(bits + 1)  # every m / 2^bits is then exact
        for numerator in range(1, 2**bits):
            value = numerator / 2**bits
            writer = BitWriter()
            _, decoded = write_probability(writer, value, eta)
            writer.write_uint(numerator, bits)  # what follows the code
            assert decoded == value
            assert _leading(writer.getvalue(), len(writer), eta).hex() == (
                value.hex()
            )

    def test_the_smallest_power_serves(self):
        """The stored code is the shortest one: an odd numerator over
        ``2^L`` takes exactly ``L`` code bits, whatever the payload's
        bit count."""
        eta = 2.0**-10  # m / 2^9 is then exact
        width = max_code_length(eta).bit_length()
        for value, length in ((0.5, 1), (0.25, 2), (0.75, 2), (3 / 512, 9)):
            writer = BitWriter()
            bits, decoded = write_probability(writer, value, eta)
            assert (bits, decoded) == (width + length, value)
            payload = writer.getvalue()
            assert _leading(payload, bits, eta) == value
            with pytest.raises(ValueError, match="runs past"):
                _leading(payload, bits - 1, eta)

    @pytest.mark.parametrize(
        "value", [-0.5, float("nan"), float("inf"), 2.0**-65, 2.0**64]
    )
    def test_what_cannot_be_stored_exactly_is_refused(self, value, cd_archive):
        """A probability that is not its payload's code is refused at
        write, never rounded to it."""
        trajectory = cd_archive.trajectories[0]
        bad = _with(
            trajectory,
            instances=[
                _with(trajectory.instances[0], probability=value),
                *trajectory.instances[1:],
            ],
        )
        with pytest.raises(ArchiveFormatError, match="probability"):
            encode_trajectory_record(bad, cd_archive.params)

    def test_damaged_bit_count_is_typed(self):
        """A length field past ``max_code_length(eta_p)``, or a code that
        decodes to 0, is a typed error at parse."""
        longest = max_code_length(PARAMS.eta_probability)
        for payload, bits in (_code(longest + 1, 1), _code(3, 0), _code(0, 0)):
            with pytest.raises(ValueError):
                _leading(payload, bits, PARAMS.eta_probability)
        record = encode_trajectory_record(_sample_trajectory(), PARAMS)
        # the instance payload is the record's last byte pair: its length
        # field, then the code
        for damaged_head in (0xA0, 0x00):  # length 10 > 9; length 0
            damaged = record[:-2] + bytes([damaged_head]) + record[-1:]
            with pytest.raises(ArchiveFormatError, match="instance 0"):
                decode_trajectory_record(damaged, 5, PARAMS)


def _sample_trajectory() -> CompressedTrajectory:
    """One trajectory of one instance: t0 = 40000, two points, p = 0.5."""
    time = BitWriter()
    time.write_uint(40000, PARAMS.t0_bits)
    expgolomb.encode_unsigned(time, 2)
    expgolomb.encode(time, 0)
    payload, payload_bits = _code(1, 1)
    payload += b"\x00"
    return CompressedTrajectory(
        trajectory_id=5,
        time_payload=time.getvalue(),
        time_payload_bits=len(time),
        point_count=2,
        start_time=40000,
        end_time=40010,
        instances=[
            CompressedInstance(
                is_reference=True,
                payload=payload,
                payload_bits=payload_bits + 8,
                start_vertex=7,
                reference_ordinal=0,
                probability=0.5,
            )
        ],
    )


# What the version-4 encoder can emit: a time payload that opens with
# t0 and the point count, instance payloads that open with their
# probability code, a start time no later than the end time, and (for a
# whole archive) unique ascending ids.
_u64 = st.one_of(st.integers(0, 127), st.integers(0, 2**64 - 1))
_tails = st.lists(st.integers(0, 1), max_size=64)


def _finish(writer: BitWriter, tail) -> tuple[bytes, int]:
    writer.write_bits(tail)
    return writer.getvalue(), len(writer)


@st.composite
def _instances(draw):
    writer = BitWriter()
    _, probability = write_probability(
        writer, draw(st.floats(0.0, 1.0)), PARAMS.eta_probability
    )
    payload, payload_bits = _finish(writer, draw(_tails))
    return CompressedInstance(
        is_reference=draw(st.booleans()),
        payload=payload,
        payload_bits=payload_bits,
        start_vertex=draw(st.none() | _u64),
        # shares the flags varint with two flag bits
        reference_ordinal=draw(st.integers(0, 2**62 - 1)),
        probability=probability,
    )


@st.composite
def _trajectories(draw):
    start_time = draw(st.integers(0, 2**PARAMS.t0_bits - 1))
    point_count = draw(_u64)
    writer = BitWriter()
    writer.write_uint(start_time, PARAMS.t0_bits)
    expgolomb.encode_unsigned(writer, point_count)
    payload, payload_bits = _finish(writer, draw(_tails))
    return CompressedTrajectory(
        trajectory_id=draw(_u64),
        time_payload=payload,
        time_payload_bits=payload_bits,
        point_count=point_count,
        start_time=start_time,
        end_time=start_time + draw(_u64),
        instances=draw(st.lists(_instances(), max_size=4)),
    )


def _with(target, **changes):
    return type(target)(**{**vars(target), **changes})


def _time_span_end(record: bytes) -> int:
    """The byte where the ``t0`` a time-span read needs ends."""
    fields_bytes, position = read_uvarint(record, 0)
    return position + fields_bytes + (PARAMS.t0_bits + 7) // 8


class TestRecordRoundTrip:
    def test_every_trajectory_record(self, cd_archive):
        params = cd_archive.params
        for trajectory in cd_archive.trajectories:
            record = encode_trajectory_record(trajectory, params)
            assert decode_trajectory_record(
                record, trajectory.trajectory_id, params
            ) == trajectory

    @settings(max_examples=200, deadline=None)
    @given(trajectory=_trajectories())
    def test_generated_records_round_trip_both_ways(self, trajectory):
        """Any field values, not just what the compressor emits: payloads
        that hold only their leading codes, multi-byte varints
        everywhere, no instances."""
        record = encode_trajectory_record(trajectory, PARAMS)
        decoded = decode_trajectory_record(
            record, trajectory.trajectory_id, PARAMS
        )
        assert decoded == trajectory
        assert encode_trajectory_record(decoded, PARAMS) == record
        assert decode_record_time_span(record, PARAMS.t0_bits) == (
            trajectory.start_time,
            trajectory.end_time,
        )

    @settings(max_examples=100, deadline=None)
    @given(trajectory=_trajectories(), instance=_instances(), data=st.data())
    def test_what_the_format_cannot_hold_is_refused_at_write(
        self, trajectory, instance, data
    ):
        """Anything outside the strategies above is an error when the
        record is written — never a rounded value or a wrapped one, and
        never a field that differs from what its payload decodes to."""
        bad_probability = data.draw(
            st.sampled_from([-0.25, float("nan"), float("inf"), 2.0**-70])
        )
        bad_instances = [
            _with(instance, reference_ordinal=2**62),
            _with(instance, probability=bad_probability),
            _with(instance, probability=instance.probability / 2),
            _with(instance, payload_bits=instance.payload_bits + 8),
        ]
        bad_trajectories = [
            _with(trajectory, instances=[*trajectory.instances, bad])
            for bad in bad_instances
        ] + [
            _with(trajectory, end_time=trajectory.start_time - 1),
            _with(trajectory, start_time=trajectory.start_time + 1),
            _with(trajectory, point_count=trajectory.point_count + 1),
            _with(trajectory, point_count=-1),
        ]
        for bad in bad_trajectories:
            with pytest.raises(ArchiveFormatError):
                encode_trajectory_record(bad, PARAMS)

    def test_a_field_its_payload_contradicts_is_refused(self, cd_archive):
        """The record stores the start time, point count and
        probabilities only in the payloads, so a trajectory whose fields
        disagree with them cannot be written."""
        params = cd_archive.params
        trajectory = cd_archive.trajectories[0]
        instance = trajectory.instances[0]
        for bad, field in (
            (_with(trajectory, start_time=trajectory.start_time + 1),
             "start time"),
            (_with(trajectory, point_count=trajectory.point_count - 1),
             "point count"),
            (_with(trajectory, instances=[
                _with(instance, probability=instance.probability + 2.0**-20),
                *trajectory.instances[1:],
            ]), "probability"),
        ):
            with pytest.raises(ArchiveFormatError, match=field):
                encode_trajectory_record(bad, params)

    def test_every_truncation_point_is_a_format_error(self, cd_archive):
        """A cut record never leaks the parser's IndexError (or a
        struct.error), and never parses; a time span needs the record
        up to its ``t0``."""
        params = cd_archive.params
        for trajectory in cd_archive.trajectories[:5]:
            record = encode_trajectory_record(trajectory, params)
            for cut in range(len(record)):
                with pytest.raises(ArchiveFormatError):
                    decode_trajectory_record(
                        record[:cut], trajectory.trajectory_id, params
                    )
            for cut in range(_time_span_end(record)):
                with pytest.raises(ArchiveFormatError):
                    decode_record_time_span(record[:cut], params.t0_bits)

    def test_every_flipped_byte_parses_or_is_a_format_error(self, cd_archive):
        """Past the CRC (a collision) a damaged record either parses to
        some trajectory or raises the typed error, in time linear in the
        record: no count is trusted.  The same holds for a time span."""
        params = cd_archive.params
        for trajectory in cd_archive.trajectories[:5]:
            record = encode_trajectory_record(trajectory, params)
            for offset in range(len(record)):
                for mask in (0x01, 0x40, 0x80, 0xFF):
                    damaged = bytearray(record)
                    damaged[offset] ^= mask
                    try:
                        decode_trajectory_record(
                            bytes(damaged), trajectory.trajectory_id, params
                        )
                    except ArchiveFormatError:
                        pass
                    try:
                        decode_record_time_span(bytes(damaged), params.t0_bits)
                    except ArchiveFormatError:
                        pass


class TestArchiveRoundTrip:
    def test_bit_exact(self, cd_archive, archive_path):
        back = read_archive(archive_path)
        assert back.params == cd_archive.params
        # dataclass equality covers payload bytes, bit counts, offsets,
        # positions and probabilities — the full bit-exactness claim; the
        # stats live in the header only
        assert back.trajectories == cd_archive.trajectories
        assert all(t.stats is None for t in back.trajectories)
        assert back.stats.original == cd_archive.stats.original
        assert back.stats.compressed == cd_archive.stats.compressed

    def test_save_load_methods(self, cd_archive, tmp_path):
        path = tmp_path / "via_methods.utcq"
        size = cd_archive.save(path)
        assert size == path.stat().st_size
        assert CompressedArchive.load(path).trajectories == (
            cd_archive.trajectories
        )

    def test_header_counts_and_provenance(self, cd_archive, archive_path):
        with open(archive_path, "rb") as stream:
            header = read_header(stream)
        assert header.trajectory_count == cd_archive.trajectory_count
        assert header.instance_count == cd_archive.instance_count
        assert header.provenance == {"profile": "CD", "k": "v"}

    def test_decoded_data_survives(self, cd_data, cd_archive, archive_path):
        network, _ = cd_data
        back = read_archive(archive_path)
        for original, restored in zip(
            cd_archive.trajectories, back.trajectories
        ):
            a = decode_trajectory(network, original, cd_archive.params)
            b = decode_trajectory(network, restored, back.params)
            assert a.times == b.times
            assert [i.path for i in a.instances] == [
                i.path for i in b.instances
            ]


class TestCorruption:
    def test_bad_magic(self, archive_path, tmp_path):
        data = bytearray(archive_path.read_bytes())
        data[0] ^= 0xFF
        bad = tmp_path / "bad_magic.utcq"
        bad.write_bytes(bytes(data))
        with pytest.raises(ArchiveFormatError, match="magic"):
            read_archive(bad)

    def test_bad_version(self, archive_path, tmp_path):
        data = bytearray(archive_path.read_bytes())
        data[8] = 0xFF  # version low byte
        bad = tmp_path / "bad_version.utcq"
        bad.write_bytes(bytes(data))
        with pytest.raises(ArchiveFormatError, match="version"):
            read_archive(bad)

    def test_record_corruption_caught_by_crc(self, archive_path, tmp_path):
        data = bytearray(archive_path.read_bytes())
        data[-1] ^= 0xFF  # inside the last record
        bad = tmp_path / "bad_crc.utcq"
        bad.write_bytes(bytes(data))
        with pytest.raises(ArchiveFormatError, match="CRC"):
            read_archive(bad)

    def test_damaged_bytes_raise_the_corruption_subtype(
        self, archive_path, tmp_path
    ):
        """Damaged stored bytes (vs a malformed file) carry their own
        exception type, which the serving tier keys quarantine on."""
        from repro.io import CorruptArchiveError
        from repro.io.reader import FileBackedArchive

        data = bytearray(archive_path.read_bytes())
        data[-1] ^= 0xFF
        bad = tmp_path / "bad_crc_typed.utcq"
        bad.write_bytes(bytes(data))
        with pytest.raises(CorruptArchiveError):
            read_archive(bad)
        # the lazy per-record reader agrees
        with FileBackedArchive.open(bad) as archive:
            last_id = archive.trajectory_ids()[-1]
            with pytest.raises(CorruptArchiveError):
                archive.trajectory(last_id)

    def test_truncation(self, archive_path, tmp_path):
        data = archive_path.read_bytes()
        bad = tmp_path / "truncated.utcq"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArchiveFormatError):
            read_archive(bad)


class TestHeaderAndDirectoryDamage:
    """The bytes no record CRC covers: header and packed directory."""

    def test_directory_round_trip(self):
        records = [b"a", b"bc" * 100, b"", b"def"]
        ids = [0, 1, 300, 2**64 - 1]
        blob = encode_directory(ids, records)
        entries = decode_directory(blob, len(records), 1000)
        assert [e.trajectory_id for e in entries] == ids
        assert [e.length for e in entries] == [1, 200, 0, 3]
        assert [e.offset for e in entries] == [1000, 1001, 1201, 1201]
        assert decode_directory(encode_directory([], []), 0, 7) == []

    @pytest.mark.parametrize("ids", [[3, 3], [5, 4], [0, 7, 7], [-1, 2]])
    def test_ids_that_do_not_ascend_are_refused_at_write(
        self, ids, cd_archive, tmp_path
    ):
        with pytest.raises(ArchiveFormatError):
            encode_directory(ids, [b"x"] * len(ids))
        trajectories = [
            _with(trajectory, trajectory_id=trajectory_id)
            for trajectory, trajectory_id in zip(cd_archive.trajectories, ids)
        ]
        with pytest.raises(ArchiveFormatError):
            write_archive(
                CompressedArchive(cd_archive.params, trajectories),
                tmp_path / "unordered.utcq",
            )

    def test_every_truncation_point_is_a_format_error(self, archive_path):
        """Cut anywhere — header, directory, records — the open fails
        with the typed error; a cut inside the records is damage."""
        data = archive_path.read_bytes()
        records_start = read_header(io.BytesIO(data)).directory[0].offset
        for cut in range(len(data)):
            with pytest.raises(ArchiveFormatError) as caught:
                read_header(io.BytesIO(data[:cut]))
            assert (caught.type is CorruptArchiveError) == (cut >= records_start)

    def test_every_flipped_byte_is_typed_or_harmless(
        self, cd_archive, archive_path
    ):
        """A flipped byte before the records is refused with a typed
        error at open (the header's CRC, which covers the params every
        record parses with) or at the first record it misplaces or
        renames (the record CRC covers the directory's id).  Never
        another exception, never a read sized by a damaged count."""
        data = archive_path.read_bytes()
        records_start = read_header(io.BytesIO(data)).directory[0].offset
        outcomes = set()
        for offset in range(records_start):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(data)
                damaged[offset] ^= mask
                stream = io.BytesIO(bytes(damaged))
                try:
                    with FileBackedArchive(stream, read_header(stream)) as lazy:
                        loaded = list(lazy.trajectories)
                except ArchiveFormatError as error:
                    outcomes.add(type(error))
                else:
                    assert loaded == cd_archive.trajectories
                    outcomes.add(None)
        assert outcomes == {ArchiveFormatError, CorruptArchiveError}

    def test_version_1_is_refused_by_name(self, archive_path, tmp_path):
        """No version-1 reader exists: such a file gets the typed
        version error, not a misparse."""
        data = bytearray(archive_path.read_bytes())
        data[8:10] = (1).to_bytes(2, "little")
        old = tmp_path / "v1.utcq"
        old.write_bytes(bytes(data))
        with pytest.raises(
            ArchiveFormatError, match="unsupported archive version 1"
        ):
            read_archive(old)

    def test_version_2_is_refused_by_name(self, archive_path, tmp_path):
        """Version 2 records also carried bit-position lists and section
        offsets; no reader of them exists, so a version-2 file gets the
        typed version error, not a misparse."""
        data = bytearray(archive_path.read_bytes())
        data[8:10] = (2).to_bytes(2, "little")
        old = tmp_path / "v2.utcq"
        old.write_bytes(bytes(data))
        for read in (read_archive, FileBackedArchive.open):
            with pytest.raises(
                ArchiveFormatError, match="unsupported archive version 2"
            ):
                read(old)


    def test_version_3_is_refused_by_name(self, archive_path, tmp_path):
        """Version 3 records repeated the id, start time, point count and
        probabilities that version 4 reads from the directory and the
        payloads; a version-3 file gets the typed version error."""
        data = bytearray(archive_path.read_bytes())
        data[8:10] = (3).to_bytes(2, "little")
        old = tmp_path / "v3.utcq"
        old.write_bytes(bytes(data))
        for read in (read_archive, FileBackedArchive.open):
            with pytest.raises(
                ArchiveFormatError, match="unsupported archive version 3"
            ):
                read(old)

    def test_swapped_records_each_fail_their_crc(self, archive_path, tmp_path):
        """The record holds no id; the CRC covers the directory's.  Two
        records swapped, with the directory's lengths swapped to match,
        are each refused as damage at their new slot."""
        data = archive_path.read_bytes()
        header = read_header(io.BytesIO(data))
        first, second = header.directory[2], header.directory[5]
        assert first.length != second.length
        records = [
            data[entry.offset : entry.offset + entry.length]
            for entry in header.directory
        ]
        records[2], records[5] = records[5], records[2]
        ids = [entry.trajectory_id for entry in header.directory]
        crcs = b"".join(
            entry.crc32.to_bytes(4, "little") for entry in header.directory
        )
        # same ids and CRCs, lengths in the new order: the directory's
        # byte size is unchanged, so the header stays valid as it is
        directory = encode_directory(ids, records)[: -len(crcs)] + crcs
        records_start = header.directory[0].offset
        damaged = tmp_path / "swapped.utcq"
        damaged.write_bytes(
            data[: records_start - len(directory)]
            + directory
            + b"".join(records)
        )
        with FileBackedArchive.open(damaged) as lazy:
            for entry in (first, second):
                for read in (lazy.trajectory, lazy.time_span):
                    with pytest.raises(CorruptArchiveError, match="CRC"):
                        read(entry.trajectory_id)
            # the records in their own slots still load
            assert lazy.trajectory(0) is not None
        with pytest.raises(CorruptArchiveError, match="CRC"):
            read_archive(damaged)


class TestFileBackedArchive:
    def test_lazy_single_load_equals_full_decode(
        self, cd_archive, archive_path
    ):
        target = cd_archive.trajectories[7]
        cache = DecodeSpanCache(register=False)
        with FileBackedArchive.open(archive_path) as lazy:
            loaded = cache.record_for(
                target.trajectory_id,
                lambda: lazy.trajectory(target.trajectory_id),
            )
            assert loaded == target
            # only the touched trajectory is resident, and in the decode
            # cache, not in the reader: a second read parses afresh
            assert cache.stats()["records"]["resident"] == 1
            assert lazy.trajectory(target.trajectory_id) is not loaded

    def test_sequence_view(self, cd_archive, archive_path):
        with FileBackedArchive.open(archive_path) as lazy:
            assert len(lazy.trajectories) == cd_archive.trajectory_count
            assert list(lazy.trajectories) == cd_archive.trajectories
            assert lazy.trajectories[3] == cd_archive.trajectories[3]
            assert lazy.trajectories[1:3] == cd_archive.trajectories[1:3]

    def test_archive_surface(self, cd_archive, archive_path):
        with FileBackedArchive.open(archive_path) as lazy:
            assert lazy.trajectory_count == cd_archive.trajectory_count
            assert lazy.instance_count == cd_archive.instance_count
            assert lazy.compressed_bytes == cd_archive.compressed_bytes
            assert lazy.original_bytes == cd_archive.original_bytes
            assert lazy.params == cd_archive.params

    def test_lru_eviction(self, cd_archive, archive_path):
        with FileBackedArchive.open(archive_path) as lazy:
            ids = lazy.trajectory_ids()
            probe = DecodeSpanCache(register=False)
            for trajectory_id in ids:
                probe.record_for(
                    trajectory_id, lambda: lazy.trajectory(trajectory_id)
                )
            # room for about half of the records
            cache = DecodeSpanCache(
                budget_bytes=probe.resident_bytes // 2, register=False
            )
            for trajectory_id in ids:
                cache.record_for(
                    trajectory_id, lambda: lazy.trajectory(trajectory_id)
                )
            records = cache.stats()["records"]
            assert 1 <= records["resident"] < len(ids)
            assert records["resident"] + records["evictions"] == len(ids)
            assert cache.resident_bytes <= cache.budget_bytes
            # the most recent record is the one kept
            last = ids[-1]
            cache.record_for(last, lambda: pytest.fail("evicted"))

    def test_unknown_id(self, archive_path):
        with FileBackedArchive.open(archive_path) as lazy:
            with pytest.raises(KeyError):
                lazy.trajectory(10_000)
