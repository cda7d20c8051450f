"""On-disk format tests: bit-exact round trips and lazy loading."""

import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import UTCQCompressor, decode_trajectory
from repro.core.decoder import DecodeSpanCache
from repro.core.archive import (
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
)
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
    dyadic_numerators,
    encode_directory,
    encode_trajectory_record,
    probability_unit,
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
            decode_trajectory_record(overlong)

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


class TestProbabilityNumerators:
    """A PDDP value is ``m * 2^-L``: the numerator is the same float."""

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_every_numerator_round_trips(self, bits):
        values = [m / 2**bits for m in range(2**bits + 1)]
        found_bits, numerators = dyadic_numerators(values)
        assert found_bits == bits  # m = 1 needs them all
        assert numerators == list(range(2**bits + 1))
        unit = probability_unit(bits)
        assert [(m * unit).hex() for m in numerators] == [
            value.hex() for value in values
        ]

    def test_the_smallest_power_serves(self):
        assert dyadic_numerators([0.5, 0.25, 0.75]) == (2, [2, 1, 3])
        assert dyadic_numerators([0.0, 1.0]) == (0, [0, 1])
        assert dyadic_numerators([]) == (0, [])
        # not a PDDP value, but a float is a dyadic rational: stored as is
        bits, (numerator,) = dyadic_numerators([0.1])
        assert (numerator * probability_unit(bits)).hex() == (0.1).hex()

    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.integers(1, 16),
        data=st.data(),
    )
    def test_p_total_is_the_sum_of_the_numerators(self, bits, data):
        """``p_total`` is a float sum of up to 16 instance probabilities;
        it is exact, so its numerator is the integer sum."""
        numerators = data.draw(
            st.lists(st.integers(0, 2**bits), min_size=1, max_size=16)
        )
        p_total = sum(m / 2**bits for m in numerators)
        found_bits, (total, _) = dyadic_numerators([p_total, 2.0**-bits])
        assert (found_bits, total) == (bits, sum(numerators))
        assert (total * probability_unit(bits)).hex() == p_total.hex()

    @pytest.mark.parametrize(
        "value", [-0.5, float("nan"), float("inf"), 2.0**-65, 2.0**64]
    )
    def test_what_cannot_be_stored_exactly_is_refused(self, value):
        with pytest.raises(ArchiveFormatError, match="exactly"):
            dyadic_numerators([0.5, value])

    def test_damaged_bit_count_is_typed(self):
        with pytest.raises(ArchiveFormatError):
            probability_unit(65)


# What the version-3 encoder can emit: probabilities with at most 64
# fractional bits, a start time no later than the end time, and (for a
# whole archive) unique ascending ids.
_u64 = st.one_of(st.integers(0, 127), st.integers(0, 2**64 - 1))
_probabilities = st.one_of(
    st.integers(1, 16), st.integers(0, 64)
).flatmap(
    lambda bits: st.integers(0, 2**bits).map(lambda m: m / 2**bits)
)


@st.composite
def _payloads(draw):
    bits = draw(st.integers(0, 80))
    return draw(st.binary(min_size=(bits + 7) // 8, max_size=(bits + 7) // 8)), bits


@st.composite
def _instances(draw):
    payload, payload_bits = draw(_payloads())
    return CompressedInstance(
        is_reference=draw(st.booleans()),
        payload=payload,
        payload_bits=payload_bits,
        start_vertex=draw(st.none() | _u64),
        # shares the flags varint with two flag bits
        reference_ordinal=draw(st.integers(0, 2**62 - 1)),
        probability=draw(_probabilities),
    )


def _one_unit_serves(probabilities) -> bool:
    """A record stores its probabilities as numerators of one unit
    2^-L: 1.0 beside an odd multiple of 2^-64 would need m = 2^64."""
    try:
        dyadic_numerators(probabilities)
    except ArchiveFormatError:
        return False
    return True


@st.composite
def _trajectories(draw):
    payload, payload_bits = draw(_payloads())
    start_time, end_time = sorted(draw(st.lists(_u64, min_size=2, max_size=2)))
    instances = draw(st.lists(_instances(), max_size=4))
    assume(_one_unit_serves([i.probability for i in instances]))
    return CompressedTrajectory(
        trajectory_id=draw(_u64),
        time_payload=payload,
        time_payload_bits=payload_bits,
        point_count=draw(_u64),
        start_time=start_time,
        end_time=end_time,
        instances=instances,
    )


def _with(target, **changes):
    return type(target)(**{**vars(target), **changes})


class TestRecordRoundTrip:
    def test_every_trajectory_record(self, cd_archive):
        for trajectory in cd_archive.trajectories:
            record = encode_trajectory_record(trajectory)
            assert decode_trajectory_record(record) == trajectory

    @settings(max_examples=200, deadline=None)
    @given(trajectory=_trajectories())
    def test_generated_records_round_trip_both_ways(self, trajectory):
        """Any field values, not just what the compressor emits: empty
        payloads, multi-byte varints everywhere, no instances."""
        record = encode_trajectory_record(trajectory)
        decoded = decode_trajectory_record(record)
        assert decoded == trajectory
        assert encode_trajectory_record(decoded) == record
        assert decode_record_time_span(record) == (
            trajectory.trajectory_id,
            trajectory.start_time,
            trajectory.end_time,
        )

    @settings(max_examples=100, deadline=None)
    @given(trajectory=_trajectories(), instance=_instances(), data=st.data())
    def test_what_the_format_cannot_hold_is_refused_at_write(
        self, trajectory, instance, data
    ):
        """Anything outside the strategies above is an error when the
        record is written — never a rounded value or a wrapped one."""
        low, high = data.draw(
            st.lists(_u64, min_size=2, max_size=2, unique=True).map(sorted)
        )
        bad_probability = data.draw(
            st.sampled_from([-0.25, float("nan"), float("inf"), 2.0**-70])
        )
        bad_instances = [
            _with(instance, reference_ordinal=2**62),
            _with(instance, probability=bad_probability),
            _with(instance, payload_bits=instance.payload_bits + 8),
        ]
        bad_trajectories = [
            _with(trajectory, instances=[*trajectory.instances, bad])
            for bad in bad_instances
        ] + [
            _with(trajectory, start_time=high, end_time=low),
            _with(trajectory, point_count=-1),
        ]
        for bad in bad_trajectories:
            with pytest.raises(ArchiveFormatError):
                encode_trajectory_record(bad)

    def test_every_truncation_point_is_a_format_error(self, cd_archive):
        """A cut record never leaks the parser's IndexError (or a
        struct.error), and never parses."""
        for trajectory in cd_archive.trajectories[:5]:
            record = encode_trajectory_record(trajectory)
            for cut in range(len(record)):
                with pytest.raises(ArchiveFormatError):
                    decode_trajectory_record(record[:cut])
            for cut in range(4):
                with pytest.raises(ArchiveFormatError):
                    decode_record_time_span(record[:cut])

    def test_every_flipped_byte_parses_or_is_a_format_error(self, cd_archive):
        """Past the CRC (``verify_crc=False``, or a collision) a damaged
        record either parses to some trajectory or raises the typed
        error, in time linear in the record: no count is trusted."""
        for trajectory in cd_archive.trajectories[:5]:
            record = encode_trajectory_record(trajectory)
            for offset in range(len(record)):
                for mask in (0x01, 0x40, 0x80, 0xFF):
                    damaged = bytearray(record)
                    damaged[offset] ^= mask
                    try:
                        decode_trajectory_record(bytes(damaged))
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
        error at open or at the first record it misplaces — or changes
        only header fields no record depends on.  Never another
        exception, never a read sized by a damaged count."""
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
        assert outcomes == {ArchiveFormatError, CorruptArchiveError, None}

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
