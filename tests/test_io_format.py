"""On-disk format tests: bit-exact round trips and lazy loading."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UTCQCompressor, decode_trajectory
from repro.core.archive import (
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
    ComponentBits,
    CompressionStats,
)
from repro.io import (
    ArchiveFormatError,
    FileBackedArchive,
    read_archive,
    read_header,
    write_archive,
)
from repro.io.format import (
    decode_record_time_span,
    decode_trajectory_record,
    encode_trajectory_record,
    read_uvarint,
    read_uvarints,
    write_uvarint,
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
        with pytest.raises(ArchiveFormatError):
            write_uvarint(bytearray(), -1)

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
        assert read_uvarints(bytes(out), 1, len(values)) == (values, len(out))
        assert read_uvarints(bytes(out), 1, 0) == ([], 1)
        with pytest.raises(ArchiveFormatError, match="truncated"):
            read_uvarints(bytes(out), 1, len(values) + 1)


_u64 = st.one_of(st.integers(0, 127), st.integers(0, 2**64 - 1))
_positions = st.lists(_u64, max_size=5).map(tuple)


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
        reference_ordinal=draw(_u64),
        edge_offset=draw(_u64),
        flags_offset=draw(_u64),
        distance_offset=draw(_u64),
        probability_offset=draw(_u64),
        distance_positions=draw(_positions),
        factor_positions=draw(_positions),
        probability=draw(st.floats(0, 1)),
    )


@st.composite
def _trajectories(draw):
    payload, payload_bits = draw(_payloads())
    stats = draw(st.lists(_u64, min_size=12, max_size=12))
    return CompressedTrajectory(
        trajectory_id=draw(_u64),
        time_payload=payload,
        time_payload_bits=payload_bits,
        point_count=draw(_u64),
        start_time=draw(_u64),
        end_time=draw(_u64),
        deviation_positions=draw(_positions),
        instances=draw(st.lists(_instances(), max_size=4)),
        stats=CompressionStats(
            original=ComponentBits(*stats[:6]),
            compressed=ComponentBits(*stats[6:]),
        ),
    )


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


class TestArchiveRoundTrip:
    def test_bit_exact(self, cd_archive, archive_path):
        back = read_archive(archive_path)
        assert back.params == cd_archive.params
        # dataclass equality covers payload bytes, bit counts, offsets,
        # positions, probabilities, and stats — the full bit-exactness claim
        assert back.trajectories == cd_archive.trajectories
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


class TestFileBackedArchive:
    def test_lazy_single_load_equals_full_decode(
        self, cd_archive, archive_path
    ):
        target = cd_archive.trajectories[7]
        with FileBackedArchive.open(archive_path) as lazy:
            loaded = lazy.trajectory(target.trajectory_id)
            assert loaded == target
            # only the touched trajectory is resident
            assert lazy.cached_trajectory_count() == 1

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
        with FileBackedArchive.open(archive_path, cache_size=4) as lazy:
            for trajectory_id in lazy.trajectory_ids():
                lazy.trajectory(trajectory_id)
            assert lazy.cached_trajectory_count() == 4

    def test_unknown_id(self, archive_path):
        with FileBackedArchive.open(archive_path) as lazy:
            with pytest.raises(KeyError):
                lazy.trajectory(10_000)
