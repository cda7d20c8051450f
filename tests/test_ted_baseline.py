"""Tests for the TED baseline: time codec, matrices, compressor, index."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits.bitio import BitReader, BitWriter
from repro.core.compressor import compress_dataset
from repro.ted import (
    MatrixGroup,
    MatrixStore,
    TEDCompressor,
    decode_ted_trajectory,
)
from repro.ted import time_codec
from repro.trajectories.datasets import CD, load_dataset


class TestTimeCodec:
    def test_paper_example_boundary_pairs(self):
        """§2.2: <t_i, t_{i+1}, t_{i+2}> with equal intervals keeps ends."""
        times = [100, 200, 300]
        assert time_codec.boundary_pairs(times) == [(0, 100), (2, 300)]

    def test_varying_intervals_keep_everything(self):
        times = [0, 10, 25, 45, 70]
        pairs = time_codec.boundary_pairs(times)
        assert len(pairs) == len(times)

    def test_restore_inverts(self):
        times = [0, 60, 120, 180, 250, 320, 321]
        pairs = time_codec.boundary_pairs(times)
        assert time_codec.restore_from_pairs(pairs) == times

    def test_single_timestamp(self):
        assert time_codec.boundary_pairs([7]) == [(0, 7)]
        assert time_codec.restore_from_pairs([(0, 7)]) == [7]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            time_codec.boundary_pairs([])

    def test_encode_decode_round_trip(self):
        times = [500, 740, 981, 1221, 1460, 1700, 1940]
        writer = BitWriter()
        time_codec.encode(writer, times)
        reader = BitReader.from_writer(writer)
        assert time_codec.decode(reader) == times

    def test_encoded_size_matches(self):
        times = [500, 740, 981, 1221, 1460]
        writer = BitWriter()
        time_codec.encode(writer, times)
        assert time_codec.encoded_size_bits(times) == len(writer)

    def test_time_bits_overflow(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            time_codec.encode(writer, [2**17], time_bits=17)

    def test_paper_cr_comparison_unstable_intervals(self):
        """The SIAR example: TED keeps 6 pairs of 29 bits (CR 1.29),
        SIAR costs 12 + 17 bits (CR 7.72)."""
        from repro.core import siar

        def hms(h, m, s):
            return h * 3600 + m * 60 + s

        times = [
            hms(5, 3, 25), hms(5, 7, 25), hms(5, 11, 26), hms(5, 15, 26),
            hms(5, 19, 25), hms(5, 23, 25), hms(5, 27, 25),
        ]
        pairs = time_codec.boundary_pairs(times)
        ted_bits = len(pairs) * (12 + 17)
        siar_bits = siar.encoded_size_bits(times, 240)
        assert siar_bits < ted_bits
        assert len(pairs) == 6  # the paper counts six retained entries


@given(
    st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=50),
    st.integers(min_value=0, max_value=50000),
)
def test_property_time_codec_round_trip(intervals, t0):
    times = [t0]
    for interval in intervals:
        times.append(times[-1] + interval)
    writer = BitWriter()
    time_codec.encode(writer, times, time_bits=20)
    reader = BitReader.from_writer(writer)
    assert time_codec.decode(reader, time_bits=20) == times


class TestMatrixStore:
    def test_row_round_trip(self):
        store = MatrixStore(symbol_width=3)
        key, row = store.add_sequence((1, 2, 1))
        assert store.sequence(key, row) == (1, 2, 1)

    def test_grouping_by_length(self):
        store = MatrixStore(symbol_width=3)
        store.add_sequence((1, 2))
        store.add_sequence((2, 1))
        store.add_sequence((1, 2, 3))
        assert set(store.groups) == {2, 3}
        assert len(store.groups[2].rows) == 2

    def test_row_length_mismatch_rejected(self):
        group = MatrixGroup(3)
        with pytest.raises(ValueError):
            group.add_row((1, 2))

    def test_base_widths_cover_column_maxima(self):
        group = MatrixGroup(3)
        for _ in range(50):
            group.add_row((1, 1, 7))
        bases = group.select_bases(symbol_width=3)
        assert bases[0] == (1, 1, 3)  # the always-fitting maxima vector

    def test_multiple_bases_split_mixed_rows(self):
        group = MatrixGroup(4)
        for _ in range(60):
            group.add_row((1, 1, 1, 1))  # narrow rows
        for _ in range(10):
            group.add_row((7, 7, 7, 7))  # wide rows
        bases = group.select_bases(symbol_width=3)
        assert len(bases) >= 2
        # a narrow base must exist so the cheap rows don't pay 3 bits each
        assert any(sum(base) == 4 for base in bases)

    def test_reduced_encoding_smaller_on_small_numbers(self):
        small = MatrixGroup(6)
        for _ in range(100):
            small.add_row((1, 1, 2, 1, 1, 2))
        plain_cost = 100 * 6 * 3
        assert small.serialized_size(symbol_width=3) < plain_cost

    def test_serialize_round_trip(self):
        store = MatrixStore(symbol_width=4)
        store.add_sequence((1, 2, 3))
        store.add_sequence((3, 2, 1))
        store.add_sequence((5, 5))
        writer = BitWriter()
        store.serialize(writer)
        restored = MatrixStore.deserialize(
            BitReader.from_writer(writer), symbol_width=4
        )
        assert restored.sequence(3, 0) == (1, 2, 3)
        assert restored.sequence(3, 1) == (3, 2, 1)
        assert restored.sequence(2, 0) == (5, 5)


@pytest.fixture(scope="module")
def cd_data():
    return load_dataset("CD", 20, seed=31, network_scale=12)


@pytest.fixture(scope="module")
def ted_archive(cd_data):
    network, trajectories = cd_data
    compressor = TEDCompressor(
        network=network, default_interval=CD.default_interval
    )
    return compressor.compress(trajectories)


class TestTedCompressor:
    def test_round_trip_paths_and_times(self, cd_data, ted_archive):
        network, trajectories = cd_data
        for original, compressed in zip(trajectories, ted_archive.trajectories):
            restored = decode_ted_trajectory(network, ted_archive, compressed)
            assert restored.times == list(original.times)
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                assert rest_inst.path == orig_inst.path

    def test_distances_within_eta(self, cd_data, ted_archive):
        network, trajectories = cd_data
        for original, compressed in zip(trajectories, ted_archive.trajectories):
            restored = decode_ted_trajectory(network, ted_archive, compressed)
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                for a, b in zip(
                    orig_inst.relative_distances(network),
                    rest_inst.relative_distances(network),
                ):
                    assert abs(a - b) <= ted_archive.eta_distance + 1e-9

    def test_ted_flags_ratio_is_one(self, ted_archive):
        """Table 8: TED's T' ratio is exactly 1 (bitmap omitted)."""
        stats = ted_archive.stats
        assert stats.flags_ratio == pytest.approx(1.0)

    def test_ted_compresses_overall(self, ted_archive):
        assert ted_archive.stats.total_ratio > 1.5

    def test_bitmap_variant_round_trips(self, cd_data):
        network, trajectories = cd_data
        compressor = TEDCompressor(
            network=network, default_interval=10, use_bitmap=True
        )
        archive = compressor.compress(trajectories[:5])
        for original, compressed in zip(trajectories, archive.trajectories):
            restored = decode_ted_trajectory(network, archive, compressed)
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                assert rest_inst.path == orig_inst.path

    def test_trajectory_lookup(self, ted_archive):
        wanted = ted_archive.trajectories[3].trajectory_id
        assert ted_archive.trajectory(wanted).trajectory_id == wanted
        with pytest.raises(KeyError):
            ted_archive.trajectory(10**9)


class TestHeadlineComparison:
    """The paper's headline: UTCQ beats TED by 2x+ on compression ratio."""

    def test_utcq_total_ratio_beats_ted(self, cd_data, ted_archive):
        network, trajectories = cd_data
        utcq = compress_dataset(network, trajectories, default_interval=10)
        assert utcq.stats.total_ratio > ted_archive.stats.total_ratio

    def test_utcq_time_ratio_beats_ted(self, cd_data, ted_archive):
        network, trajectories = cd_data
        utcq = compress_dataset(network, trajectories, default_interval=10)
        assert utcq.stats.time_ratio > ted_archive.stats.time_ratio

    def test_utcq_flags_ratio_beats_ted(self, cd_data, ted_archive):
        network, trajectories = cd_data
        utcq = compress_dataset(network, trajectories, default_interval=10)
        assert utcq.stats.flags_ratio > ted_archive.stats.flags_ratio


def test_instance_below_eta_probability_round_trips():
    """An instance with probability <= eta_p keeps a nonzero code."""
    from test_core_compressor import tiny_probability_trajectory

    network, trajectory = tiny_probability_trajectory()
    compressor = TEDCompressor(network=network, default_interval=CD.default_interval)
    archive = compressor.compress([trajectory])
    (compressed,) = archive.trajectories
    assert min(i.probability for i in compressed.instances) > 0
    restored = decode_ted_trajectory(network, archive, compressed)
    assert restored.instance_count == trajectory.instance_count
