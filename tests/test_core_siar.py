"""Tests for SIAR time representation and its Exp-Golomb serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits.bitio import BitReader, BitWriter
from repro.core import siar


def paper_times() -> list[int]:
    """The running example: 5:03:25 ... 5:27:25 at a 240 s default."""

    def hms(h, m, s):
        return h * 3600 + m * 60 + s

    return [
        hms(5, 3, 25),
        hms(5, 7, 25),
        hms(5, 11, 26),
        hms(5, 15, 26),
        hms(5, 19, 25),
        hms(5, 23, 25),
        hms(5, 27, 25),
    ]


class TestRepresent:
    def test_paper_example_deviations(self):
        sequence = siar.represent(paper_times(), 240)
        assert sequence.t0 == 5 * 3600 + 3 * 60 + 25
        assert sequence.deviations == (0, 1, 0, -1, 0, 0)

    def test_restore_inverts_represent(self):
        times = paper_times()
        assert siar.restore(siar.represent(times, 240)) == times

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            siar.represent([], 10)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            siar.represent([10, 10], 5)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            siar.represent([1, 2], 0)

    def test_single_timestamp(self):
        sequence = siar.represent([500], 60)
        assert sequence.deviations == ()
        assert siar.restore(sequence) == [500]


class TestEncode:
    def test_paper_example_size(self):
        """§4.4: the deviations cost 12 bits and t0 costs 17."""
        times = paper_times()
        writer = BitWriter()
        siar.encode(writer, times, 240)
        # 17 (t0) + EG(count=7) + 12 (deviations)
        overhead = len(writer) - 17 - 12
        assert overhead == siar.expgolomb.encoded_length(7)

    def test_encoded_size_bits_matches_encode(self):
        times = paper_times()
        writer = BitWriter()
        siar.encode(writer, times, 240)
        assert siar.encoded_size_bits(times, 240) == len(writer)

    def test_round_trip(self):
        times = paper_times()
        writer = BitWriter()
        siar.encode(writer, times, 240)
        reader = BitReader.from_writer(writer)
        assert siar.decode(reader, 240) == times

    def test_t0_overflow_rejected(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            siar.encode(writer, [2**17, 2**17 + 10], 10, t0_bits=17)

    def test_wider_t0_field(self):
        times = [2**17 + 5, 2**17 + 15]
        writer = BitWriter()
        siar.encode(writer, times, 10, t0_bits=20)
        reader = BitReader.from_writer(writer)
        assert siar.decode(reader, 10, t0_bits=20) == times


@given(
    st.integers(min_value=1, max_value=600),
    st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=80000),
)
def test_property_round_trip(default_interval, intervals, t0):
    times = [t0]
    for interval in intervals:
        times.append(times[-1] + interval)
    writer = BitWriter()
    siar.encode(writer, times, default_interval, t0_bits=32)
    reader = BitReader.from_writer(writer)
    assert siar.decode(reader, default_interval, t0_bits=32) == times


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40))
def test_property_stable_intervals_cost_one_bit_each(intervals):
    # when every interval equals the default, each deviation is a single bit
    times = [100]
    for _ in intervals:
        times.append(times[-1] + 30)
    size = siar.encoded_size_bits(times, 30)
    header = 17 + siar.expgolomb.encoded_length(len(times))
    assert size == header + len(times) - 1
