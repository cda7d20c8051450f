"""Tests for PDDP fraction coding (error-bounded binary fractions)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import expgolomb
from repro.bits.bitio import BitReader, BitWriter
from repro.core.pddp import (
    PddpDecoder,
    PddpEncoder,
    decode_values,
    encode_fraction,
    encode_values,
    fraction_word,
    max_code_length,
    probability_word,
    read_fraction,
)

#: the error bounds of Table 7 (eta_D and eta_p sweeps)
TABLE7_ETAS = [1 / 32, 1 / 64, 1 / 128, 1 / 256, 1 / 512, 1 / 1024, 1 / 2048]


def decode_fraction(bits) -> float:
    """Bitwise reference: the value of a truncated binary-expansion code,
    summed one bit at a time."""
    value = 0.0
    scale = 0.5
    for bit in bits:
        if bit:
            value += scale
        scale /= 2
    return value


class TestFractionCodes:
    def test_zero_is_empty_code(self):
        assert encode_fraction(0.0, 1 / 128) == ()

    def test_half_is_one_bit(self):
        assert encode_fraction(0.5, 1 / 128) == (1,)

    def test_quarter(self):
        assert encode_fraction(0.25, 1 / 128) == (0, 1)

    def test_decode_fraction(self):
        assert decode_fraction((1, 0, 1)) == pytest.approx(0.625)
        assert decode_fraction(()) == 0.0

    @pytest.mark.parametrize("eta", [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128])
    def test_error_bounded(self, eta):
        for i in range(101):
            x = i / 100.0
            code = encode_fraction(x, eta)
            decoded = decode_fraction(code)
            target = min(x, 1.0 - 2 ** -(max_code_length(eta) + 1))
            assert abs(decoded - target) <= eta + 1e-12

    @pytest.mark.parametrize("eta", [1 / 8, 1 / 128, 1 / 2048])
    def test_code_length_bounded(self, eta):
        limit = max_code_length(eta)
        for i in range(101):
            assert len(encode_fraction(i / 100.0, eta)) <= limit

    def test_codes_are_minimal(self):
        # 0.875 = 0.111b exactly; a coarser eta may stop earlier
        assert encode_fraction(0.875, 1 / 128) == (1, 1, 1)
        assert len(encode_fraction(0.875, 1 / 4)) <= 2

    def test_max_code_length_values(self):
        assert max_code_length(1 / 128) == 7
        assert max_code_length(1 / 512) == 9
        assert max_code_length(1 / 2048) == 11

    def test_max_code_length_validation(self):
        with pytest.raises(ValueError):
            max_code_length(0.0)
        with pytest.raises(ValueError):
            max_code_length(1.0)

    def test_out_of_range_values_clamped(self):
        assert decode_fraction(encode_fraction(-0.5, 1 / 128)) <= 1 / 128
        assert decode_fraction(encode_fraction(1.7, 1 / 128)) >= 1 - 2 / 128


class TestSerializedStreams:
    def test_round_trip_direct(self):
        values = [0.1, 0.9, 0.33, 0.77, 0.02]
        writer = encode_values(values, 1 / 128)
        decoded = decode_values(BitReader.from_writer(writer), 1 / 128)
        assert len(decoded) == len(values)
        for got, expected in zip(decoded, values):
            assert abs(got - expected) <= 1 / 128 + 1e-12

    def test_round_trip_repetitive_uses_dictionary(self):
        values = [0.25, 0.5, 0.25, 0.5] * 40
        encoder = PddpEncoder(1 / 128)
        encoder.add_all(values)
        writer = BitWriter()
        encoder.serialize(writer)
        reader = BitReader.from_writer(writer)
        decoder = PddpDecoder(reader, 1 / 128)
        assert decoder.use_dictionary
        for got, expected in zip(decoder.values, values):
            assert abs(got - expected) <= 1 / 128

    def test_dictionary_beats_direct_on_repetitive_data(self):
        repetitive = [0.125, 0.625] * 50
        varied = [i / 100 for i in range(100)]
        assert len(encode_values(repetitive, 1 / 128)) < len(
            encode_values(varied, 1 / 128)
        )

    def test_empty_stream(self):
        writer = encode_values([], 1 / 128)
        assert decode_values(BitReader.from_writer(writer), 1 / 128) == []

    def test_serialized_size_matches_reality(self):
        values = [0.17, 0.42, 0.42, 0.9, 0.17]
        encoder = PddpEncoder(1 / 128)
        encoder.add_all(values)
        predicted = encoder.serialized_size()
        writer = BitWriter()
        encoder.serialize(writer)
        assert len(writer) == predicted

    def test_getitem_and_len(self):
        writer = encode_values([0.5, 0.25], 1 / 64)
        decoder = PddpDecoder(BitReader.from_writer(writer), 1 / 64)
        assert len(decoder) == 2
        assert decoder[0] == pytest.approx(0.5, abs=1 / 64)


@given(
    st.lists(st.floats(min_value=0.0, max_value=0.999999), max_size=60),
    st.sampled_from([1 / 8, 1 / 32, 1 / 128, 1 / 512, 1 / 2048]),
)
def test_property_stream_round_trip_error_bounded(values, eta):
    writer = encode_values(values, eta)
    decoded = decode_values(BitReader.from_writer(writer), eta)
    assert len(decoded) == len(values)
    for got, expected in zip(decoded, values):
        assert abs(got - expected) <= eta + 1e-9


@given(st.floats(min_value=0.0, max_value=0.999999))
def test_property_tighter_eta_never_lengthens_error(x):
    loose = decode_fraction(encode_fraction(x, 1 / 16))
    tight = decode_fraction(encode_fraction(x, 1 / 1024))
    assert abs(tight - x) <= abs(loose - x) + 1e-12


class TestIntegerWords:
    """The integer words the codec reads and writes agree with the
    bitwise reference codes they are built from."""

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.sampled_from(TABLE7_ETAS),
    )
    def test_word_is_the_reference_code_read_as_an_integer(self, x, eta):
        bits = encode_fraction(x, eta)
        code, length, value = fraction_word(x, eta)
        assert length == len(bits)
        assert code == int("".join(map(str, bits)) or "0", 2)
        assert value == decode_fraction(bits)

    @pytest.mark.parametrize("eta", TABLE7_ETAS)
    def test_every_code_reads_back_as_the_reference_value(self, eta):
        length_bits = max_code_length(eta).bit_length()
        for length in range(max_code_length(eta) + 1):
            writer = BitWriter()
            for code in range(1 << length):
                writer.write_uint(length, length_bits)
                writer.write_uint(code, length)
            reader = BitReader.from_writer(writer)
            for code in range(1 << length):
                bits = [(code >> shift) & 1 for shift in range(length - 1, -1, -1)]
                assert read_fraction(reader, length_bits) == decode_fraction(bits)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from(TABLE7_ETAS),
    )
    def test_dictionary_order_is_the_bit_tuple_order(self, values, eta):
        values = values * 8  # repeats make the dictionary mode win
        encoder = PddpEncoder(eta)
        encoder.add_all(values)
        writer = BitWriter()
        encoder.serialize(writer)
        reference = sorted(
            {encode_fraction(v, eta) for v in values},
            key=lambda code: (len(code), code),
        )
        _, distinct = encoder._dictionary_size()
        assert [
            tuple((code >> shift) & 1 for shift in range(length - 1, -1, -1))
            for code, length, _ in distinct
        ] == reference
        # the dictionary header, read back bitwise
        reader = BitReader.from_writer(writer)
        assert reader.read_bit() == 1
        assert expgolomb.decode_unsigned(reader) == len(values)
        assert expgolomb.decode_unsigned(reader) == len(reference)
        length_bits = max_code_length(eta).bit_length()
        stored = [
            tuple(reader.read_bits(reader.read_uint(length_bits)))
            for _ in reference
        ]
        assert stored == reference

    @pytest.mark.parametrize("eta", TABLE7_ETAS)
    def test_probability_word_never_decodes_to_zero(self, eta):
        for p in (eta / 4, eta / 2, eta):
            code, length, value = probability_word(p, eta)
            assert fraction_word(p, eta)[2] == 0.0
            assert (code, length) == (1, max_code_length(eta))
            assert 0 < value <= eta
            assert abs(value - p) <= eta
        assert probability_word(0.5, eta) == fraction_word(0.5, eta)
