"""Error-bounded binary-fraction coding of relative distances and
probabilities (the paper's PDDP component, §2.3 / §4.4).

The paper defines the code of a value ``x`` in [0, 1) as its truncated
binary expansion ``C(x) = sum_i C(x)_i * 2^-i`` with the smallest number
of bits ``I`` such that ``|C(x) - x| <= eta``.  This is the only *lossy*
component of the framework; the error bounds ``eta_D`` (distances) and
``eta_p`` (probabilities) are preset compression parameters.

Storage of the variable-length codes follows the PDDP-tree idea
(storage reduction for repeated codes) with two concrete modes, chosen
per component by measured size (DESIGN.md documents this reconstruction):

* **direct** — each value is a small fixed-width length field followed by
  the code bits (the length field width is derived from ``eta``, since
  ``I <= ceil(log2(1/eta))``);
* **dictionary** — distinct codes are stored once in a header (a
  serialized prefix tree, i.e. the code list), and each value is a
  fixed-width index into it; wins when values repeat, as relative
  distances do across instances of one uncertain trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..bits import expgolomb
from ..bits.bitio import BitReader, BitWriter, uint_width


# Fraction codes are pure functions of (x, eta) and the same handful of
# relative distances / probabilities recurs across every instance of a
# dataset, so each code is memoized once, as an integer word that both
# directions use.  The memos are bounded (and simply dropped when full)
# to keep long-running ingestion processes flat.
_CACHE_LIMIT = 1 << 15
_LENGTH_CACHE: dict[float, int] = {}
_WORDS: dict[tuple[float, float], tuple[int, int, float]] = {}
# Every value with the same code shares one word object: an eta admits
# fewer than 2**(max_code_length + 1) codes, against up to _CACHE_LIMIT
# memoized values, so a memo entry costs its key and one reference.
_SHARED_WORDS: dict[tuple[int, ...], tuple[int, int, float]] = {}


def max_code_length(eta: float) -> int:
    """The largest code length any value needs: ``ceil(log2(1/eta))``.

    Truncating a binary expansion at ``I`` bits leaves an error strictly
    below ``2^-I``, so ``2^-I <= eta`` always suffices.
    """
    cached = _LENGTH_CACHE.get(eta)
    if cached is not None:
        return cached
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    length = max(int(math.ceil(math.log2(1.0 / eta))), 1)
    if len(_LENGTH_CACHE) >= _CACHE_LIMIT:
        _LENGTH_CACHE.clear()
    _LENGTH_CACHE[eta] = length
    return length


def encode_fraction(x: float, eta: float) -> tuple[int, ...]:
    """The truncated binary-expansion code of ``x`` (paper's ``C(rd)``).

    Returns the shortest bit tuple whose value is within ``eta`` of ``x``.
    Values are clamped into [0, 1) first; an ``x`` within ``eta`` of zero
    encodes as the empty tuple.  This bitwise form is the reference that
    :func:`fraction_word` builds its words from.
    """
    limit = max_code_length(eta)
    clamped = min(max(x, 0.0), 1.0 - 2.0 ** -(limit + 1))
    bits: list[int] = []
    value = 0.0
    scale = 0.5
    if abs(value - clamped) <= eta:
        return ()
    for _ in range(limit):
        if value + scale <= clamped:
            bits.append(1)
            value += scale
        else:
            bits.append(0)
        scale /= 2
        if abs(value - clamped) <= eta:
            break
    return tuple(bits)


def fraction_word(x: float, eta: float) -> tuple[int, int, float]:
    """:func:`encode_fraction` as one word: ``(code, length, value)``.

    ``code`` holds the code's ``length`` bits as an integer, MSB first,
    and ``value`` is what they decode to, ``code / 2**length`` — exact,
    since ``length <= max_code_length(eta) <= 53``.
    """
    key = (x, eta)
    word = _WORDS.get(key)
    if word is None:
        bits = encode_fraction(x, eta)
        word = _SHARED_WORDS.get(bits)
        if word is None:
            code = 0
            for bit in bits:
                code = (code << 1) | bit
            word = (code, len(bits), code / (1 << len(bits)))
            _SHARED_WORDS[bits] = word
        if len(_WORDS) >= _CACHE_LIMIT:
            _WORDS.clear()
            _SHARED_WORDS.clear()
        _WORDS[key] = word
    return word


def probability_word(p: float, eta: float) -> tuple[int, int, float]:
    """:func:`fraction_word` of a probability, which must not decode to 0.

    A ``p`` within ``eta`` of zero has the empty code, whose value 0 no
    instance may carry; it takes the ``max_code_length(eta)``-bit code
    ``0...01`` instead, whose value ``2**-L <= eta`` is still within
    ``eta`` of ``p``.
    """
    word = fraction_word(p, eta)
    if word[2] == 0.0:
        length = max_code_length(eta)
        return (1, length, 1 / (1 << length))
    return word


def read_fraction(reader: BitReader, length_bits: int) -> float:
    """Read one length-prefixed fraction code and return its value."""
    length = reader.read_uint(length_bits)
    return reader.read_uint(length) / (1 << length)


def leading_probability(
    data: bytes, bit_count: int, length_bits: int, max_length: int
) -> float:
    """The value of the probability code that opens ``data`` (``bit_count``
    bits long): what :func:`read_fraction` reads there, taken from one
    ``int.from_bytes`` of the leading bytes, with no reader.

    ``length_bits`` is ``uint_width(max_length)``, ``max_length`` is
    ``max_code_length(eta)``.  Raises ``ValueError`` for a length field
    above ``max_length``, a code that runs past ``bit_count``, or one that
    decodes to 0, which :func:`probability_word` never writes.
    """
    size = (length_bits + max_length + 7) >> 3
    head = data[:size]
    window = int.from_bytes(head, "big") << ((size - len(head)) << 3)
    shift = (size << 3) - length_bits
    length = window >> shift
    if length > max_length:
        raise ValueError(
            f"a {length}-bit probability code; eta allows at most {max_length}"
        )
    if length_bits + length > bit_count:
        raise ValueError("the probability code runs past the payload")
    code = (window >> (shift - length)) & ((1 << length) - 1)
    if not code:
        raise ValueError("the probability code decodes to 0")
    return code / (1 << length)


def _dictionary_order(word: tuple[int, int, float]) -> tuple[int, int]:
    # (length, code): for equal lengths, integer order is bit-tuple order
    return word[1], word[0]


@dataclass
class PddpEncoder:
    """Collects values for one component, then serializes them compactly.

    Usage: ``add`` every value during representation, then ``serialize``
    once.
    """

    eta: float

    def __post_init__(self) -> None:
        self.words: list[tuple[int, int, float]] = []

    def add(self, value: float) -> int:
        """Queue ``value``; returns its index."""
        self.words.append(fraction_word(value, self.eta))
        return len(self.words) - 1

    def add_all(self, values: list[float]) -> None:
        eta = self.eta
        self.words.extend(fraction_word(value, eta) for value in values)

    def _direct_size(self) -> int:
        length_bits = uint_width(max_code_length(self.eta))
        return sum(length_bits + word[1] for word in self.words)

    def _dictionary_size(self) -> tuple[int, list[tuple[int, int, float]]]:
        distinct = sorted(set(self.words), key=_dictionary_order)
        index_bits = uint_width(max(len(distinct) - 1, 0))
        length_bits = uint_width(max_code_length(self.eta))
        header = (
            expgolomb.encoded_length(len(distinct))
            + sum(length_bits + word[1] for word in distinct)
        )
        return header + index_bits * len(self.words), distinct

    def serialize(self, writer: BitWriter) -> None:
        """Write mode flag, header, and all values.

        Each section (the dictionary's codes, the indices, the direct
        codes) is packed into one integer and written with one push; a
        code is its length field and its bits, ``(length << length) |
        code``."""
        length_bits = uint_width(max_code_length(self.eta))
        words = self.words
        direct_size = self._direct_size()
        dict_size, distinct = self._dictionary_size()
        use_dictionary = dict_size < direct_size
        writer.write_bit(1 if use_dictionary else 0)
        expgolomb.encode_unsigned(writer, len(words))
        if use_dictionary:
            expgolomb.encode_unsigned(writer, len(distinct))
            header = 0
            header_bits = 0
            for code, length, _ in distinct:
                width = length_bits + length
                header = (header << width) | (length << length) | code
                header_bits += width
            writer.append_bits(header, header_bits)
            index_of = {word: i for i, word in enumerate(distinct)}
            index_bits = uint_width(max(len(distinct) - 1, 0))
            row = 0
            for word in words:
                row = (row << index_bits) | index_of[word]
            writer.append_bits(row, index_bits * len(words))
        else:
            row = 0
            row_bits = 0
            for code, length, _ in words:
                width = length_bits + length
                row = (row << width) | (length << length) | code
                row_bits += width
            writer.append_bits(row, row_bits)

    def serialized_size(self) -> int:
        """Size in bits the cheaper mode will take (without serializing)."""
        flag_and_count = 1 + expgolomb.encoded_length(len(self.words))
        return flag_and_count + min(self._direct_size(), self._dictionary_size()[0])


class PddpDecoder:
    """Decodes a stream produced by :class:`PddpEncoder`."""

    def __init__(self, reader: BitReader, eta: float) -> None:
        self.eta = eta
        length_bits = uint_width(max_code_length(eta))
        self.use_dictionary = reader.read_bit() == 1
        self.count = expgolomb.decode_unsigned(reader)
        if self.use_dictionary:
            distinct_count = expgolomb.decode_unsigned(reader)
            dictionary = [
                read_fraction(reader, length_bits)
                for _ in range(distinct_count)
            ]
            index_bits = uint_width(max(distinct_count - 1, 0))
            self._values = [
                dictionary[reader.read_uint(index_bits)]
                for _ in range(self.count)
            ]
        else:
            self._values = [
                read_fraction(reader, length_bits) for _ in range(self.count)
            ]

    @property
    def values(self) -> list[float]:
        return self._values

    def __getitem__(self, index: int) -> float:
        return self._values[index]

    def __len__(self) -> int:
        return self.count


def encode_values(values: list[float], eta: float) -> BitWriter:
    """One-shot convenience: encode ``values`` into a fresh writer."""
    encoder = PddpEncoder(eta)
    encoder.add_all(values)
    writer = BitWriter()
    encoder.serialize(writer)
    return writer


def decode_values(reader: BitReader, eta: float) -> list[float]:
    """One-shot convenience matching :func:`encode_values`."""
    return PddpDecoder(reader, eta).values
