"""Referential representation factors (§4.2, Definition 8, Table 4).

A non-reference instance is expressed against its reference as a list of
*factors*.  Three streams use three factor grammars, each validated
against the paper's worked examples:

* **E (edge sequences)** — the (S, L, M) grammar of FRESCO [35]:
  ``S``/``L`` locate a subsequence of the reference, ``M`` is the first
  mismatching symbol after it.  Two rewrites (paper §4.2): a trailing
  factor with no mismatch is ``(S, L)``; a symbol absent from the
  reference is ``(S=|E(Ref)|, M)`` with ``L`` omitted.
* **T' (time-flag bit-strings)** — factors are ``(S, L)`` with the
  mismatch bit *inferred* as ``NOT ref[S+L]``; only the final factor keeps
  an explicit ``M`` when one exists.  A raw-bits fallback mode covers the
  (rare) bit-strings the inferred grammar cannot express, and is also
  chosen when it is smaller.
* **D (relative distances)** — positional patches ``(pos, rd)`` at the
  indices where the non-reference's distances differ from the
  reference's; applicable because all instances of one uncertain
  trajectory have the same number of mapped locations.

Bit widths follow §4.4: for E, ``S`` takes ``ceil(log2(|E(Ref)|+1))``
bits, ``L`` ``ceil(log2(|E(Ref)|))`` (stored as ``L-1``), ``M`` the
edge-number width; for T', ``S``/``L`` take ``ceil(log2(|T'(Ref)|))``
bits and ``M`` one bit; for D, ``pos`` takes ``ceil(log2(|D(Ref)|))``
bits and ``rd`` a PDDP fraction code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..bits import expgolomb
from ..bits.bitio import BitReader, BitWriter, uint_width
from .pddp import fraction_word, max_code_length, read_fraction


@dataclass(frozen=True)
class EdgeFactor:
    """One factor of an E stream.

    ``length is None`` marks the out-of-reference form ``(S, M)`` (where
    ``start == |reference|``); ``mismatch is None`` marks the trailing
    pure-match form ``(S, L)``.
    """

    start: int
    length: int | None
    mismatch: int | None

    def __post_init__(self) -> None:
        if self.length is None and self.mismatch is None:
            raise ValueError("a factor needs a match, a mismatch, or both")

    @property
    def consumed(self) -> int:
        """Symbols of the target this factor reproduces."""
        return (self.length or 0) + (1 if self.mismatch is not None else 0)


@dataclass(frozen=True)
class FlagFactor:
    """One factor of a T' stream: a match, with mismatch bit either
    inferred from the reference (``mismatch is None`` on non-final
    factors) or explicit (final factor)."""

    start: int
    length: int
    mismatch: int | None = None


# ----------------------------------------------------------------------
# longest-match machinery
# ----------------------------------------------------------------------
def _occurrences(reference: Sequence[int]) -> dict[int, list[int]]:
    table: dict[int, list[int]] = {}
    for position, symbol in enumerate(reference):
        table.setdefault(symbol, []).append(position)
    return table


def _longest_match(
    target: Sequence[int],
    position: int,
    reference: Sequence[int],
    occurrences: dict[int, list[int]],
) -> tuple[int, int]:
    """Longest match of ``target[position:]`` inside ``reference``.

    Returns ``(start, length)``; ties break toward the smallest start,
    matching the paper's worked factorizations.  ``length`` 0 means the
    current symbol does not occur in the reference at all.
    """
    best_start, best_length = 0, 0
    n, m = len(target), len(reference)
    for start in occurrences.get(target[position], ()):
        # only a candidate that also matches at offset best_length can
        # beat the incumbent (matches are contiguous from offset 0)
        if best_length and (
            position + best_length >= n
            or start + best_length >= m
            or target[position + best_length] != reference[start + best_length]
        ):
            continue
        length = 0
        while (
            position + length < n
            and start + length < m
            and target[position + length] == reference[start + length]
        ):
            length += 1
        if length > best_length:
            best_start, best_length = start, length
    return best_start, best_length


# ----------------------------------------------------------------------
# E factors
# ----------------------------------------------------------------------
def factorize_edges(
    target: Sequence[int], reference: Sequence[int]
) -> list[EdgeFactor]:
    """Greedy (S, L, M) factorization of ``target`` against ``reference``.

    Edge numbers fit in ``bytes`` for every realistic out-degree, so the
    longest match runs through C-level ``bytes.find`` (smallest start on
    ties, exactly like the pure-Python fallback below).
    """
    try:
        target_bytes, reference_bytes = bytes(target), bytes(reference)
    except (ValueError, TypeError):
        pass
    else:
        factors: list[EdgeFactor] = []
        find = reference_bytes.find
        i = 0
        n = len(target_bytes)
        reference_length = len(reference_bytes)
        while i < n:
            start = find(target_bytes[i : i + 1])
            if start < 0:
                factors.append(EdgeFactor(reference_length, None, target[i]))
                i += 1
                continue
            length = 1
            while i + length < n:
                found = find(target_bytes[i : i + length + 1])
                if found < 0:
                    break
                start = found
                length += 1
            if i + length == n:
                factors.append(EdgeFactor(start, length, None))
                i += length
            else:
                factors.append(EdgeFactor(start, length, target[i + length]))
                i += length + 1
        return factors

    occurrences = _occurrences(reference)
    factors: list[EdgeFactor] = []
    i = 0
    n = len(target)
    while i < n:
        start, length = _longest_match(target, i, reference, occurrences)
        if length == 0:
            factors.append(EdgeFactor(len(reference), None, target[i]))
            i += 1
        elif i + length == n:
            factors.append(EdgeFactor(start, length, None))
            i += length
        else:
            factors.append(EdgeFactor(start, length, target[i + length]))
            i += length + 1
    return factors


def apply_edge_factors(
    factors: Sequence[EdgeFactor], reference: Sequence[int]
) -> list[int]:
    """Reconstruct the target sequence from its factors and reference."""
    output: list[int] = []
    for factor in factors:
        if factor.length is not None:
            if factor.start + factor.length > len(reference):
                raise ValueError(
                    f"factor {factor} exceeds the reference length"
                )
            output.extend(reference[factor.start : factor.start + factor.length])
        if factor.mismatch is not None:
            output.append(factor.mismatch)
    return output


def write_edge_factors(
    writer: BitWriter,
    factors: Sequence[EdgeFactor],
    reference_length: int,
    symbol_width: int,
) -> None:
    """Serialize an E factor stream (§4.4 widths)."""
    s_width = uint_width(reference_length)
    l_width = uint_width(max(reference_length - 1, 0))
    expgolomb.encode_unsigned(writer, len(factors))
    if not factors:
        return
    last = factors[-1]
    writer.write_bit(1 if last.mismatch is not None else 0)
    for factor in factors:
        writer.write_uint(factor.start, s_width)
        if factor.start == reference_length:
            if factor.length is not None or factor.mismatch is None:
                raise ValueError(f"out-of-reference factor malformed: {factor}")
            writer.write_uint(factor.mismatch, symbol_width)
            continue
        if factor.length is None:
            raise ValueError(f"in-reference factor without length: {factor}")
        writer.write_uint(factor.length - 1, l_width)
        if factor.mismatch is not None:
            writer.write_uint(factor.mismatch, symbol_width)


def read_edge_factors(
    reader: BitReader, reference_length: int, symbol_width: int
) -> list[EdgeFactor]:
    """Inverse of :func:`write_edge_factors`."""
    s_width = uint_width(reference_length)
    l_width = uint_width(max(reference_length - 1, 0))
    count = expgolomb.decode_unsigned(reader)
    if count == 0:
        return []
    last_has_mismatch = reader.read_bit() == 1
    factors: list[EdgeFactor] = []
    for index in range(count):
        start = reader.read_uint(s_width)
        if start == reference_length:
            factors.append(EdgeFactor(start, None, reader.read_uint(symbol_width)))
            continue
        length = reader.read_uint(l_width) + 1
        is_last = index == count - 1
        if is_last and not last_has_mismatch:
            factors.append(EdgeFactor(start, length, None))
        else:
            factors.append(
                EdgeFactor(start, length, reader.read_uint(symbol_width))
            )
    return factors


# ----------------------------------------------------------------------
# T' factors
# ----------------------------------------------------------------------
def factorize_flags(
    target: Sequence[int], reference: Sequence[int]
) -> list[FlagFactor] | None:
    """Greedy inferred-mismatch factorization of a bit-string.

    Returns ``None`` when the grammar cannot express ``target`` against
    ``reference`` (callers fall back to raw bits).  An exact copy of the
    reference yields the empty list (the paper's ``Com = emptyset``).
    """
    if list(target) == list(reference):
        return []
    if not target:
        # an empty factor list means "copy the reference"; an empty target
        # that differs from the reference needs the raw fallback
        return None
    occurrences = _occurrences(reference)
    factors: list[FlagFactor] = []
    i = 0
    n = len(target)
    m = len(reference)
    while i < n:
        # candidate maximal matches at every viable start
        best_final: tuple[int, int] | None = None  # match reaching target end
        best_mid: tuple[int, int] | None = None  # match with inferable M
        for start in occurrences.get(target[i], ()):
            length = 0
            while (
                i + length < n
                and start + length < m
                and target[i + length] == reference[start + length]
            ):
                length += 1
            if length == 0:
                continue
            if i + length == n:
                if best_final is None or length > best_final[1]:
                    best_final = (start, length)
            if start + length < m and i + length < n:
                if best_mid is None or length > best_mid[1]:
                    best_mid = (start, length)
        if best_final is not None:
            factors.append(FlagFactor(best_final[0], best_final[1], None))
            return factors
        if best_mid is None:
            return None
        start, length = best_mid
        if i + length + 1 == n:
            # the mismatch is the final target bit: keep it explicit (§4.2)
            factors.append(
                FlagFactor(start, length, target[i + length])
            )
            return factors
        factors.append(FlagFactor(start, length, None))
        i += length + 1
    return factors


def apply_flag_factors(
    factors: Sequence[FlagFactor], reference: Sequence[int]
) -> list[int]:
    """Reconstruct a T' bit-string from its factors and reference."""
    if not factors:
        return list(reference)
    output: list[int] = []
    for index, factor in enumerate(factors):
        end = factor.start + factor.length
        if end > len(reference):
            raise ValueError(f"factor {factor} exceeds the reference length")
        output.extend(reference[factor.start : end])
        if factor.mismatch is not None:
            output.append(factor.mismatch)
        elif index < len(factors) - 1:
            if end >= len(reference):
                raise ValueError(
                    f"non-final factor {factor} has no inferable mismatch"
                )
            output.append(1 - reference[end])
    return output


def write_flag_stream(
    writer: BitWriter,
    target: Sequence[int],
    reference: Sequence[int],
) -> None:
    """Serialize T' referentially, falling back to raw bits when needed.

    Layout: mode bit (0 factored / 1 raw).  Factored: factor count
    (Exp-Golomb), has-final-M bit, then per factor ``S`` and ``L-1`` in
    ``ceil(log2(|T'(Ref)|))`` bits, the final factor's ``M`` in 1 bit when
    present.  Raw: the target bits verbatim — no length field, because
    the decoder reads T' *after* decoding the edge sequence and therefore
    already knows ``|T'| = |E| - 2``.
    """
    factors = factorize_flags(target, reference)
    width = uint_width(max(len(reference) - 1, 0))
    factored_cost = None
    if factors is not None:
        factored_cost = expgolomb.encoded_length(len(factors))
        if factors:
            factored_cost += 1  # has-M flag
            factored_cost += sum(2 * width for _ in factors)
            if factors[-1].mismatch is not None:
                factored_cost += 1
    raw_cost = len(target)
    if factored_cost is not None and factored_cost <= raw_cost:
        writer.write_bit(0)
        expgolomb.encode_unsigned(writer, len(factors))
        if factors:
            writer.write_bit(1 if factors[-1].mismatch is not None else 0)
            for factor in factors:
                writer.write_uint(factor.start, width)
                writer.write_uint(factor.length - 1, width)
            if factors[-1].mismatch is not None:
                writer.write_bit(factors[-1].mismatch)
    else:
        writer.write_bit(1)
        writer.write_bits(target)


def read_flag_stream(
    reader: BitReader,
    reference: Sequence[int],
    target_length: int,
) -> list[int]:
    """Inverse of :func:`write_flag_stream`: returns the target bits.

    ``target_length`` is ``|E(target)| - 2``, known from the already
    decoded edge sequence.
    """
    raw_mode = reader.read_bit() == 1
    if raw_mode:
        return reader.read_bits(target_length)
    width = uint_width(max(len(reference) - 1, 0))
    count = expgolomb.decode_unsigned(reader)
    if count == 0:
        return list(reference)
    has_final_m = reader.read_bit() == 1
    pairs = [
        (reader.read_uint(width), reader.read_uint(width) + 1)
        for _ in range(count)
    ]
    final_m = reader.read_bit() if has_final_m else None
    factors = [
        FlagFactor(start, length, None) for start, length in pairs[:-1]
    ]
    factors.append(FlagFactor(pairs[-1][0], pairs[-1][1], final_m))
    return apply_flag_factors(factors, reference)


# ----------------------------------------------------------------------
# D factors
# ----------------------------------------------------------------------
def distance_patches(
    target: Sequence[float],
    reference_decoded: Sequence[float],
    eta: float,
) -> list[tuple[int, float]]:
    """Positions where the reference's *decoded* distances are not an
    ``eta``-accurate stand-in for the target's, with replacement values.

    Comparing against the decoded reference keeps the end-to-end error of
    every non-reference distance within ``eta`` even though the reference
    itself was stored lossily.
    """
    if len(target) != len(reference_decoded):
        raise ValueError(
            "instances of one uncertain trajectory must have equally many "
            f"distances (got {len(target)} vs {len(reference_decoded)})"
        )
    patches: list[tuple[int, float]] = []
    for index, (value, proxy) in enumerate(zip(target, reference_decoded)):
        if abs(value - proxy) > eta:
            patches.append((index, value))
    return patches


def write_distance_patches(
    writer: BitWriter,
    patches: Sequence[tuple[int, float]],
    reference_length: int,
    eta: float,
) -> None:
    """Serialize (pos, rd) patches; rd uses direct PDDP fraction codes."""
    pos_width = uint_width(max(reference_length - 1, 0))
    length_width = uint_width(max_code_length(eta))
    expgolomb.encode_unsigned(writer, len(patches))
    for position, value in patches:
        writer.write_uint(position, pos_width)
        code, length, _ = fraction_word(value, eta)
        writer.append_bits((length << length) | code, length_width + length)


def read_distance_patches(
    reader: BitReader, reference_length: int, eta: float
) -> list[tuple[int, float]]:
    """Inverse of :func:`write_distance_patches`."""
    pos_width = uint_width(max(reference_length - 1, 0))
    length_width = uint_width(max_code_length(eta))
    count = expgolomb.decode_unsigned(reader)
    patches: list[tuple[int, float]] = []
    for _ in range(count):
        position = reader.read_uint(pos_width)
        patches.append((position, read_fraction(reader, length_width)))
    return patches


def apply_distance_patches(
    reference_decoded: Sequence[float],
    patches: Sequence[tuple[int, float]],
) -> list[float]:
    """Reference distances with patches applied."""
    output = list(reference_decoded)
    for position, value in patches:
        output[position] = value
    return output
