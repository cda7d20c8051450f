"""Sample Interval Adaptive Representation of time sequences (§4.1).

TED stores a time sequence as ``(index, timestamp)`` boundary pairs and
degrades badly when sample intervals fluctuate (the common case; Fig. 4a).
SIAR instead keeps the first timestamp and, for each later timestamp, the
deviation of its interval from the dataset's default interval ``Ts``:

    T(Tu) = < t0, (t1-t0)-Ts, (t2-t1)-Ts, ... >

The deviations concentrate near zero, which the improved Exp-Golomb codec
(:mod:`repro.bits.expgolomb`) exploits.  ``t0`` is stored as a fixed-width
seconds-in-day field (17 bits by default, exactly the paper's running
example); day-crossing sequences use the ``t0_bits`` override.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bits import expgolomb
from ..bits.bitio import BitReader, BitWriter

DEFAULT_T0_BITS = 17  # enough for 86400 seconds-in-day


@dataclass(frozen=True)
class SiarSequence:
    """A time sequence in SIAR form."""

    t0: int
    deviations: tuple[int, ...]
    default_interval: int

    @property
    def length(self) -> int:
        return len(self.deviations) + 1


def represent(times: list[int], default_interval: int) -> SiarSequence:
    """Convert absolute timestamps to SIAR form."""
    if not times:
        raise ValueError("cannot represent an empty time sequence")
    if default_interval < 1:
        raise ValueError(f"default interval must be >= 1, got {default_interval}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("timestamps must strictly increase")
    deviations = tuple(
        (b - a) - default_interval for a, b in zip(times, times[1:])
    )
    return SiarSequence(times[0], deviations, default_interval)


def restore(sequence: SiarSequence) -> list[int]:
    """Convert SIAR form back to absolute timestamps."""
    times = [sequence.t0]
    for deviation in sequence.deviations:
        times.append(times[-1] + sequence.default_interval + deviation)
    return times


def encode(
    writer: BitWriter,
    times: list[int],
    default_interval: int,
    *,
    t0_bits: int = DEFAULT_T0_BITS,
) -> SiarSequence:
    """Serialize ``times`` (SIAR + improved Exp-Golomb) onto ``writer``.

    Layout: ``t0`` (fixed ``t0_bits``), point count (Exp-Golomb), then one
    Exp-Golomb code per deviation.
    """
    sequence = represent(times, default_interval)
    if sequence.t0 >= (1 << t0_bits):
        raise ValueError(
            f"t0 {sequence.t0} does not fit in {t0_bits} bits; "
            "raise t0_bits or rebase timestamps"
        )
    writer.write_uint(sequence.t0, t0_bits)
    expgolomb.encode_unsigned(writer, len(times))
    for deviation in sequence.deviations:
        expgolomb.encode(writer, deviation)
    return sequence


def read_head(
    data: bytes, bit_count: int, *, t0_bits: int = DEFAULT_T0_BITS
) -> tuple[int, int]:
    """``(t0, point count)``: the two fields an encoded stream opens with."""
    reader = BitReader(data, bit_count)
    return reader.read_uint(t0_bits), expgolomb.decode_unsigned(reader)


def decode(
    reader: BitReader,
    default_interval: int,
    *,
    t0_bits: int = DEFAULT_T0_BITS,
) -> list[int]:
    """Inverse of :func:`encode`."""
    t0 = reader.read_uint(t0_bits)
    count = expgolomb.decode_unsigned(reader)
    deviations = tuple(expgolomb.decode(reader) for _ in range(count - 1))
    return restore(SiarSequence(t0, deviations, default_interval))


def encoded_size_bits(
    times: list[int],
    default_interval: int,
    *,
    t0_bits: int = DEFAULT_T0_BITS,
) -> int:
    """Exact serialized size of :func:`encode` without materializing it."""
    sequence = represent(times, default_interval)
    return (
        t0_bits
        + expgolomb.encoded_length(len(times))
        + sum(expgolomb.encoded_length(d) for d in sequence.deviations)
    )
