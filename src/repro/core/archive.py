"""Compressed-archive container and size accounting.

An archive holds, per uncertain trajectory, one compressed time stream
(shared by all instances) and one compressed payload per instance
(reference or non-reference).  Payloads are real bit streams — every
reported size is the length of serialized bits, not an estimate.

Size accounting follows the paper's Table 8 breakdown: ``T`` (time),
``E`` (edge sequences incl. start vertices), ``D`` (relative distances),
``T'`` (time-flag bit-strings), and ``p`` (probabilities), plus an
``overhead`` bucket for structural fields the paper does not attribute
(instance counts, reference flags and indices).  Original sizes use the
paper's conventions: 32-bit timestamps, vertex ids, edge-sequence
entries, distances, and probabilities; T' costs one bit per flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bits.bitio import uint_width


class CorruptPayloadError(ValueError):
    """A payload that cannot be decoded: it reads past its end, names an
    edge number its vertex does not have, or decodes to data the model
    rejects.  A record's CRC can be valid and its payload still be one
    (a bit flipped before the CRC was computed)."""

    @classmethod
    def wrapping(cls, error: Exception) -> "CorruptPayloadError":
        detail = error
        if isinstance(error, KeyError) and error.args:
            # a KeyError's str() is the repr of its message
            detail = error.args[0]
        return cls(f"undecodable payload: {detail}")


#: What the bit readers, the network tables and the model raise on a
#: damaged payload; the decoders turn each into a CorruptPayloadError.
DECODE_FAILURES = (EOFError, IndexError, KeyError, ValueError)


@dataclass
class ComponentBits:
    """Bit counts per TED component."""

    time: int = 0
    edge: int = 0
    distance: int = 0
    flags: int = 0
    probability: int = 0
    overhead: int = 0

    @property
    def total(self) -> int:
        return (
            self.time
            + self.edge
            + self.distance
            + self.flags
            + self.probability
            + self.overhead
        )

    def add(self, other: "ComponentBits") -> None:
        self.time += other.time
        self.edge += other.edge
        self.distance += other.distance
        self.flags += other.flags
        self.probability += other.probability
        self.overhead += other.overhead


@dataclass
class CompressionStats:
    """Original vs compressed bit counts with per-component ratios."""

    original: ComponentBits = field(default_factory=ComponentBits)
    compressed: ComponentBits = field(default_factory=ComponentBits)

    def add(self, other: "CompressionStats") -> None:
        self.original.add(other.original)
        self.compressed.add(other.compressed)

    @staticmethod
    def _ratio(original: int, compressed: int) -> float:
        if compressed == 0:
            return float("inf") if original > 0 else 1.0
        return original / compressed

    @property
    def total_ratio(self) -> float:
        return self._ratio(self.original.total, self.compressed.total)

    @property
    def time_ratio(self) -> float:
        return self._ratio(self.original.time, self.compressed.time)

    @property
    def edge_ratio(self) -> float:
        return self._ratio(self.original.edge, self.compressed.edge)

    @property
    def distance_ratio(self) -> float:
        return self._ratio(self.original.distance, self.compressed.distance)

    @property
    def flags_ratio(self) -> float:
        return self._ratio(self.original.flags, self.compressed.flags)

    @property
    def probability_ratio(self) -> float:
        return self._ratio(self.original.probability, self.compressed.probability)

    def as_row(self) -> dict[str, float]:
        """Table 8-style row: Total / T / E / D / T' / p ratios."""
        return {
            "Total": self.total_ratio,
            "T": self.time_ratio,
            "E": self.edge_ratio,
            "D": self.distance_ratio,
            "T'": self.flags_ratio,
            "p": self.probability_ratio,
        }


@dataclass(frozen=True)
class CompressionParams:
    """Archive-wide compression parameters.

    ``eta_distance`` / ``eta_probability`` are the PDDP error bounds
    (Table 7); ``default_interval`` is the dataset's ``Ts``;
    ``symbol_width`` is ``ceil(log2(o+1))`` bits for edge numbers (and
    the 0 repeat marker); ``t0_bits`` sizes the SIAR first-timestamp
    field; ``pivot_count`` is the reference-selection pivot budget.
    """

    eta_distance: float
    eta_probability: float
    default_interval: int
    symbol_width: int
    t0_bits: int = 17
    pivot_count: int = 1


def reference_index_width(reference_count: int) -> int:
    """Bits of the reference index that opens a non-reference payload."""
    return uint_width(max(reference_count - 1, 0))


@dataclass
class CompressedInstance:
    """One serialized instance payload plus what pruning reads.

    ``payload``/``payload_bits`` are the real bit stream.  For references
    the stream is ``p, |E|, E, T'(trimmed), D(PDDP)``; for non-references
    it is ``p, ref_index, ComE, ComT', ComD``, the index
    :func:`reference_index_width` bits wide.  Every stream is decoded
    from its start, so no section offset is kept; ``probability`` is the
    value of the leading ``p`` code, which the ``.utcq`` format does not
    store a second time.
    """

    is_reference: bool
    payload: bytes
    payload_bits: int
    start_vertex: int | None  # references only (32-bit accounted)
    reference_ordinal: int  # position among the trajectory's references
    probability: float  # decoded value, read by pruning without a decode


@dataclass
class CompressedTrajectory:
    """One compressed uncertain trajectory.

    ``stats`` is size accounting, not content: the compressor fills it
    in, the ``.utcq`` format keeps only the archive-wide sum (in the
    header), so a trajectory parsed from disk carries ``None`` and
    equality ignores the field.
    """

    trajectory_id: int
    time_payload: bytes
    time_payload_bits: int
    point_count: int
    start_time: int
    end_time: int
    instances: list[CompressedInstance]
    stats: CompressionStats | None = field(default=None, compare=False)

    @property
    def reference_count(self) -> int:
        return sum(1 for i in self.instances if i.is_reference)

    def references(self) -> list[CompressedInstance]:
        return [i for i in self.instances if i.is_reference]

    def reference_by_ordinal(self, ordinal: int) -> CompressedInstance:
        for instance in self.instances:
            if instance.is_reference and instance.reference_ordinal == ordinal:
                return instance
        raise KeyError(f"no reference with ordinal {ordinal}")


@dataclass
class CompressedArchive:
    """A compressed collection of uncertain trajectories.

    ``stats`` defaults to the sum over ``trajectories``; trajectories
    parsed from disk carry none, so an archive assembled from them needs
    ``stats=`` (the sum of the header stats of the files they came from).
    """

    params: CompressionParams
    trajectories: list[CompressedTrajectory]
    stats: CompressionStats = field(default_factory=CompressionStats)

    def __post_init__(self) -> None:
        if not self.stats.original.total:
            for trajectory in self.trajectories:
                if trajectory.stats is None:
                    raise ValueError(
                        f"trajectory {trajectory.trajectory_id} was parsed "
                        f"from disk and carries no stats; pass stats="
                    )
                self.stats.add(trajectory.stats)

    @property
    def trajectory_count(self) -> int:
        return len(self.trajectories)

    @property
    def instance_count(self) -> int:
        return sum(len(t.instances) for t in self.trajectories)

    @property
    def compressed_bytes(self) -> int:
        return (self.stats.compressed.total + 7) // 8

    @property
    def original_bytes(self) -> int:
        return (self.stats.original.total + 7) // 8

    def trajectory(self, trajectory_id: int) -> CompressedTrajectory:
        id_map = self.__dict__.get("_id_map")
        if id_map is None or len(id_map) != len(self.trajectories):
            id_map = {t.trajectory_id: t for t in self.trajectories}
            self.__dict__["_id_map"] = id_map
        try:
            return id_map[trajectory_id]
        except KeyError:
            raise KeyError(
                f"no trajectory {trajectory_id} in the archive"
            ) from None

    def time_span(self, trajectory_id: int) -> tuple[int, int]:
        """``(start_time, end_time)`` of one trajectory."""
        trajectory = self.trajectory(trajectory_id)
        return trajectory.start_time, trajectory.end_time

    def save(self, path, *, provenance: dict[str, str] | None = None) -> int:
        """Serialize to the ``.utcq`` on-disk format; returns file size.

        See :mod:`repro.io.format` for the layout.  The round trip is
        bit-exact: ``CompressedArchive.load(path)`` restores payloads,
        probabilities and stats identical to this archive.
        """
        from ..io.format import write_archive

        return write_archive(self, path, provenance=provenance)

    @classmethod
    def load(cls, path) -> "CompressedArchive":
        """Eagerly read an archive written by :meth:`save`."""
        from ..io.format import read_archive

        return read_archive(path)

    @staticmethod
    def open(path, **kwargs):
        """Open an archive file lazily (per-trajectory loading).

        Returns a :class:`repro.io.reader.FileBackedArchive`, which the
        StIU index and query processor accept in place of an in-memory
        archive.
        """
        from ..io.reader import FileBackedArchive

        return FileBackedArchive.open(path, **kwargs)
