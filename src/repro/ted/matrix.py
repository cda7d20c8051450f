"""TED's length-grouped matrix compression of edge sequences (§2.3).

TED's E-compression has three steps: fixed-width codes, grouping
trajectories by code length into ``A x B`` matrices, and a "multiple
bases-based compression ... based on the observation that the highest bit
of each code in the matrix has a high probability of being 0".

The TKDE paper's exact base algorithm is not reproduced in the PVLDB
paper; our reconstruction (DESIGN.md §2) keeps the properties the
evaluation depends on.  A *base* is a per-column width vector; each row is
stored under the cheapest base that fits all of its entries, so columns
dominated by small outgoing-edge numbers shed their high zero bits.
Bases are chosen by a greedy search that scores every candidate width
vector against **every row of the matrix** — the dataset-wide,
super-linear matrix work that makes TED's compression slow and
memory-hungry in the paper's Figures 6, 7, and 12 (all ``E`` codes must
be resident before any base can be chosen).

Each group falls back to plain fixed-width encoding when the base headers
outweigh the savings (a per-group mode flag).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bits import expgolomb
from ..bits.bitio import BitReader, BitWriter, uint_width

MAX_BASES = 8
MAX_CANDIDATES = 32


def width_vector(row: tuple[int, ...]) -> tuple[int, ...]:
    """Per-column bit widths needed by one row (minimum 1 bit)."""
    return tuple(value.bit_length() or 1 for value in row)


def _fits(row_widths: tuple[int, ...], base: tuple[int, ...]) -> bool:
    for row_width, base_width in zip(row_widths, base):
        if row_width > base_width:
            return False
    return True


@dataclass
class MatrixGroup:
    """All edge sequences of one length, as a code matrix."""

    entry_count: int  # B: number of columns
    rows: list[tuple[int, ...]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # cached (symbol_width, use_bases, bases) — the base search scores
        # candidates against the whole matrix, so one plan is computed per
        # (group contents, symbol_width) and reused by serialized_size()
        # and serialize()
        self._plan_cache: tuple[int, bool, list[tuple[int, ...]]] | None = None

    def add_row(self, entries: tuple[int, ...]) -> int:
        """Append a row; returns its row index."""
        if len(entries) != self.entry_count:
            raise ValueError(
                f"row has {len(entries)} entries, group expects {self.entry_count}"
            )
        self.rows.append(entries)
        self._plan_cache = None
        return len(self.rows) - 1

    # ------------------------------------------------------------------
    # multiple-bases selection
    # ------------------------------------------------------------------
    def select_bases(self, symbol_width: int) -> list[tuple[int, ...]]:
        """Greedy base search over the whole matrix, pruned.

        Starts from the always-fitting column-maximum vector and adds the
        candidate width vector with the largest total saving until no
        candidate helps or ``MAX_BASES`` is reached.  Equivalent to
        scoring every candidate against every row, but evaluated over
        *distinct* width vectors weighted by frequency, with each
        vector's cheapest-fitting-base sum maintained incrementally —
        candidate scoring is a delta against that envelope instead of a
        fresh rows x bases scan per round.  The chosen bases (and their
        order) are identical to the exhaustive search's.
        """
        row_width_vectors = [width_vector(row) for row in self.rows]
        maxima = tuple(
            min(max(widths[c] for widths in row_width_vectors), symbol_width)
            for c in range(self.entry_count)
        )
        bases: list[tuple[int, ...]] = [maxima]

        frequency: dict[tuple[int, ...], int] = {}
        for widths in row_width_vectors:
            frequency[widths] = frequency.get(widths, 0) + 1
        candidates = sorted(
            frequency, key=lambda w: -frequency[w]
        )[:MAX_CANDIDATES]

        row_count = len(row_width_vectors)
        # cheapest fitting-base width sum per distinct row width vector
        # (the column-maximum base fits everything by construction)
        best_sum = dict.fromkeys(frequency, sum(maxima))
        header_extra = self.entry_count * uint_width(symbol_width)
        # which distinct vectors each candidate can host, computed once —
        # the greedy rounds below only compare width sums
        fit_lists = {
            candidate: (
                sum(candidate),
                [
                    (widths, count)
                    for widths, count in frequency.items()
                    if _fits(widths, candidate)
                ],
            )
            for candidate in candidates
        }

        while len(bases) < MAX_BASES:
            index_bits = uint_width(len(bases))  # one more base changes it
            current_cost = (
                sum(
                    best_sum[widths] * count
                    for widths, count in frequency.items()
                )
                + index_bits * row_count
            )
            best_candidate = None
            best_cost = current_cost
            for candidate in candidates:
                if candidate in bases:
                    continue
                candidate_sum, fitting = fit_lists[candidate]
                trial_cost = current_cost + header_extra
                for widths, count in fitting:
                    saving = best_sum[widths] - candidate_sum
                    if saving > 0:
                        trial_cost -= saving * count
                if trial_cost < best_cost:
                    best_cost = trial_cost
                    best_candidate = candidate
            if best_candidate is None:
                break
            bases.append(best_candidate)
            candidate_sum, fitting = fit_lists[best_candidate]
            for widths, _count in fitting:
                if candidate_sum < best_sum[widths]:
                    best_sum[widths] = candidate_sum
        return bases

    def _encoding_plan(
        self, symbol_width: int
    ) -> tuple[bool, list[tuple[int, ...]], list[int]]:
        """Decide plain vs multiple-bases mode.

        Returns ``(use_bases, bases, base_index_per_row)``; the per-row
        base choice is computed once per distinct width vector and cached
        with the plan so :meth:`serialize` and :meth:`serialized_size`
        never re-run the search.
        """
        cached = self._plan_cache
        if cached is not None and cached[0] == symbol_width:
            return cached[1], cached[2], cached[3]
        bases = self.select_bases(symbol_width)
        width_field = uint_width(symbol_width)
        index_bits = uint_width(len(bases) - 1)
        header = (
            expgolomb.encoded_length(len(bases))
            + len(bases) * self.entry_count * width_field
        )
        # (base index, row cost) per distinct width vector, matching
        # _best_base_index_and_cost (first base with the smallest cost)
        choice: dict[tuple[int, ...], tuple[int, int]] = {}
        base_index_per_row: list[int] = []
        based_cost = header
        for row in self.rows:
            widths = width_vector(row)
            chosen = choice.get(widths)
            if chosen is None:
                chosen = self._best_base_index_and_cost(row, bases, index_bits)
                choice[widths] = chosen
            base_index_per_row.append(chosen[0])
            based_cost += chosen[1]
        plain_cost = len(self.rows) * self.entry_count * symbol_width
        plan = (based_cost < plain_cost, bases, base_index_per_row)
        self._plan_cache = (symbol_width, *plan)
        return plan

    @staticmethod
    def _best_base_index_and_cost(
        row: tuple[int, ...],
        bases: list[tuple[int, ...]],
        index_bits: int,
    ) -> tuple[int, int]:
        widths = width_vector(row)
        best_index, best_cost = None, None
        for index, base in enumerate(bases):
            if _fits(widths, base):
                cost = index_bits + sum(base)
                if best_cost is None or cost < best_cost:
                    best_index, best_cost = index, cost
        if best_index is None:
            raise ValueError("no base fits the row")
        return best_index, best_cost

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def serialize(self, writer: BitWriter, symbol_width: int) -> None:
        """Write the group: header, mode flag, bases, and all rows."""
        expgolomb.encode_unsigned(writer, self.entry_count)
        expgolomb.encode_unsigned(writer, len(self.rows))
        use_bases, bases, base_index_per_row = self._encoding_plan(
            symbol_width
        )
        writer.write_bit(1 if use_bases else 0)
        if not use_bases:
            for row in self.rows:
                for value in row:
                    writer.write_uint(value, symbol_width)
            return
        width_field = uint_width(symbol_width)
        expgolomb.encode_unsigned(writer, len(bases))
        for base in bases:
            for width in base:
                writer.write_uint(width, width_field)
        index_bits = uint_width(len(bases) - 1)
        for row, base_index in zip(self.rows, base_index_per_row):
            writer.write_uint(base_index, index_bits)
            for value, width in zip(row, bases[base_index]):
                writer.write_uint(value, width)

    @classmethod
    def deserialize(cls, reader: BitReader, symbol_width: int) -> "MatrixGroup":
        entry_count = expgolomb.decode_unsigned(reader)
        row_count = expgolomb.decode_unsigned(reader)
        use_bases = reader.read_bit() == 1
        group = cls(entry_count)
        if not use_bases:
            for _ in range(row_count):
                group.rows.append(
                    tuple(
                        reader.read_uint(symbol_width)
                        for _ in range(entry_count)
                    )
                )
            return group
        width_field = uint_width(symbol_width)
        base_count = expgolomb.decode_unsigned(reader)
        bases = [
            tuple(reader.read_uint(width_field) for _ in range(entry_count))
            for _ in range(base_count)
        ]
        index_bits = uint_width(base_count - 1)
        for _ in range(row_count):
            base = bases[reader.read_uint(index_bits)]
            group.rows.append(
                tuple(reader.read_uint(width) for width in base)
            )
        return group

    def serialized_size(self, symbol_width: int) -> int:
        writer = BitWriter()
        self.serialize(writer, symbol_width)
        return len(writer)


class MatrixStore:
    """All matrix groups of a TED archive, keyed by sequence length.

    This is the memory hog the paper measures: TED "has to load all the
    E(.) for the preparation of matrix transformation and partitioning".
    """

    def __init__(self, symbol_width: int) -> None:
        self.symbol_width = symbol_width
        self.groups: dict[int, MatrixGroup] = {}

    def add_sequence(self, entries: tuple[int, ...]) -> tuple[int, int]:
        """Store one edge sequence; returns ``(group_key, row_index)``."""
        group = self.groups.setdefault(len(entries), MatrixGroup(len(entries)))
        return len(entries), group.add_row(entries)

    def sequence(self, group_key: int, row_index: int) -> tuple[int, ...]:
        return self.groups[group_key].rows[row_index]

    def serialized_size(self) -> int:
        """Total serialized bits over all groups (exact, by serializing)."""
        return sum(
            group.serialized_size(self.symbol_width)
            for group in self.groups.values()
        )

    def serialize(self, writer: BitWriter) -> None:
        expgolomb.encode_unsigned(writer, len(self.groups))
        for key in sorted(self.groups):
            self.groups[key].serialize(writer, self.symbol_width)

    @classmethod
    def deserialize(cls, reader: BitReader, symbol_width: int) -> "MatrixStore":
        store = cls(symbol_width)
        group_count = expgolomb.decode_unsigned(reader)
        for _ in range(group_count):
            group = MatrixGroup.deserialize(reader, symbol_width)
            store.groups[group.entry_count] = group
        return store
