"""The StIU index: Spatio-temporal Information based Uncertain Trajectory
Index (§5.2).

Two layers:

* **temporal** — built at compression time and stored (the ``.stiu``
  sidecar).  The day is split into equal intervals; each uncertain
  trajectory stores, per intersecting interval, a tuple ``(t.start,
  t.no, t.pos)``: its earliest timestamp in the interval, that
  timestamp's index, and the bit position of the *next* deviation code in
  the compressed time stream, so decoding can resume mid-stream.
* **spatial** — derived from the records on first use, one interval at a
  time, never stored (it is a pure function of the records, the network
  and the grid).  The network is partitioned into grid regions; within each
  time interval, every trajectory links to the regions its instances
  traverse.  Reference tuples carry the final vertex (the vertex
  traversed immediately before entering the region, Definition 9), its
  position in ``E``, the bit position of the corresponding relative
  distance in ``D̂``, and the pruning aggregates ``p_total`` / ``p_max``
  over the reference's representation set.  A reference that never enters
  the region itself (but whose non-references do) stores the ``fv = inf``
  form.  Non-reference tuples carry the anchor vertex of the E-factor
  covering the region entry and that factor's bit position (``ma.pos``);
  a factor spanning several regions is indexed only at the first (§5.2).
"""

from __future__ import annotations

import bisect
import threading
from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from ..core.archive import CompressedArchive, CompressedTrajectory
from ..core.decoder import decode_times, decode_trajectory_edges
from ..network.graph import RoadNetwork
from ..network.grid import GridPartition

INFINITE_VERTEX = -1  # the paper's "fv.id = infinity" marker


@dataclass(frozen=True)
class TemporalTuple:
    """(t.start, t.no, t.pos) for one trajectory in one time interval."""

    start: int
    number: int
    bit_position: int


# Column type codes of the spatial tuples (fields as in the module
# docstring).  A reference tuple is (instance index, fv.id — or
# INFINITE_VERTEX —, fv.no, d.pos, p_total, p_max); a non-reference
# tuple is (instance index, rv.id, rv.no, ma.pos).
REFERENCE_TYPES = "iiiidd"
NON_REFERENCE_TYPES = "iiii"


def between(starts: array, index: int) -> range:
    """The positions an offset column ``starts`` gives entry ``index``."""
    return range(starts[index], starts[index + 1])


class IntervalRows(NamedTuple):
    """The derived CSR of one time interval: its occupied regions in
    ascending order, and per region the pairs ``cell_start[s]`` to
    ``cell_start[s + 1]`` of the three pair columns, in ascending
    trajectory id."""

    cells: array
    cell_start: array
    trajectory_ids: array
    mass: array  # summed p_total of the pair's references (Lemma 4)
    rows: array  # the pair's region row in :class:`SpatialLayer`

    def span(self, first_cell: int, last_cell: int) -> range:
        """Pair positions of the cells from ``first_cell`` to
        ``last_cell`` inclusive (one slice: the pairs are cell-major)."""
        return range(
            self.cell_start[bisect.bisect_left(self.cells, first_cell)],
            self.cell_start[bisect.bisect_right(self.cells, last_cell)],
        )


class SpatialLayer:
    """The spatial layer as columns, derived from the records on first use.

    Every row is a pure function of a record, the network and the grid,
    so none is stored.  A trajectory's region tuples do not depend on the
    time interval, so each trajectory is derived once, as one block of
    rows, appended in the order blocks are derived:

    * per block: ``trajectory_ids``, and ``region_start`` (its region
      rows are ``between(region_start, b)``);
    * per region row, ascending cell within a block: ``cells``, and the
      offsets ``reference_start`` / ``non_reference_start`` into the
      tuple columns (a trailing sentinel closes each offset column);
    * per tuple: ``references`` (six columns) and ``non_references``
      (four), in the field orders given with their type codes above.

    A trajectory is active in every interval from its first temporal
    tuple's to its last's (``spans`` is the temporal layer's
    per-trajectory tuple lists).  An interval's CSR
    (:class:`IntervalRows`) is derived once, from the blocks of the
    trajectories active in it, and is immutable after.  All derivation
    runs under one lock; the columns only grow, so a row number once
    handed out stays valid.
    """

    def __init__(
        self,
        network: RoadNetwork,
        grid: GridPartition,
        archive,
        spans: dict[int, list[TemporalTuple]],
        time_partition_seconds: int,
    ) -> None:
        self.network = network
        self.grid = grid
        self.archive = archive
        self._spans = spans
        self._partition = time_partition_seconds
        self.trajectory_ids = array("q")
        self.cells = array("i")
        self.references = tuple(array(code) for code in REFERENCE_TYPES)
        self.non_references = tuple(array(c) for c in NON_REFERENCE_TYPES)
        self.region_start = array("i", [0])
        self.reference_start = array("i", [0])
        self.non_reference_start = array("i", [0])
        self._block_of: dict[int, int | None] = {}
        self._active: dict[int, tuple[int, ...]] | None = None
        self._intervals: dict[int, IntervalRows | None] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # accessors (each derives what it needs on first use)
    # ------------------------------------------------------------------
    def span(self, trajectory_id: int) -> tuple[int, int]:
        """The first and last interval ``trajectory_id`` is active in."""
        tuples = self._spans[trajectory_id]
        return (
            tuples[0].start // self._partition,
            tuples[-1].start // self._partition,
        )

    def active(self, interval: int) -> tuple[int, ...]:
        """Ascending ids of the trajectories active in ``interval`` (a
        memoised tuple: immutable, so callers share it)."""
        return self._active_intervals().get(interval, ())

    def block_of(self, trajectory_id: int) -> int | None:
        """The block of ``trajectory_id``, ``None`` if it has no rows."""
        if trajectory_id not in self._block_of:
            with self._lock:
                return self._block(trajectory_id)
        return self._block_of[trajectory_id]

    def row_of(self, trajectory_id: int, cell: int) -> int | None:
        """The region row of ``trajectory_id`` in ``cell``, if any."""
        block = self.block_of(trajectory_id)
        if block is None:
            return None
        rows = between(self.region_start, block)
        k = bisect.bisect_left(self.cells, cell, rows.start, rows.stop)
        return k if k < rows.stop and self.cells[k] == cell else None

    def interval_rows(self, interval: int) -> IntervalRows | None:
        """The CSR of ``interval``; ``None`` when nothing is active."""
        if interval not in self._intervals:
            if not self.active(interval):
                return None  # nothing to derive, and nothing kept
            with self._lock:
                if interval not in self._intervals:
                    self._intervals[interval] = self._derive_interval(
                        interval
                    )
        return self._intervals[interval]

    def intervals(self) -> dict[int, IntervalRows]:
        """The full view: every interval's CSR, deriving all of them."""
        result = {}
        for interval in sorted(self._active_intervals()):
            rows = self.interval_rows(interval)
            if rows is not None:
                result[interval] = rows
        return result

    def _active_intervals(self) -> dict[int, tuple[int, ...]]:
        if self._active is None:
            with self._lock:
                if self._active is None:
                    active: dict[int, list[int]] = {}
                    for trajectory_id in sorted(self._spans):
                        if self._spans[trajectory_id]:
                            first, last = self.span(trajectory_id)
                            for interval in range(first, last + 1):
                                active.setdefault(interval, []).append(
                                    trajectory_id
                                )
                    self._active = {
                        interval: tuple(ids) for interval, ids in active.items()
                    }
        return self._active

    # ------------------------------------------------------------------
    # derivation (the lock is held)
    # ------------------------------------------------------------------
    def _block(self, trajectory_id: int) -> int | None:
        if trajectory_id not in self._block_of:
            if not self._spans.get(trajectory_id):
                return None  # not indexed: nothing derived, nothing kept
            self._block_of[trajectory_id] = self._derive_block(trajectory_id)
        return self._block_of[trajectory_id]

    def _derive_interval(self, interval: int) -> IntervalRows | None:
        region_start, cells = self.region_start, self.cells
        pairs = []
        for trajectory_id in self._active[interval]:
            block = self._block(trajectory_id)
            if block is not None:
                pairs += (
                    (cells[row], trajectory_id, row)
                    for row in between(region_start, block)
                )
        if not pairs:
            return None
        pairs.sort()
        cells_of_pairs, trajectories, rows = zip(*pairs)
        distinct = array("i", dict.fromkeys(cells_of_pairs))
        cell_start = array(
            "i",
            [bisect.bisect_left(cells_of_pairs, cell) for cell in distinct],
        )
        cell_start.append(len(rows))
        # (ids are unbounded varints on disk; most fit four bytes)
        id_type = "i" if max(trajectories) < 2**31 else "q"
        starts, p_total = self.reference_start, self.references[4]
        return IntervalRows(
            distinct,
            cell_start,
            array(id_type, trajectories),
            # Lemma 4's mass of each row, summed in column order
            array("d", [sum(p_total[starts[r] : starts[r + 1]]) for r in rows]),
            array("i", rows),
        )

    def _derive_block(self, trajectory_id: int) -> int | None:
        """The kernel: derive and append one trajectory's block in one
        pass over its instances, or ``None`` when it enters no region."""
        trajectory = self.archive.trajectory(trajectory_id)
        instances = trajectory.instances
        edges = decode_trajectory_edges(trajectory, self.archive.params)
        network = self.network
        cells_of_edge = self.grid.cells_of_edge
        hops = self.grid.hop_table(network)
        # per instance, each region's first visit in walk order, as
        # (E-entry index, final vertex): the vertex the path stands at
        # when it enters the region (the start vertex for the first,
        # the paper's (SV, 0, 0) convention).  Non-references also keep
        # the vertex they stand at before each E entry.
        visits: list[dict[int, tuple[int, int]]] = []
        standings: list[list[int] | None] = []
        for instance in edges:
            first_visits: dict[int, tuple[int, int]] = {}
            standing = None if instance.factors is None else []
            current = instance.start_vertex
            for entry, number in enumerate(instance.edge_numbers):
                if standing is not None:
                    standing.append(current)
                if number == 0:
                    continue
                hop = hops.get((current, number))
                if hop is None:
                    end = network.edge_by_number(current, number).end
                    hop = (end, cells_of_edge(network, current, end))
                    hops[(current, number)] = hop
                for region in hop[1]:
                    if region not in first_visits:
                        first_visits[region] = (entry, current)
                current = hop[0]
            visits.append(first_visits)
            standings.append(standing)

        groups: dict[int, list[int]] = {}
        for index, instance in enumerate(instances):
            groups.setdefault(instance.reference_ordinal, []).append(index)
        probability = [instance.probability for instance in instances]
        # (cell, then the tuple's columns), in the order the rows are
        # made: a stable sort by cell then gives each cell's rows in
        # group order
        reference_rows: list[tuple] = []
        non_reference_rows: list[tuple] = []
        for members in groups.values():
            reference = next(i for i in members if instances[i].is_reference)
            reference_visits = visits[reference]
            positions = instances[reference].distance_positions
            # d.pos per E entry: the bit offset of the gamma[fv.no]-th rd
            # in D̂(Ref), gamma counting mapped locations up to the entry
            if positions:
                last = len(positions)
                d_pos = [
                    positions[max(min(located, last) - 1, 0)]
                    for located in accumulate(edges[reference].time_flags)
                ]
            else:
                d_pos = [0] * len(edges[reference].time_flags)
            if len(members) == 1:
                # alone: p_total is its probability, p_max has nothing to
                # range over, and it enters every region itself
                p = probability[reference]
                reference_rows += (
                    (region, reference, vertex, entry, d_pos[entry], p, 0.0)
                    for region, (entry, vertex) in reference_visits.items()
                )
            else:
                # which members enter each region, as a bit per member
                entered: dict[int, int] = {}
                for bit, member in enumerate(members):
                    flag = 1 << bit
                    for region in visits[member]:
                        entered[region] = entered.get(region, 0) | flag
                aggregates: dict[int, tuple[float, float]] = {}
                for region, mask in entered.items():
                    if mask not in aggregates:
                        # p_total is summed in the iteration order of the
                        # set of the entering members, in member order
                        present = set(
                            [m for k, m in enumerate(members) if mask >> k & 1]
                        )
                        aggregates[mask] = (
                            sum([probability[m] for m in present]),
                            max(
                                [
                                    probability[m]
                                    for m in present
                                    if m != reference
                                ],
                                default=0.0,
                            ),
                        )
                    p_total, p_max = aggregates[mask]
                    visit = reference_visits.get(region)
                    if visit is None:  # only represented instances enter
                        entry, vertex, d = 0, INFINITE_VERTEX, 0
                    else:
                        entry, vertex = visit
                        d = d_pos[entry]
                    reference_rows.append(
                        (region, reference, vertex, entry, d, p_total, p_max)
                    )

            # non-reference tuples: the factor covering each region's
            # entry, at the first region only when it spans several
            for member in members:
                if member == reference:
                    continue
                factor_positions = instances[member].factor_positions
                # E-entry index one past the span each factor reproduces
                span_ends = list(
                    accumulate(f.consumed for f in edges[member].factors)
                )
                standing = standings[member]
                end = 0  # where the factor of the previous row ends
                for region, (entry, _) in visits[member].items():
                    # entries only grow along a walk: one before ``end``
                    # is in the factor already indexed
                    if entry < end:
                        continue
                    factor = bisect.bisect_right(span_ends, entry)
                    if factor == len(span_ends):
                        break  # past the last factor, as is every later one
                    end = span_ends[factor]
                    span_start = span_ends[factor - 1] if factor else 0
                    non_reference_rows.append(
                        (
                            region,
                            member,
                            standing[span_start],
                            span_start,
                            factor_positions[factor]
                            if factor < len(factor_positions)
                            else 0,
                        )
                    )

        if not reference_rows:
            return None
        # append the block: rows in ascending cell order, one extend per
        # column (every region with a non-reference row has a reference
        # row, so the reference rows give the block's cells)
        cell_of_row = itemgetter(0)
        reference_rows.sort(key=cell_of_row)
        non_reference_rows.sort(key=cell_of_row)
        row_cells, *columns = zip(*reference_rows)
        # each cell's rows end one past its last row
        ends = {cell: k for k, cell in enumerate(row_cells, 1)}
        cells = list(ends)
        base = len(self.references[0])
        self.reference_start += array("i", [base + k for k in ends.values()])
        for column, values in zip(self.references, columns):
            column += array(column.typecode, values)
        base = len(self.non_references[0])
        if non_reference_rows:
            ends = {row[0]: k for k, row in enumerate(non_reference_rows, 1)}
            starts, k = [], 0
            for cell in cells:
                k = ends.get(cell, k)
                starts.append(base + k)
            self.non_reference_start += array("i", starts)
            _, *columns = zip(*non_reference_rows)
            for column, values in zip(self.non_references, columns):
                column += array(column.typecode, values)
        else:
            self.non_reference_start += array("i", [base]) * len(cells)
        block = len(self.trajectory_ids)
        self.cells += array("i", cells)
        self.region_start.append(len(self.cells))
        self.trajectory_ids.append(trajectory_id)
        return block


class StIUIndex:
    """The paper's StIU index over a compressed archive.

    ``archive`` may be an in-memory :class:`CompressedArchive` or a lazy
    :class:`~repro.io.reader.FileBackedArchive` — the index only needs
    ``params``, iteration over ``trajectories``, and ``trajectory(id)``.
    Building over a file parses one trajectory at a time and keeps no
    record, so peak memory stays bounded by one record, not the
    dataset.  The build makes the temporal layer; :attr:`spatial`
    derives its rows from ``archive.trajectory(id)`` when a query first
    needs them.
    """

    @classmethod
    def over_file(
        cls,
        network: RoadNetwork,
        path,
        *,
        grid_cells_per_side: int = 32,
        time_partition_seconds: int = 1800,
    ) -> "StIUIndex":
        """Open ``path`` lazily and index it, preferring the sidecar.

        The archive's ``.stiu`` sidecar is loaded when it exists and
        matches the archive; otherwise the temporal layer is built from
        the records.  ``index.loaded_from_sidecar`` records which path
        was taken.

        The file-backed archive stays open for the index's lifetime (and
        is reachable as ``index.archive`` for a query processor); close
        it via ``index.archive.close()`` when done.
        """
        from ..io.reader import FileBackedArchive
        from .sidecar import load_or_build_index

        archive = FileBackedArchive.open(path)
        try:
            index, _ = load_or_build_index(
                network,
                archive,
                path,
                grid_cells_per_side=grid_cells_per_side,
                time_partition_seconds=time_partition_seconds,
            )
            return index
        except Exception:
            archive.close()
            raise

    @classmethod
    def merged(
        cls,
        network: RoadNetwork,
        archive,
        parts: list["StIUIndex"],
        *,
        grid_cells_per_side: int = 32,
        time_partition_seconds: int = 1800,
    ) -> "StIUIndex":
        """Union per-segment indexes into one index over their union.

        Trajectory ids are globally unique across a stream archive's
        segments, so merging is a plain dict union of the temporal
        layers — the result answers exactly as a build over the combined
        archive.  Its spatial rows are derived from ``archive`` (the
        union) when they are first needed.
        """
        index = cls(
            network,
            archive,
            grid_cells_per_side=grid_cells_per_side,
            time_partition_seconds=time_partition_seconds,
            build=False,
        )
        parts = list(parts)
        for part in parts:
            for interval, entries in part.temporal.items():
                index.temporal.setdefault(interval, {}).update(entries)
            index._trajectory_tuples.update(part._trajectory_tuples)
        index.loaded_from_sidecar = bool(parts) and all(
            part.loaded_from_sidecar for part in parts
        )
        return index

    def __init__(
        self,
        network: RoadNetwork,
        archive: CompressedArchive,
        *,
        grid_cells_per_side: int = 32,
        time_partition_seconds: int = 1800,
        build: bool = True,
    ) -> None:
        """``build=False`` creates an empty shell whose temporal layer
        the sidecar loader or :meth:`merged` fills in; every normal
        caller wants the default build."""
        if time_partition_seconds < 1:
            raise ValueError("time partition must be at least one second")
        self.network = network
        self.archive = archive
        self.time_partition_seconds = time_partition_seconds
        self.grid = GridPartition.for_network(network, grid_cells_per_side)
        self.loaded_from_sidecar = False
        # temporal[interval][trajectory_id] -> TemporalTuple
        self.temporal: dict[int, dict[int, TemporalTuple]] = {}
        # per-trajectory sorted temporal tuples for binary search; the
        # spatial layer reads its spans here, so fill it, never rebind it
        self._trajectory_tuples: dict[int, list[TemporalTuple]] = {}
        # memoized per-trajectory start arrays (the layer is immutable
        # once built/loaded)
        self._tuple_starts: dict[int, list[int]] = {}
        self.spatial = SpatialLayer(
            network,
            self.grid,
            archive,
            self._trajectory_tuples,
            time_partition_seconds,
        )
        if build:
            for trajectory in archive.trajectories:
                self._build_temporal(
                    trajectory, decode_times(trajectory, archive.params)
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def interval_of(self, t: int) -> int:
        return t // self.time_partition_seconds

    def _build_temporal(
        self, trajectory: CompressedTrajectory, times: list[int]
    ) -> None:
        tuples: list[TemporalTuple] = []
        seen_intervals: set[int] = set()
        positions = trajectory.deviation_positions
        end_position = trajectory.time_payload_bits
        for number, t in enumerate(times):
            interval = self.interval_of(t)
            if interval in seen_intervals:
                continue
            seen_intervals.add(interval)
            bit_position = (
                positions[number] if number < len(positions) else end_position
            )
            entry = TemporalTuple(t, number, bit_position)
            tuples.append(entry)
            self.temporal.setdefault(interval, {})[
                trajectory.trajectory_id
            ] = entry
        self._trajectory_tuples[trajectory.trajectory_id] = tuples

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def temporal_tuple_for(
        self, trajectory_id: int, t: int
    ) -> TemporalTuple | None:
        """Binary-search the trajectory's tuples for the latest one with
        ``t.start <= t`` (the paper's Example 3 lookup)."""
        tuples = self._trajectory_tuples.get(trajectory_id)
        if not tuples:
            return None
        starts = self._tuple_starts.get(trajectory_id)
        if starts is None:
            starts = [entry.start for entry in tuples]
            self._tuple_starts[trajectory_id] = starts
        position = bisect.bisect_right(starts, t) - 1
        if position < 0:
            return None
        return tuples[position]

    def trajectories_in_interval(self, t: int) -> tuple[int, ...]:
        """Sorted ids active in ``t``'s interval: every interval from a
        trajectory's first timestamp to its last (the temporal layer has
        a tuple only in those holding one).  The memoised tuple itself:
        immutable, so callers share it."""
        return self.spatial.active(self.interval_of(t))

    # ------------------------------------------------------------------
    # size accounting (Fig. 9)
    # ------------------------------------------------------------------
    TEMPORAL_TUPLE_BYTES = 4 + 2 + 4  # t.start, t.no, t.pos
    REFERENCE_TUPLE_BYTES = 4 + 2 + 4 + 4 + 4  # fv.id, fv.no, d.pos, pt, pm
    REFERENCE_INF_TUPLE_BYTES = 4 + 4 + 4  # fv=inf form
    NONREFERENCE_TUPLE_BYTES = 4 + 2 + 4  # rv.id, rv.no, ma.pos

    def temporal_size_bytes(self) -> int:
        return sum(
            self.TEMPORAL_TUPLE_BYTES * len(entries) + 8
            for entries in self.temporal.values()
        )

    def spatial_size_bytes(self) -> int:
        """8 bytes per occupied (interval, region) plus each tuple once
        per interval its trajectory is active in."""
        layer = self.spatial
        total = 8 * sum(len(rows.cells) for rows in layer.intervals().values())
        for block, trajectory_id in enumerate(layer.trajectory_ids):
            first_interval, last_interval = layer.span(trajectory_id)
            rows = between(layer.region_start, block)
            first = layer.reference_start[rows.start]
            last = layer.reference_start[rows.stop]
            infinite = layer.references[1][first:last].count(INFINITE_VERTEX)
            non_references = (
                layer.non_reference_start[rows.stop]
                - layer.non_reference_start[rows.start]
            )
            total += (
                self.REFERENCE_TUPLE_BYTES * (last - first - infinite)
                + self.REFERENCE_INF_TUPLE_BYTES * infinite
                + self.NONREFERENCE_TUPLE_BYTES * non_references
            ) * (last_interval - first_interval + 1)
        return total

    def size_bytes(self) -> int:
        return self.temporal_size_bytes() + self.spatial_size_bytes()
