"""The StIU index: Spatio-temporal Information based Uncertain Trajectory
Index (§5.2).

Two layers, each holding only the fields a query reads:

* **temporal** — built at compression time and stored (the ``.stiu``
  sidecar).  The day is split into equal intervals; each uncertain
  trajectory stores, per intersecting interval, its earliest timestamp
  in the interval (``t.start``).  The paper's tuple also carries that
  timestamp's index and a bit position in the time stream (``t.no``,
  ``t.pos``) to resume decoding mid-stream; queries here decode a whole
  time stream through the decode cache, so neither is kept.
* **spatial** — derived from the records on first use, one interval at a
  time, never stored (it is a pure function of the records, the network
  and the grid).  The network is partitioned into grid regions; within each
  time interval, every trajectory links to the regions its instances
  traverse.  Reference tuples carry the final vertex (the vertex
  traversed immediately before entering the region, Definition 9) and
  the pruning aggregates ``p_total`` / ``p_max`` over the reference's
  representation set.  A reference that never enters the region itself
  (but whose non-references do) stores the ``fv = inf`` form.  A
  non-reference has a tuple per E-factor covering a region entry (a
  factor spanning several regions is indexed only at the first, §5.2);
  only their number per region is kept, for Fig. 9's size model.  The
  paper's ``fv.no``, ``d.pos``, ``rv.id``, ``rv.no`` and ``ma.pos``
  locate a resume point in a payload, and every payload here is decoded
  from its start.
"""

from __future__ import annotations

import bisect
import threading
from array import array
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

from ..core.archive import (
    CompressedArchive,
    CompressedTrajectory,
    CorruptPayloadError,
)
from ..core.decoder import decode_times, decode_trajectory_edges
from ..network.graph import RoadNetwork
from ..network.grid import GridPartition

INFINITE_VERTEX = -1  # the paper's "fv.id = infinity" marker


# Column type codes of the reference tuples (fields as in the module
# docstring): (instance index, fv.id — or INFINITE_VERTEX —, p_total,
# p_max).
REFERENCE_TYPES = "iidd"


def between(starts: array, index: int) -> range:
    """The positions an offset column ``starts`` gives entry ``index``."""
    return range(starts[index], starts[index + 1])


class IntervalRows(NamedTuple):
    """The derived CSR of one time interval: its occupied regions in
    ascending order, and per region the pairs ``cell_start[s]`` to
    ``cell_start[s + 1]`` of the two pair columns, in ascending
    trajectory id."""

    cells: array
    cell_start: array
    trajectory_ids: array
    mass: array  # summed p_total of the pair's references (Lemma 4)

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
    * per region row, ascending cell within a block: ``cells``, the
      offsets ``reference_start`` into the reference columns and the
      running count ``non_reference_start`` of non-reference tuples (a
      trailing sentinel closes each offset column);
    * per reference tuple: ``references`` (four columns), in the field
      order given with their type codes above.

    A trajectory is active in every interval from its first temporal
    ``t.start``'s to its last's (``spans`` is the temporal layer's
    per-trajectory ascending starts).  An interval's CSR
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
        spans: dict[int, list[int]],
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
        starts = self._spans[trajectory_id]
        return starts[0] // self._partition, starts[-1] // self._partition

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
        starts, p_total = self.reference_start, self.references[2]
        pairs = []
        for trajectory_id in self._active[interval]:
            block = self._block(trajectory_id)
            if block is not None:
                # Lemma 4's mass of each row, summed in column order
                pairs += (
                    (
                        cells[row],
                        trajectory_id,
                        sum(p_total[starts[row] : starts[row + 1]]),
                    )
                    for row in between(region_start, block)
                )
        if not pairs:
            return None
        pairs.sort()
        cells_of_pairs, trajectories, mass = zip(*pairs)
        distinct = array("i", dict.fromkeys(cells_of_pairs))
        cell_start = array(
            "i",
            [bisect.bisect_left(cells_of_pairs, cell) for cell in distinct],
        )
        cell_start.append(len(pairs))
        # (ids are unbounded varints on disk; most fit four bytes)
        id_type = "i" if max(trajectories) < 2**31 else "q"
        return IntervalRows(
            distinct, cell_start, array(id_type, trajectories), array("d", mass)
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
        # the paper's (SV, 0, 0) convention)
        visits: list[dict[int, tuple[int, int]]] = []
        for instance in edges:
            first_visits: dict[int, tuple[int, int]] = {}
            current = instance.start_vertex
            for entry, number in enumerate(instance.edge_numbers):
                if number == 0:
                    continue
                hop = hops.get((current, number))
                if hop is None:
                    try:
                        end = network.edge_by_number(current, number).end
                    except KeyError as error:  # E damaged under a valid CRC
                        raise CorruptPayloadError.wrapping(error) from error
                    hop = (end, cells_of_edge(network, current, end))
                    hops[(current, number)] = hop
                for region in hop[1]:
                    if region not in first_visits:
                        first_visits[region] = (entry, current)
                current = hop[0]
            visits.append(first_visits)

        groups: dict[int, list[int]] = {}
        for index, instance in enumerate(instances):
            groups.setdefault(instance.reference_ordinal, []).append(index)
        probability = [instance.probability for instance in instances]
        # (cell, then the tuple's columns), in the order the rows are
        # made: a stable sort by cell then gives each cell's rows in
        # group order
        reference_rows: list[tuple] = []
        # per cell, its count of non-reference tuples
        non_reference_counts: dict[int, int] = {}
        for members in groups.values():
            reference = next(i for i in members if instances[i].is_reference)
            reference_visits = visits[reference]
            if len(members) == 1:
                # alone: p_total is its probability, p_max has nothing to
                # range over, and it enters every region itself
                p = probability[reference]
                reference_rows += (
                    (region, reference, vertex, p, 0.0)
                    for region, (_, vertex) in reference_visits.items()
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
                    # only represented instances enter: fv = inf
                    vertex = INFINITE_VERTEX if visit is None else visit[1]
                    reference_rows.append(
                        (region, reference, vertex, p_total, p_max)
                    )

            # non-reference tuples: the factor covering each region's
            # entry, at the first region only when it spans several
            for member in members:
                if member == reference:
                    continue
                # E-entry index one past the span each factor reproduces
                span_ends = list(
                    accumulate(f.consumed for f in edges[member].factors)
                )
                end = 0  # where the factor of the previous tuple ends
                for region, (entry, _) in visits[member].items():
                    # entries only grow along a walk: one before ``end``
                    # is in the factor already indexed
                    if entry < end:
                        continue
                    factor = bisect.bisect_right(span_ends, entry)
                    if factor == len(span_ends):
                        break  # past the last factor, as is every later one
                    end = span_ends[factor]
                    non_reference_counts[region] = (
                        non_reference_counts.get(region, 0) + 1
                    )

        if not reference_rows:
            return None
        # append the block: rows in ascending cell order, one extend per
        # column (every region with a non-reference tuple has a reference
        # row, so the reference rows give the block's cells)
        reference_rows.sort(key=itemgetter(0))
        row_cells, *columns = zip(*reference_rows)
        # each cell's rows end one past its last row
        ends = {cell: k for k, cell in enumerate(row_cells, 1)}
        cells = list(ends)
        base = len(self.references[0])
        self.reference_start += array("i", [base + k for k in ends.values()])
        for column, values in zip(self.references, columns):
            column += array(column.typecode, values)
        self.non_reference_start += array(
            "i",
            accumulate(
                (non_reference_counts.get(cell, 0) for cell in cells),
                initial=self.non_reference_start[-1],
            ),
        )[1:]
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
            index._trajectory_starts.update(part._trajectory_starts)
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
        # temporal[interval][trajectory_id] -> t.start
        self.temporal: dict[int, dict[int, int]] = {}
        # per trajectory, its t.start values ascending; the spatial
        # layer reads its spans here, so fill it, never rebind it
        self._trajectory_starts: dict[int, list[int]] = {}
        self.spatial = SpatialLayer(
            network,
            self.grid,
            archive,
            self._trajectory_starts,
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
        starts: list[int] = []
        previous = None
        for t in times:  # ascending, so an interval's first t comes first
            interval = self.interval_of(t)
            if interval != previous:
                previous = interval
                starts.append(t)
                self.temporal.setdefault(interval, {})[
                    trajectory.trajectory_id
                ] = t
        self._trajectory_starts[trajectory.trajectory_id] = starts

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def trajectories_in_interval(self, t: int) -> tuple[int, ...]:
        """Sorted ids active in ``t``'s interval: every interval from a
        trajectory's first timestamp to its last (the temporal layer has
        a tuple only in those holding one).  The memoised tuple itself:
        immutable, so callers share it."""
        return self.spatial.active(self.interval_of(t))

    # ------------------------------------------------------------------
    # size accounting (Fig. 9)
    # ------------------------------------------------------------------
    # The byte model of the paper's tuple layout, every field of §5.2
    # counted, not of the columns this index keeps: Fig. 9 reports the
    # paper's index size.
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
