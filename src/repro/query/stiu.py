"""The StIU index: Spatio-temporal Information based Uncertain Trajectory
Index (§5.2).

Two layers, built at compression time:

* **temporal** — the day is split into equal intervals; each uncertain
  trajectory stores, per intersecting interval, a tuple ``(t.start,
  t.no, t.pos)``: its earliest timestamp in the interval, that
  timestamp's index, and the bit position of the *next* deviation code in
  the compressed time stream, so decoding can resume mid-stream.
* **spatial** — the network is partitioned into grid regions; within each
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
from typing import NamedTuple

from ..core.archive import CompressedArchive, CompressedTrajectory
from ..core.decoder import (
    InstanceEdges,
    decode_times,
    decode_trajectory_edges,
)
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

    def row_of(self, cell: int, trajectory_id: int) -> int | None:
        """The region row of ``trajectory_id`` in ``cell``, if any."""
        pairs = self.span(cell, cell)
        ids = self.trajectory_ids
        k = bisect.bisect_left(ids, trajectory_id, pairs.start, pairs.stop)
        found = k < pairs.stop and ids[k] == trajectory_id
        return self.rows[k] if found else None


class SpatialLayer:
    """The spatial layer as columns, in the ``.stiu`` section's order.

    A trajectory's region tuples do not depend on the time interval, so
    each trajectory is stored once, as one block of rows:

    * per trajectory: ``trajectory_ids``, its ``first_interval`` /
      ``last_interval`` span, and ``region_start`` (its region rows are
      ``between(region_start, b)``);
    * per region row, ascending cell within a block: ``cells``, and the
      offsets ``reference_start`` / ``non_reference_start`` into the
      tuple columns (a trailing sentinel closes each offset column);
    * per tuple: ``references`` (six columns) and ``non_references``
      (four), in the field orders given with their type codes above.

    The per-interval CSR (:class:`IntervalRows`) is derived from the
    blocks on first use, so saving or concatenating never builds it.
    """

    OFFSETS = ("region_start", "reference_start", "non_reference_start")

    def __init__(self) -> None:
        self.trajectory_ids = array("q")
        self.first_interval = array("q")
        self.last_interval = array("q")
        self.cells = array("i")
        self.references = tuple(array(code) for code in REFERENCE_TYPES)
        self.non_references = tuple(array(c) for c in NON_REFERENCE_TYPES)
        for name in self.OFFSETS:
            setattr(self, name, array("i", [0]))
        self._intervals: dict[int, IntervalRows] | None = None
        self._lock = threading.Lock()

    def _columns(self) -> tuple[array, ...]:
        return (
            self.trajectory_ids,
            self.first_interval,
            self.last_interval,
            self.cells,
            *self.references,
            *self.non_references,
        )

    @classmethod
    def concatenated(cls, layers: list["SpatialLayer"]) -> "SpatialLayer":
        """The blocks of ``layers`` one after another (their trajectory
        ids must be disjoint)."""
        layer = cls()
        for part in layers:
            for name in cls.OFFSETS:
                mine = getattr(layer, name)
                base = mine[-1]
                mine.extend([base + k for k in getattr(part, name)[1:]])
            for mine, theirs in zip(layer._columns(), part._columns()):
                mine.extend(theirs)
        return layer

    def append_trajectory(
        self,
        trajectory_id: int,
        first: int,
        last: int,
        regions: dict[int, tuple[list[tuple], list[tuple]]],
    ) -> None:
        """Append one block: ``regions`` maps each cell to its reference
        and non-reference rows (tuples in column order)."""
        self.trajectory_ids.append(trajectory_id)
        self.first_interval.append(first)
        self.last_interval.append(last)
        for cell in sorted(regions):
            self.cells.append(cell)
            for columns, rows, starts in zip(
                (self.references, self.non_references),
                regions[cell],
                (self.reference_start, self.non_reference_start),
            ):
                for column, values in zip(columns, zip(*rows)):
                    column.extend(values)
                starts.append(len(columns[0]))
        self.region_start.append(len(self.cells))

    def intervals(self) -> dict[int, IntervalRows]:
        """The per-interval CSR, derived on first call."""
        with self._lock:
            if self._intervals is None:
                self._intervals = self._derive_intervals()
        return self._intervals

    def _derive_intervals(self) -> dict[int, IntervalRows]:
        starts, p_total = self.reference_start, self.references[4]
        mass = array("d")  # per region row, Lemma 4's summed p_total
        for row in range(len(self.cells)):
            mass.append(sum(p_total[starts[row] : starts[row + 1]]))
        active: dict[int, list[int]] = {}
        for block in range(len(self.trajectory_ids)):
            for interval in range(
                self.first_interval[block], self.last_interval[block] + 1
            ):
                active.setdefault(interval, []).append(block)
        ids = self.trajectory_ids
        # (ids are unbounded varints on disk; most fit four bytes)
        id_type = "i" if max(ids, default=0) < 2**31 else "q"
        result: dict[int, IntervalRows] = {}
        for interval in sorted(active):
            pairs = sorted(
                (self.cells[row], ids[block], row)
                for block in active[interval]
                for row in between(self.region_start, block)
            )
            if not pairs:  # only a damaged section has empty blocks
                continue
            cells, trajectories, rows = zip(*pairs)
            distinct = array("i", dict.fromkeys(cells))
            cell_start = array(
                "i", [bisect.bisect_left(cells, cell) for cell in distinct]
            )
            cell_start.append(len(rows))
            result[interval] = IntervalRows(
                distinct,
                cell_start,
                array(id_type, trajectories),
                array("d", [mass[row] for row in rows]),
                array("i", rows),
            )
        return result


class StIUIndex:
    """The paper's StIU index over a compressed archive.

    ``archive`` may be an in-memory :class:`CompressedArchive` or a lazy
    :class:`~repro.io.reader.FileBackedArchive` — the index only needs
    ``params``, iteration over ``trajectories``, and ``trajectory(id)``.
    Building over a file parses one trajectory at a time and keeps no
    record, so peak memory stays bounded by one record, not the
    dataset.
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
        matches the archive; otherwise the index is built from the
        records.  ``index.loaded_from_sidecar`` records which path was
        taken.

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
        segments, so merging is a plain dict union of the temporal layer
        and a concatenation of the spatial blocks — the result answers
        exactly as a build over the combined archive.  The spatial layer
        stays lazy: nothing is concatenated (and parts loaded from
        sidecars keep their deflated sections unparsed) until the first
        spatial access on the merged index.
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
        if parts:
            index._spatial_loader = lambda: SpatialLayer.concatenated(
                [part.spatial for part in parts]
            )
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
        """``build=False`` creates an empty shell whose ``temporal`` /
        ``spatial`` structures the sidecar loader fills in; every normal
        caller wants the default full build."""
        if time_partition_seconds < 1:
            raise ValueError("time partition must be at least one second")
        self.network = network
        self.archive = archive
        self.time_partition_seconds = time_partition_seconds
        self.grid = GridPartition.for_network(network, grid_cells_per_side)
        self.loaded_from_sidecar = False
        # temporal[interval][trajectory_id] -> TemporalTuple
        self.temporal: dict[int, dict[int, TemporalTuple]] = {}
        # per-trajectory sorted temporal tuples for binary search
        self._trajectory_tuples: dict[int, list[TemporalTuple]] = {}
        # memoized sorted candidate lists per interval and per-trajectory
        # start arrays (index is immutable once built/loaded)
        self._interval_candidates: dict[int, tuple[int, ...]] = {}
        self._tuple_starts: dict[int, list[int]] = {}
        # sidecar loads and merges materialize it lazily (the property)
        self._spatial = SpatialLayer()
        self._spatial_loader = None
        self._spatial_lock = threading.Lock()
        if build:
            self._build()

    @property
    def spatial(self) -> SpatialLayer:
        if self._spatial_loader is not None:
            with self._spatial_lock:
                loader = self._spatial_loader
                if loader is not None:
                    try:
                        spatial = loader()
                    except Exception:
                        # corrupt spatial section (only discovered now —
                        # the sidecar parses it lazily): fall back to
                        # building it from the archive, like a stale
                        # sidecar would have at open time
                        self._spatial_loader = None
                        self._rebuild_spatial()
                    else:
                        self._spatial = spatial
                        self._spatial_loader = None
        return self._spatial

    def _rebuild_spatial(self) -> None:
        """Recompute the spatial layer from the archive (loader fallback)."""
        self._spatial = SpatialLayer()
        for trajectory in self.archive.trajectories:
            self._build_spatial(trajectory)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def interval_of(self, t: int) -> int:
        return t // self.time_partition_seconds

    def _build(self) -> None:
        params = self.archive.params
        for trajectory in self.archive.trajectories:
            self._build_temporal(trajectory, decode_times(trajectory, params))
            self._build_spatial(trajectory)

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

    def _build_spatial(self, trajectory: CompressedTrajectory) -> None:
        """Append one trajectory's block: its region tuples do not
        depend on the time interval, so they are derived once for the
        whole span the trajectory is active in."""
        edges = decode_trajectory_edges(trajectory, self.archive.params)
        walks = [self._walk(instance) for instance in edges]
        groups: dict[int, list[int]] = {}
        for index, instance in enumerate(trajectory.instances):
            groups.setdefault(instance.reference_ordinal, []).append(index)
        regions: dict[int, tuple[list[tuple], list[tuple]]] = {}
        for members in groups.values():
            self._index_group(trajectory, edges, walks, members, regions)
        if regions:
            self._spatial.append_trajectory(
                trajectory.trajectory_id,
                self.interval_of(trajectory.start_time),
                self.interval_of(trajectory.end_time),
                regions,
            )

    def _walk(
        self, instance: InstanceEdges
    ) -> tuple[list[tuple[int, int, int]], list[int]]:
        """One pass along an instance's path: ``(region, E-entry index,
        final vertex)`` for each region at its first entry, and the
        vertex the path stands at before each ``E`` entry.

        The final vertex of the first region is the start vertex (the
        paper's ``(SV, 0, 0)`` convention).
        """
        network = self.network
        cells_of_edge = self.grid.cells_of_edge
        visits: list[tuple[int, int, int]] = []
        seen: set[int] = set()
        standing: list[int] = []
        current = instance.start_vertex
        for entry_index, number in enumerate(instance.edge_numbers):
            standing.append(current)
            if number == 0:
                continue
            end = network.edge_by_number(current, number).end
            for region in cells_of_edge(network, current, end):
                if region not in seen:
                    seen.add(region)
                    visits.append((region, entry_index, current))
            current = end
        return visits, standing

    def _index_group(
        self,
        trajectory: CompressedTrajectory,
        edges: list[InstanceEdges],
        walks: list[tuple[list[tuple[int, int, int]], list[int]]],
        members: list[int],
        regions: dict[int, tuple[list[tuple], list[tuple]]],
    ) -> None:
        """Append the rows of one reference and its representation set
        (``members``, in instance order) to ``regions``."""
        instances = trajectory.instances
        reference_index = next(i for i in members if instances[i].is_reference)
        distance_positions = instances[reference_index].distance_positions
        # gamma: mapped locations up to and including each E entry
        located = list(accumulate(edges[reference_index].time_flags))

        # regions touched by anyone in the group
        group_regions: dict[int, list[int]] = {}
        for member in members:
            for region, _, _ in walks[member][0]:
                group_regions.setdefault(region, []).append(member)
        reference_visits = {
            region: (entry, fv)
            for region, entry, fv in walks[reference_index][0]
        }

        for region, overlapping in group_regions.items():
            # p_total is summed in this set's iteration order, which the
            # persisted float depends on
            present = set(overlapping)
            p_total = sum(instances[m].probability for m in present)
            p_max = max(
                (
                    instances[m].probability
                    for m in present
                    if m != reference_index
                ),
                default=0.0,
            )
            visit = reference_visits.get(region)
            if visit is None:
                row = (reference_index, INFINITE_VERTEX, 0, 0, p_total, p_max)
            else:
                entry_number, final_vertex = visit
                # d.pos: bit offset of the gamma[fv.no]-th rd in D̂(Ref)
                d_no = max(
                    min(located[entry_number], len(distance_positions)) - 1, 0
                )
                row = (
                    reference_index,
                    final_vertex,
                    entry_number,
                    distance_positions[d_no] if distance_positions else 0,
                    p_total,
                    p_max,
                )
            regions.setdefault(region, ([], []))[0].append(row)

        # non-reference tuples: anchor factor per region (first region only
        # when one factor spans several regions)
        for member in members:
            if member == reference_index:
                continue
            factor_positions = instances[member].factor_positions
            # E-entry index one past the span each factor reproduces
            span_ends = list(
                accumulate(factor.consumed for factor in edges[member].factors)
            )
            visits, standing = walks[member]
            previous_factor = -1
            for region, entry_index, _ in visits:
                # entries only grow along a walk, so a repeated factor is
                # the previous one
                factor_index = bisect.bisect_right(span_ends, entry_index)
                if (
                    factor_index == len(span_ends)
                    or factor_index == previous_factor
                ):
                    continue
                previous_factor = factor_index
                span_start = span_ends[factor_index - 1] if factor_index else 0
                regions[region][1].append(
                    (
                        member,
                        standing[span_start],
                        span_start,
                        factor_positions[factor_index]
                        if factor_index < len(factor_positions)
                        else 0,
                    )
                )

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
        """Sorted ids active in ``t``'s interval: the spatial layer's,
        which lists a trajectory in every interval from its first
        timestamp to its last (the temporal layer only in those holding
        one).  The memoised tuple itself: immutable, so callers share
        it."""
        interval = self.interval_of(t)
        cached = self._interval_candidates.get(interval)
        if cached is None:
            rows = self.spatial.intervals().get(interval)
            cached = tuple(sorted(set(rows.trajectory_ids))) if rows else ()
            self._interval_candidates[interval] = cached
        return cached

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
        for block in range(len(layer.trajectory_ids)):
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
            ) * (layer.last_interval[block] - layer.first_interval[block] + 1)
        return total

    def size_bytes(self) -> int:
        return self.temporal_size_bytes() + self.spatial_size_bytes()
