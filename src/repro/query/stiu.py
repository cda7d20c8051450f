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
from dataclasses import dataclass, field
from itertools import accumulate

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


@dataclass(frozen=True)
class ReferenceTuple:
    """Spatial tuple of a reference w.r.t. one region.

    ``final_vertex`` is :data:`INFINITE_VERTEX` when the reference itself
    never enters the region (§5.2 case ii).
    """

    instance_index: int
    final_vertex: int
    entry_number: int  # fv.no: E-entry index of the edge entering the region
    distance_position: int  # d.pos: bit offset of the d.no-th rd in D̂
    p_total: float
    p_max: float


@dataclass(frozen=True)
class NonReferenceTuple:
    """Spatial tuple of a non-reference w.r.t. one region."""

    instance_index: int
    anchor_vertex: int  # rv.id
    anchor_number: int  # rv.no: position of rv in E(Nref)
    factor_position: int  # ma.pos: bit offset of the covering factor


@dataclass
class RegionEntry:
    """All tuples of one trajectory for one (interval, region) pair."""

    references: list[ReferenceTuple] = field(default_factory=list)
    non_references: list[NonReferenceTuple] = field(default_factory=list)


class StIUIndex:
    """The paper's StIU index over a compressed archive.

    ``archive`` may be an in-memory :class:`CompressedArchive` or a lazy
    :class:`~repro.io.reader.FileBackedArchive` — the index only needs
    ``params``, iteration over ``trajectories``, and ``trajectory(id)``.
    Building over a file streams one trajectory at a time through the
    reader's LRU cache, so peak memory stays bounded by the cache, not
    the dataset.
    """

    @classmethod
    def over_file(
        cls,
        network: RoadNetwork,
        path,
        *,
        cache_size: int | None = None,
        grid_cells_per_side: int = 32,
        time_partition_seconds: int = 1800,
        sidecar: object = "auto",
        write_sidecar: bool = False,
    ) -> "StIUIndex":
        """Open ``path`` lazily and index it, preferring the sidecar.

        ``sidecar`` is the persistence policy: ``"auto"`` loads the
        default ``<path>.stiu`` sidecar when it exists and matches the
        archive (falling back to a full build otherwise), an explicit
        path loads that file, and ``None`` always rebuilds.  With
        ``write_sidecar`` a freshly built index is persisted so the next
        open is warm.  ``index.loaded_from_sidecar`` records which path
        was taken.

        The file-backed archive stays open for the index's lifetime (and
        is reachable as ``index.archive`` for a query processor); close
        it via ``index.archive.close()`` when done.
        """
        from ..io.reader import DEFAULT_CACHE_SIZE, FileBackedArchive
        from . import sidecar as sidecar_io

        archive = FileBackedArchive.open(
            path, cache_size=cache_size or DEFAULT_CACHE_SIZE
        )
        try:
            if sidecar is not None:
                sidecar_path = (
                    sidecar_io.sidecar_path_for(path)
                    if sidecar == "auto"
                    else sidecar
                )
                index = sidecar_io.load_index(
                    network,
                    archive,
                    path,
                    sidecar_path=sidecar_path,
                    grid_cells_per_side=grid_cells_per_side,
                    time_partition_seconds=time_partition_seconds,
                )
                if index is not None:
                    return index
            index = cls(
                network,
                archive,
                grid_cells_per_side=grid_cells_per_side,
                time_partition_seconds=time_partition_seconds,
            )
            if write_sidecar:
                sidecar_io.save_index(
                    index,
                    path,
                    sidecar_path=(
                        None if sidecar in (None, "auto") else sidecar
                    ),
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
        segments, so merging is a plain dict union per layer — the
        result is structurally identical to building over the combined
        archive.  The spatial layer stays lazy: parts loaded from
        sidecars keep their deflated sections unparsed until the first
        spatial lookup on the merged index.
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

            def merge_spatial():
                spatial: dict[int, dict[int, dict[int, RegionEntry]]] = {}
                for part in parts:
                    for interval, region_map in part.spatial.items():
                        target = spatial.setdefault(interval, {})
                        for region, entry_map in region_map.items():
                            target.setdefault(region, {}).update(entry_map)
                return spatial

            index._spatial_loader = merge_spatial
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
        # spatial[interval][region][trajectory_id] -> RegionEntry;
        # sidecar loads materialize it lazily through the property
        self._spatial: dict[int, dict[int, dict[int, RegionEntry]]] = {}
        self._spatial_loader = None
        self._spatial_lock = threading.Lock()
        if build:
            self._build()

    @property
    def spatial(self) -> dict[int, dict[int, dict[int, RegionEntry]]]:
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
        self._spatial = {}
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

    def _active_intervals(self, trajectory: CompressedTrajectory) -> range:
        first = self.interval_of(trajectory.start_time)
        last = self.interval_of(trajectory.end_time)
        return range(first, last + 1)

    def _build_spatial(self, trajectory: CompressedTrajectory) -> None:
        """Index one trajectory: its region tuples do not depend on the
        time interval, so they are derived once and the same
        :class:`RegionEntry` is entered under every interval the
        trajectory is active in."""
        edges = decode_trajectory_edges(trajectory, self.archive.params)
        walks = [self._walk(instance) for instance in edges]
        groups: dict[int, list[int]] = {}
        for index, instance in enumerate(trajectory.instances):
            groups.setdefault(instance.reference_ordinal, []).append(index)
        regions: dict[int, RegionEntry] = {}
        for members in groups.values():
            self._index_group(trajectory, edges, walks, members, regions)
        for interval in self._active_intervals(trajectory):
            interval_map = self._spatial.setdefault(interval, {})
            for region, entry in regions.items():
                interval_map.setdefault(region, {})[
                    trajectory.trajectory_id
                ] = entry

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
        regions: dict[int, RegionEntry],
    ) -> None:
        """Append the tuples of one reference and its representation set
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
                tuple_ = ReferenceTuple(
                    reference_index, INFINITE_VERTEX, 0, 0, p_total, p_max
                )
            else:
                entry_number, final_vertex = visit
                # d.pos: bit offset of the gamma[fv.no]-th rd in D̂(Ref)
                d_no = max(
                    min(located[entry_number], len(distance_positions)) - 1, 0
                )
                tuple_ = ReferenceTuple(
                    reference_index,
                    final_vertex,
                    entry_number,
                    distance_positions[d_no] if distance_positions else 0,
                    p_total,
                    p_max,
                )
            entry = regions.get(region)
            if entry is None:
                entry = regions[region] = RegionEntry()
            entry.references.append(tuple_)

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
                regions[region].non_references.append(
                    NonReferenceTuple(
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
        """Sorted ids with a temporal tuple in ``t``'s interval (the
        memoised tuple itself: immutable, so callers share it)."""
        interval = self.interval_of(t)
        cached = self._interval_candidates.get(interval)
        if cached is None:
            cached = tuple(sorted(self.temporal.get(interval, {})))
            self._interval_candidates[interval] = cached
        return cached

    def region_entries(
        self, interval: int, region: int
    ) -> dict[int, RegionEntry]:
        return self.spatial.get(interval, {}).get(region, {})

    def entries_for_trajectory(
        self, interval: int, region: int, trajectory_id: int
    ) -> RegionEntry | None:
        return self.region_entries(interval, region).get(trajectory_id)

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
        total = 0
        for interval_map in self.spatial.values():
            for region_map in interval_map.values():
                total += 8  # region key
                for entry in region_map.values():
                    for reference in entry.references:
                        if reference.final_vertex == INFINITE_VERTEX:
                            total += self.REFERENCE_INF_TUPLE_BYTES
                        else:
                            total += self.REFERENCE_TUPLE_BYTES
                    total += self.NONREFERENCE_TUPLE_BYTES * len(
                        entry.non_references
                    )
        return total

    def size_bytes(self) -> int:
        return self.temporal_size_bytes() + self.spatial_size_bytes()
