"""Probabilistic where / when / range queries over compressed data (§5.3-5.4).

All three queries run against the :class:`~repro.query.stiu.StIUIndex`
without full decompression:

* **where(Tu_j, t, alpha)** — Definition 10.  The temporal index says
  whether the trajectory has a timestamp at or before t; only instances
  with decoded probability >= alpha are decoded, and each position is
  interpolated along the instance's path (t is bracketed in the time
  stream once, for every instance).
* **when(Tu_j, <edge, rd>, alpha)** — Definition 11.  The spatial index
  fetches the trajectory's tuples for the region (one row: they do not
  depend on the time interval); Lemma 1 skips a reference's whole
  representation set when its ``p_max`` (and its own probability) is
  below alpha.
* **range(Tu, RE, t_q, alpha)** — Definition 12.  Candidates are the
  trajectories the temporal layer lists as active in t_q's interval.
  Lemma 4 prunes those whose indexed probability mass near RE cannot
  reach alpha, in one walk over the interval's pairs in RE's cells: a
  pair whose own mass reaches alpha admits its trajectory outright, and
  only the other pairs are summed.  A survivor alive at t_q has t_q
  bracketed in its time stream once; each instance turns that bracket
  into its point at t_q, tested against RE's closed bounds, most
  probable instance first; Lemma 3 accepts as soon as the confirmed
  mass reaches alpha.  Lemma 2 (classify the bracketing sub-path as
  inside / disjoint / boundary, so only boundary instances need their
  distances D) is not applied: the position test needs the decoded
  instance anyway, so classifying after the decode saves nothing.  The
  form that would pay classifies from E and T' before D is decoded.

Each query reads a trajectory through one lookup of its
:class:`~repro.core.decoder.TrajectoryBlock` in the shared
:class:`~repro.core.decoder.DecodeSpanCache`: the parsed record, the
time stream decoded once, the instances in probability order with their
total mass (range) and each reference's non-references (when), and one
chainage slot per instance, decoded the first time a query reads it.
Probing a filled slot takes no lock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.archive import CompressedArchive, CompressedTrajectory
from ..core.decoder import DecodeSpanCache, TrajectoryBlock, decode_times
from ..network.graph import RoadNetwork
from ..network.grid import Rect
from ..trajectories.model import EdgeKey
from ..trajectories.path import InstanceChainage, time_bracket
from .stiu import INFINITE_VERTEX, IntervalRows, StIUIndex


class QueryEngineError(Exception):
    """Raised for malformed batch specs or unusable shards."""


class UnknownEdgeError(QueryEngineError):
    """A when spec names an edge the road network does not hold."""


@dataclass(frozen=True)
class WhereResult:
    """A located instance: the paper's ``<(vs -> ve), ndist>`` plus context."""

    trajectory_id: int
    instance_index: int
    edge: EdgeKey
    ndist: float
    probability: float


@dataclass(frozen=True)
class WhenResult:
    """A passing time of one instance for the queried location."""

    trajectory_id: int
    instance_index: int
    time: float
    probability: float


@dataclass
class QueryCounters:
    """Instrumentation: how much work the filters avoided."""

    instances_decoded: int = 0
    instances_pruned: int = 0
    trajectories_pruned: int = 0
    trajectories_time_pruned: int = 0

    def reset(self) -> None:
        self.instances_decoded = 0
        self.instances_pruned = 0
        self.trajectories_pruned = 0
        self.trajectories_time_pruned = 0


class UTCQQueryProcessor:
    """Query engine over a compressed archive + StIU index.

    ``cache`` is the decode-span LRU shared with other processors over
    the same archive + network (``None`` creates a private one).  Each
    query looks up the one :class:`~repro.core.decoder.TrajectoryBlock`
    of each trajectory it reads, once, and decodes an instance into its
    block's slot the first time any query needs it, so repeated probes
    of a hot trajectory cost one lookup instead of a re-parse and a
    re-decode.
    """

    def __init__(
        self,
        network: RoadNetwork,
        archive: CompressedArchive,
        index: StIUIndex,
        *,
        cache: DecodeSpanCache | None = None,
    ) -> None:
        self.network = network
        self.archive = archive
        self.index = index
        self.counters = QueryCounters()
        self.cache = cache if cache is not None else DecodeSpanCache()

    # ------------------------------------------------------------------
    # decoded blocks
    # ------------------------------------------------------------------
    def record(self, trajectory_id: int) -> CompressedTrajectory:
        """The trajectory's parsed record, through the decode cache."""
        return self.cache.record_for(
            trajectory_id, lambda: self.archive.trajectory(trajectory_id)
        )

    def _block(self, trajectory_id: int) -> TrajectoryBlock:
        """The trajectory's decoded block: one cache lookup per query."""
        def build() -> TrajectoryBlock:
            record = self.archive.trajectory(trajectory_id)
            return TrajectoryBlock(
                record, decode_times(record, self.archive.params)
            )

        return self.cache.block_for(trajectory_id, build)

    def _fill(self, block: TrajectoryBlock, index: int) -> InstanceChainage:
        """Decode and store an empty slot of ``block``."""
        self.counters.instances_decoded += 1
        chain, reference = block.decode_chain(
            self.network, self.archive.params, index
        )
        return self.cache.fill(block, index, chain, reference)

    # ------------------------------------------------------------------
    # probabilistic where (Definition 10)
    # ------------------------------------------------------------------
    def where(
        self, trajectory_id: int, t: int, alpha: float
    ) -> list[WhereResult]:
        block = self._block(trajectory_id)
        trajectory = block.record
        if not trajectory.start_time <= t <= trajectory.end_time:
            return []
        bracket = time_bracket(block.times, t)
        chains = block.chains
        hits = 0
        results: list[WhereResult] = []
        for index, compressed in enumerate(trajectory.instances):
            if compressed.probability < alpha:
                self.counters.instances_pruned += 1
                continue
            chain = chains[index]
            if chain is None:
                chain = self._fill(block, index)
            else:
                hits += 1
            if bracket is None:
                continue
            position = chain.position_at(chain.chainage_at(bracket))
            results.append(
                WhereResult(
                    trajectory_id,
                    index,
                    position.edge,
                    position.ndist,
                    compressed.probability,
                )
            )
        if hits:
            self.cache.count_slot_hits(hits)
        return results

    # ------------------------------------------------------------------
    # probabilistic when (Definition 11)
    # ------------------------------------------------------------------
    def when(
        self,
        trajectory_id: int,
        edge: EdgeKey,
        relative_distance: float,
        alpha: float,
    ) -> list[WhenResult]:
        """The passing times of ``trajectory_id``'s instances at
        ``relative_distance`` along ``edge``.

        Refuses an ``rd`` outside [0, 1] with :class:`ValueError` (past
        an end of the edge the point lies on another edge), and an edge
        the road network does not hold with :class:`UnknownEdgeError`;
        an id the archive does not hold raises :class:`KeyError` first.
        """
        if not 0.0 <= relative_distance <= 1.0:
            raise ValueError(
                f"relative_distance must be in [0, 1], "
                f"got {relative_distance!r}"
            )
        block = self._block(trajectory_id)
        network = self.network
        if not network.has_edge(*edge):
            raise UnknownEdgeError(
                f"no edge {edge[0]} -> {edge[1]} in the road network"
            )
        trajectory = block.record
        a = network.vertex(edge[0])
        b = network.vertex(edge[1])
        x = a.x + (b.x - a.x) * relative_distance
        y = a.y + (b.y - a.y) * relative_distance
        region = self.index.grid.cell_of_point(x, y)

        # a trajectory's block does not depend on the interval: its row
        # for the probe's cell is read once
        spatial = self.index.spatial
        row = spatial.row_of(trajectory_id, region)
        candidate_indices: set[int] = set()
        if row is not None:
            instances, vertices, _, p_max = spatial.references
            starts = spatial.reference_start
            for k in range(starts[row], starts[row + 1]):
                reference_index = instances[k]
                ref_compressed = trajectory.instances[reference_index]
                ref_qualifies = (
                    vertices[k] != INFINITE_VERTEX
                    and ref_compressed.probability >= alpha
                )
                if ref_qualifies:
                    candidate_indices.add(reference_index)
                # Lemma 1: p_max < alpha means no represented instance
                # qualifies; the reference set needs no decompression.
                if p_max[k] < alpha:
                    self.counters.instances_pruned += 1
                    continue
                candidate_indices.update(
                    block.members(ref_compressed.reference_ordinal)
                )
        results: list[WhenResult] = []
        if not candidate_indices:
            return results
        full_times = block.times
        chains = block.chains
        hits = 0
        edge_length = network.edge_length(*edge)
        ndist = relative_distance * edge_length
        # decoded chainages carry PDDP error up to eta per edge length
        tolerance = self.archive.params.eta_distance * edge_length + 1e-6
        for index in sorted(candidate_indices):
            compressed = trajectory.instances[index]
            if compressed.probability < alpha:
                self.counters.instances_pruned += 1
                continue
            chain = chains[index]
            if chain is None:
                chain = self._fill(block, index)
            else:
                hits += 1
            for passing in chain.times_at_position(
                full_times, edge, ndist, tolerance=tolerance
            ):
                results.append(
                    WhenResult(
                        trajectory_id, index, passing, compressed.probability
                    )
                )
        if hits:
            self.cache.count_slot_hits(hits)
        return results

    # ------------------------------------------------------------------
    # probabilistic range (Definition 12)
    # ------------------------------------------------------------------
    def range(self, region: Rect, t: int, alpha: float) -> list[int]:
        # candidates are the trajectories active in t's interval: every
        # interval from a trajectory's first timestamp to its last, not
        # only those holding one.  The first query of an interval derives
        # its CSR from those trajectories' records.
        rows = self.index.spatial.interval_rows(self.index.interval_of(t))
        if rows is None:
            return []
        active = self.index.trajectories_in_interval(t)
        if alpha > 0:
            survivors = lemma4_survivors(
                rows, self.index.grid.cell_runs_of_rect(region), alpha
            )
            self.counters.trajectories_pruned += len(active) - len(survivors)
        else:
            survivors = active
        results: list[int] = []
        # most survivors of the interval-wide bound are not alive at t
        # itself: test the (memoised) time span first, so only those that
        # reach _range_confirm have their block looked up
        for trajectory_id in survivors:
            start_time, end_time = self.archive.time_span(trajectory_id)
            if not start_time <= t <= end_time:
                self.counters.trajectories_time_pruned += 1
                continue
            if self._range_confirm(
                self._block(trajectory_id), region, t, alpha
            ):
                results.append(trajectory_id)
        return results

    def _range_confirm(
        self,
        block: TrajectoryBlock,
        region: Rect,
        t: int,
        alpha: float,
    ) -> bool:
        # every instance shares the time stream: t is bracketed once, and
        # each instance only turns the bracket into its point, most
        # probable instance first
        bracket = time_bracket(block.times, t)
        chains = block.chains
        hits = 0
        order, remaining = block.ranked()
        confirmed = 0.0
        verdict = None
        for index, probability in order:
            remaining -= probability
            chain = chains[index]
            if chain is None:
                chain = self._fill(block, index)
            else:
                hits += 1
            if bracket is not None and region.contains(
                *chain.point_at(chain.chainage_at(bracket))
            ):
                confirmed += probability
                if confirmed >= alpha:  # Lemma 3 early accept
                    verdict = True
                    break
            if confirmed + remaining < alpha:  # cannot reach alpha anymore
                verdict = False
                break
        if hits:
            self.cache.count_slot_hits(hits)
        if verdict is None:
            return confirmed >= alpha
        return verdict


def lemma4_survivors(rows: IntervalRows, runs, alpha: float) -> list[int]:
    """Lemma 4: the ascending ids whose indexed probability mass in the
    cells of ``runs`` (one run of consecutive cell ids per grid row of
    RE) reaches ``alpha``, the mass being capped at 1.

    The interval's CSR is cell-major, so the pairs of one run are one
    slice of its columns.  A pair whose own mass reaches ``alpha``
    admits its trajectory outright: masses are >= 0, so the full sum is
    at least that mass.  Only the other pairs are summed, in scan order,
    so a trajectory none of whose pairs reaches ``alpha`` gets the same
    sum the plain rule ``min(sum, 1) >= alpha`` would; below the cap
    that rule is ``sum >= alpha``.
    """
    if alpha > 1.0:
        return []  # a mass capped at 1 never reaches it
    admitted: set[int] = set()
    bounds: dict[int, float] = {}
    trajectory_ids, mass = rows.trajectory_ids, rows.mass
    for run in runs:
        span = rows.span(run.start, run.stop - 1)
        pairs = zip(
            trajectory_ids[span.start : span.stop],
            mass[span.start : span.stop],
        )
        for trajectory_id, pair_mass in pairs:
            if pair_mass >= alpha:
                admitted.add(trajectory_id)
            else:
                bound = bounds.get(trajectory_id, 0.0)
                bounds[trajectory_id] = bound + pair_mass
    admitted.update(
        trajectory_id
        for trajectory_id, bound in bounds.items()
        if bound >= alpha
    )
    return sorted(admitted)
