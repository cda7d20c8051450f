"""Probabilistic map matching: k-best Viterbi over an HMM (refs [2, 15]).

A raw trajectory becomes a *set* of network-constrained instances, each a
full joint assignment of candidates with a likelihood — exactly the input
Definition 5 expects.  The model is the standard map-matching HMM:

* states at step ``i``: the candidate road positions of fix ``i``;
* emissions: Gaussian in the fix-to-candidate distance;
* transitions: exponential in the discrepancy between the great-circle
  distance of consecutive fixes and the network distance between the
  candidates (routes much longer than the crow flies are unlikely).

Instead of the single best state sequence, a list-Viterbi pass keeps the
``k`` best partial sequences per state, yielding the top-``k`` complete
matchings; their likelihoods are normalized into instance probabilities.
A step costs work proportional to candidate *pairs*: a transition depends
only on (previous candidate, candidate), so each pair is routed and
scored once (at most ``max_candidates``² routes, over one shared Dijkstra
frontier per source vertex), every extension is scored by table look-up
as a plain tuple, and only the extensions the beam keeps become lattice
nodes that point back at the partial they extend — nothing as long as
the trip is copied.

The pass is decomposed into per-step operations (:meth:`ProbabilisticMapMatcher.
candidate_step`, :meth:`~ProbabilisticMapMatcher.initial_beam`,
:meth:`~ProbabilisticMapMatcher.extend_beam`,
:meth:`~ProbabilisticMapMatcher.finalize`) so that the batch
:meth:`~ProbabilisticMapMatcher.match` and the streaming
:class:`~repro.stream.ingest.StreamingMapMatcher` share one beam
implementation — the streaming matcher is exactly equivalent to batch
matching by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from ..network.graph import RoadNetwork
from ..network.shortest_path import FrontierCache
from ..network.spatial_index import EdgeSpatialIndex
from ..trajectories.model import (
    EdgeKey,
    MappedLocation,
    RawTrajectory,
    TrajectoryInstance,
    UncertainTrajectory,
)
from .candidates import Candidate, candidates_for_point

_negated_score = itemgetter(0)


@dataclass
class MatcherConfig:
    """Tunables of the probabilistic matcher."""

    sigma: float = 25.0  # GPS noise scale (meters)
    beta: float = 60.0  # transition tolerance (meters of detour)
    search_radius: float = 60.0
    max_candidates: int = 4
    max_instances: int = 8
    max_route_factor: float = 6.0  # cap on network/straight distance ratio

    def __post_init__(self) -> None:
        if self.sigma <= 0 or self.beta <= 0:
            raise ValueError("sigma and beta must be positive")
        if self.max_instances < 1:
            raise ValueError("max_instances must be at least 1")


@dataclass(slots=True, eq=False)  # nodes compare, and hash, by identity
class BeamPartial:
    """One partial state sequence kept by the list-Viterbi pass, as a
    lattice node: the candidate chosen at its own step, the connecting
    edges from the previous step's candidate, and the partial it extends.

    Partials are immutable-by-convention: extending a beam builds new
    nodes, never rewrites history, which is what lets a streaming
    consumer treat an agreed-upon prefix as committed — and distinct
    nodes are distinct histories, so that prefix ends at the beam's
    lowest common ancestor.
    """

    log_probability: float
    candidate_index: int
    path: tuple[EdgeKey, ...] = ()
    parent: BeamPartial | None = None

    def history(self) -> list[BeamPartial]:
        """The chain of nodes from the first step to this one."""
        nodes = []
        node: BeamPartial | None = self
        while node is not None:
            nodes.append(node)
            node = node.parent
        nodes.reverse()
        return nodes

    @property
    def candidate_indices(self) -> tuple[int, ...]:
        """``candidate_indices[i]`` indexes the candidate chosen at step
        ``i`` (materialised on each access: O(steps))."""
        return tuple(node.candidate_index for node in self.history())


class ProbabilisticMapMatcher:
    """Matches raw trajectories to uncertain network trajectories."""

    def __init__(
        self, network: RoadNetwork, config: MatcherConfig | None = None
    ) -> None:
        self.network = network
        self.config = config or MatcherConfig()
        self.index = EdgeSpatialIndex(network)
        # transition routing runs one shared-frontier Dijkstra per
        # source vertex instead of one bounded search per candidate
        # pair; the cache stays warm across steps and trips, and is
        # shared with any StreamingMapMatcher wrapping this matcher.
        # Matchings are identical either way (see SharedFrontier); only
        # the cycle count changes.
        self.frontier_cache = FrontierCache(network)

    # ------------------------------------------------------------------
    def _transition_table(
        self,
        beam: list[BeamPartial],
        previous_step: list[Candidate],
        step: list[Candidate],
        straight: float,
    ) -> dict[int, list[tuple[float, tuple[EdgeKey, ...]] | None]]:
        """Route and score every (previous candidate, candidate) pair.

        ``table[i][j]`` is the log transition probability and the
        connecting path (the edges between, not including, the two
        candidate edges — unless they differ) from ``previous_step[i]``
        to ``step[j]``, or ``None`` when no plausible route exists; one
        row per previous candidate some partial of ``beam`` ends on.
        """
        cutoff = max(straight * self.config.max_route_factor, 300.0)
        beta = self.config.beta
        table = {}
        for index in sorted({partial.candidate_index for partial in beam}):
            a = previous_step[index]
            remaining = self.network.edge_length(*a.edge) - a.ndist
            frontier = None  # fetched only if a pair needs routing
            row = table[index] = []
            for b in step:
                if a.edge == b.edge and b.ndist >= a.ndist:
                    path, distance = (), b.ndist - a.ndist
                else:
                    # drive to the end of a's edge, route to the start
                    # of b's edge
                    if frontier is None:
                        frontier = self.frontier_cache.get(a.edge[1])
                    found = frontier.path_to(b.edge[0], cutoff)
                    if found is None:
                        row.append(None)
                        continue
                    path = tuple(found[0])
                    distance = remaining + found[1] + b.ndist
                row.append((-abs(distance - straight) / beta, path))
        return table

    # ------------------------------------------------------------------
    # per-step operations (shared by batch match() and the streaming path)
    # ------------------------------------------------------------------
    def candidate_step(self, point) -> list[Candidate]:
        """Candidate road positions of one fix (empty = unmatchable fix)."""
        return candidates_for_point(
            self.index,
            point,
            search_radius=self.config.search_radius,
            sigma=self.config.sigma,
            max_candidates=self.config.max_candidates,
        )

    def candidate_location(self, candidate: Candidate) -> MappedLocation:
        """A candidate as a mapped location, with the ndist rounding and
        clamping convention every emitted location uses."""
        length = self.network.edge_length(*candidate.edge)
        return MappedLocation(
            candidate.edge,
            min(max(round(candidate.ndist, 1), 0.0), length),
        )

    def initial_beam(self, step: list[Candidate]) -> list[BeamPartial]:
        """The beam after observing the first fix: one partial per candidate."""
        return [
            BeamPartial(candidate.emission_log_probability, i)
            for i, candidate in enumerate(step)
        ]

    def extend_beam(
        self,
        beam: list[BeamPartial],
        previous_step: list[Candidate],
        step: list[Candidate],
        straight: float,
    ) -> list[BeamPartial]:
        """One Viterbi step: extend every partial to every new candidate.

        ``straight`` is the great-circle distance between the two fixes.
        Returns the pruned beam (best ``max_instances * 3`` partials),
        empty when no transition connects the steps — the trajectory is
        unmatchable from here on.
        """
        table = self._transition_table(beam, previous_step, step, straight)
        # score every extension as a plain tuple, negated score first so
        # that a stable sort on it orders exactly as ``-log_probability``
        # would, and build lattice nodes only for the partials kept
        rows = [
            (partial.log_probability, table[partial.candidate_index], partial)
            for partial in beam
        ]
        emissions = [candidate.emission_log_probability for candidate in step]
        scored = [
            (
                -(log_probability + transition[0] + emission),
                candidate_index,
                transition[1],
                partial,
            )
            for candidate_index, emission in enumerate(emissions)
            for log_probability, row, partial in rows
            if (transition := row[candidate_index]) is not None
        ]
        scored.sort(key=_negated_score)
        return [
            BeamPartial(-negated, candidate_index, path, partial)
            for negated, candidate_index, path, partial in scored[
                : self.config.max_instances * 3
            ]
        ]

    def finalize(
        self,
        steps: list[list[Candidate]],
        beam: list[BeamPartial],
        times: list[int],
    ) -> UncertainTrajectory | None:
        """Assemble the surviving beam into an uncertain trajectory.

        ``None`` when no partial assembles into a valid instance (or the
        weight distribution degenerates).
        """
        if not beam:
            return None
        finals = sorted(beam, key=lambda p: -p.log_probability)
        instances: list[TrajectoryInstance] = []
        seen: set[tuple] = set()
        weights: list[float] = []
        best_log = finals[0].log_probability
        # one mapped location per (step, candidate), shared by every
        # instance that picks it (locations are immutable)
        locations = [
            [self.candidate_location(candidate) for candidate in step]
            for step in steps
        ]
        for partial in finals:
            instance = self._assemble(locations, partial)
            if instance is None:
                continue
            signature = instance.signature()
            if signature in seen:
                continue
            seen.add(signature)
            instances.append(instance)
            weights.append(math.exp(partial.log_probability - best_log))
            if len(instances) == self.config.max_instances:
                break
        if not instances:
            return None
        total = sum(weights)
        quantum = 1.0 / 1024
        shares = [max(round(w / total / quantum), 1) for w in weights]
        shares[0] += round(1.0 / quantum) - sum(shares)
        if shares[0] < 1:
            return None  # degenerate weight distribution
        for instance, share in zip(instances, shares):
            instance.probability = share * quantum
        return UncertainTrajectory(0, instances, list(times))

    # ------------------------------------------------------------------
    def match(self, raw: RawTrajectory) -> UncertainTrajectory | None:
        """Match one raw trajectory; ``None`` when no route connects the
        candidate chain (e.g. the fixes span disconnected components)."""
        steps: list[list[Candidate]] = []
        for point in raw:
            step = self.candidate_step(point)
            if not step:
                return None
            steps.append(step)

        beam = self.initial_beam(steps[0])
        points = list(raw)
        for step_index in range(1, len(steps)):
            straight = math.hypot(
                points[step_index].x - points[step_index - 1].x,
                points[step_index].y - points[step_index - 1].y,
            )
            beam = self.extend_beam(
                beam, steps[step_index - 1], steps[step_index], straight
            )
            if not beam:
                return None
        return self.finalize(steps, beam, list(raw.times))

    # ------------------------------------------------------------------
    def _assemble(
        self,
        step_locations: list[list[MappedLocation]],
        partial: BeamPartial,
    ) -> TrajectoryInstance | None:
        """Stitch candidate positions and connecting routes into one
        instance, tolerating same-edge consecutive fixes;
        ``step_locations[i][j]`` is candidate ``j`` of step ``i`` as a
        location."""
        nodes = partial.history()
        first = step_locations[0][nodes[0].candidate_index]
        path: list[EdgeKey] = [first.edge]
        locations = [first]
        edge_indices = [0]
        for step_index in range(1, len(nodes)):
            node = nodes[step_index]
            candidate = step_locations[step_index][node.candidate_index]
            connecting = node.path
            if candidate.edge == path[-1] and not connecting:
                # same edge, moving forward
                edge_indices.append(len(path) - 1)
            else:
                for edge in connecting:
                    if edge != path[-1]:
                        path.append(edge)
                if candidate.edge != path[-1]:
                    if path[-1][1] != candidate.edge[0]:
                        return None  # disconnected stitch: drop this one
                    path.append(candidate.edge)
                edge_indices.append(len(path) - 1)
            locations.append(candidate)
        # enforce monotone ndist for same-edge neighbors
        for i in range(1, len(locations)):
            if (
                edge_indices[i] == edge_indices[i - 1]
                and locations[i].ndist < locations[i - 1].ndist
            ):
                locations[i] = MappedLocation(
                    locations[i].edge, locations[i - 1].ndist
                )
        try:
            return TrajectoryInstance(
                path=path,
                locations=locations,
                probability=1.0,
                location_edge_indices=edge_indices,
            )
        except ValueError:
            return None

    def match_many(
        self, raws: list[RawTrajectory], *, start_id: int = 0
    ) -> list[UncertainTrajectory]:
        """Match a batch, renumbering trajectory ids and skipping failures."""
        results: list[UncertainTrajectory] = []
        next_id = start_id
        for raw in raws:
            matched = self.match(raw)
            if matched is not None:
                matched.trajectory_id = next_id
                next_id += 1
                results.append(matched)
        return results
