"""Brute-force query oracle over *uncompressed* uncertain trajectories.

The oracle defines ground truth for two purposes: correctness tests of
the compressed-query processor, and the Fig. 11 accuracy study (average
difference and F1 between results on original versus compressed data,
where the only information loss is PDDP's error-bounded distances and
probabilities).
"""

from __future__ import annotations

from ..network.graph import RoadNetwork
from ..network.grid import Rect
from ..trajectories.model import EdgeKey, UncertainTrajectory
from ..trajectories.path import InstanceChainage, time_bracket
from .queries import WhenResult, WhereResult


class BruteForceOracle:
    """Direct evaluation of Definitions 10-12 on raw trajectories."""

    def __init__(
        self, network: RoadNetwork, trajectories: list[UncertainTrajectory]
    ) -> None:
        self.network = network
        self.trajectories = {t.trajectory_id: t for t in trajectories}
        self._chains: dict[tuple[int, int], InstanceChainage] = {}

    def _chain(self, trajectory_id: int, index: int) -> InstanceChainage:
        key = (trajectory_id, index)
        chain = self._chains.get(key)
        if chain is None:
            trajectory = self.trajectories[trajectory_id]
            chain = InstanceChainage(
                self.network, trajectory.instances[index]
            )
            self._chains[key] = chain
        return chain

    def where(
        self, trajectory_id: int, t: int, alpha: float
    ) -> list[WhereResult]:
        trajectory = self.trajectories[trajectory_id]
        times = list(trajectory.times)
        results: list[WhereResult] = []
        for index, instance in enumerate(trajectory.instances):
            if instance.probability < alpha:
                continue
            position = self._chain(trajectory_id, index).position_at_time(
                times, t
            )
            if position is not None:
                results.append(
                    WhereResult(
                        trajectory_id,
                        index,
                        position.edge,
                        position.ndist,
                        instance.probability,
                    )
                )
        return results

    def when(
        self,
        trajectory_id: int,
        edge: EdgeKey,
        relative_distance: float,
        alpha: float,
    ) -> list[WhenResult]:
        trajectory = self.trajectories[trajectory_id]
        times = list(trajectory.times)
        ndist = relative_distance * self.network.edge_length(*edge)
        results: list[WhenResult] = []
        for index, instance in enumerate(trajectory.instances):
            if instance.probability < alpha:
                continue
            chain = self._chain(trajectory_id, index)
            for passing in chain.times_at_position(times, edge, ndist):
                results.append(
                    WhenResult(
                        trajectory_id, index, passing, instance.probability
                    )
                )
        return results

    def range(self, region: Rect, t: int, alpha: float) -> list[int]:
        results: list[int] = []
        for trajectory in self.trajectories.values():
            bracket = time_bracket(trajectory.times, t)
            if bracket is None:
                continue
            total = 0.0
            for index, instance in enumerate(trajectory.instances):
                chain = self._chain(trajectory.trajectory_id, index)
                point = chain.point_at(chain.chainage_at(bracket))
                if region.contains(*point):
                    total += instance.probability
            if total >= alpha:
                results.append(trajectory.trajectory_id)
        return sorted(results)
