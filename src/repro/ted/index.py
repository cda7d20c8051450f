"""The TED-side query baseline: a temporal-only index.

TED's original index targets accurate trajectories: "it considers neither
the uncertainty nor is applicable to referentially represented trajectory
instances" (§1).  Our baseline reproduces those limitations faithfully:

* trajectories are bucketed by time interval only (no spatial grid);
* no ``p_total`` / ``p_max`` pruning exists, so probability thresholds are
  checked only after decoding;
* every candidate instance must be *fully* decoded before a spatial or
  temporal predicate can be evaluated.

Queries therefore return the same answers as UTCQ's StIU processor (both
are exact over the same lossy PDDP codes) but touch far more data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.graph import RoadNetwork
from ..network.grid import Rect
from ..trajectories.model import EdgeKey, TrajectoryInstance
from ..trajectories.path import InstanceChainage, time_bracket
from .compressor import (
    TedArchive,
    decode_ted_instance_tuple,
    decode_ted_times,
)
from ..core.improved_ted import decode_instance


@dataclass(frozen=True)
class TedWhereResult:
    """A located instance: edge, network distance, and probability."""

    trajectory_id: int
    instance_index: int
    edge: EdgeKey
    ndist: float
    probability: float


@dataclass(frozen=True)
class TedWhenResult:
    """A passing time for a queried location."""

    trajectory_id: int
    instance_index: int
    time: float
    probability: float


class TedQueryIndex:
    """Temporal-partition index over a TED archive."""

    def __init__(
        self,
        network: RoadNetwork,
        archive: TedArchive,
        *,
        time_partition_seconds: int = 1800,
    ) -> None:
        if time_partition_seconds < 1:
            raise ValueError("time partition must be at least one second")
        self.network = network
        self.archive = archive
        self.time_partition_seconds = time_partition_seconds
        self._buckets: dict[int, list[int]] = {}
        for position, trajectory in enumerate(archive.trajectories):
            first = trajectory.start_time // time_partition_seconds
            last = trajectory.end_time // time_partition_seconds
            for bucket in range(first, last + 1):
                self._buckets.setdefault(bucket, []).append(position)

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Index size: one 4-byte trajectory slot per bucket entry plus a
        4-byte bucket key each."""
        return sum(4 + 4 * len(v) for v in self._buckets.values())

    def _candidates(self, t: int) -> list[int]:
        return self._buckets.get(t // self.time_partition_seconds, [])

    def _decode_all_instances(
        self, position: int
    ) -> tuple[list[int], list[TrajectoryInstance]]:
        trajectory = self.archive.trajectories[position]
        times = decode_ted_times(self.archive, trajectory)
        instances = [
            decode_instance(
                self.network, decode_ted_instance_tuple(self.archive, inst)
            )
            for inst in trajectory.instances
        ]
        return times, instances

    # ------------------------------------------------------------------
    def where(
        self, trajectory_id: int, t: int, alpha: float
    ) -> list[TedWhereResult]:
        """Probabilistic where query (Definition 10) on TED data."""
        trajectory = self.archive.trajectory(trajectory_id)
        position = self.archive.trajectories.index(trajectory)
        times, instances = self._decode_all_instances(position)
        if not times[0] <= t <= times[-1]:
            return []
        results: list[TedWhereResult] = []
        for index, instance in enumerate(instances):
            if instance.probability < alpha:
                continue
            chain = InstanceChainage(self.network, instance)
            where = chain.position_at_time(times, t)
            if where is not None:
                results.append(
                    TedWhereResult(
                        trajectory_id,
                        index,
                        where.edge,
                        where.ndist,
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
    ) -> list[TedWhenResult]:
        """Probabilistic when query (Definition 11) on TED data."""
        trajectory = self.archive.trajectory(trajectory_id)
        position = self.archive.trajectories.index(trajectory)
        times, instances = self._decode_all_instances(position)
        edge_length = self.network.edge_length(*edge)
        ndist = relative_distance * edge_length
        tolerance = self.archive.eta_distance * edge_length + 1e-6
        results: list[TedWhenResult] = []
        for index, instance in enumerate(instances):
            if instance.probability < alpha:
                continue
            chain = InstanceChainage(self.network, instance)
            for passing in chain.times_at_position(
                times, edge, ndist, tolerance=tolerance
            ):
                results.append(
                    TedWhenResult(
                        trajectory_id, index, passing, instance.probability
                    )
                )
        return results

    def range(self, region: Rect, t: int, alpha: float) -> list[int]:
        """Probabilistic range query (Definition 12) on TED data."""
        results: list[int] = []
        for position in self._candidates(t):
            trajectory = self.archive.trajectories[position]
            if not trajectory.start_time <= t <= trajectory.end_time:
                continue
            times, instances = self._decode_all_instances(position)
            bracket = time_bracket(times, t)
            if bracket is None:
                continue
            total = 0.0
            for instance in instances:
                chain = InstanceChainage(self.network, instance)
                point = chain.point_at(chain.chainage_at(bracket))
                if region.contains(*point):
                    total += instance.probability
            if total >= alpha:
                results.append(trajectory.trajectory_id)
        return results
