"""Trajectory data model (Definitions 2-5 of the paper).

* :class:`RawPoint` / :class:`RawTrajectory` — time-stamped GPS fixes.
* :class:`MappedLocation` — a network-constrained location
  ``<(vs -> ve), ndist, t>`` (Definition 2).
* :class:`TrajectoryInstance` — one network-constrained trajectory: a
  connected edge path plus the time-ordered mapped locations lying on it,
  with an occurrence probability (one element of Definition 5's set).
* :class:`UncertainTrajectory` — the set of instances produced by
  probabilistic map matching for one raw trajectory; all instances share
  the same time sequence (Definition 5).

An instance stores its *path* explicitly (every traversed edge, including
edges without mapped locations) because the TED edge sequence ``E`` is
defined over the path, with T' marking which path entries carry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..network.graph import RoadNetwork

EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class RawPoint:
    """A raw GPS fix ``(x, y, t)``."""

    x: float
    y: float
    t: int


@dataclass(frozen=True)
class RawTrajectory:
    """A time-ordered sequence of raw GPS fixes."""

    points: tuple[RawPoint, ...]

    def __post_init__(self) -> None:
        times = [p.t for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("raw trajectory timestamps must strictly increase")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[RawPoint]:
        return iter(self.points)

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(p.t for p in self.points)


@dataclass(frozen=True)
class MappedLocation:
    """A location on edge ``edge`` at network distance ``ndist`` from its
    start vertex (Definition 2; the timestamp lives in the shared time
    sequence of the owning uncertain trajectory)."""

    edge: EdgeKey
    ndist: float

    def relative_distance(self, network: RoadNetwork) -> float:
        """The paper's ``rd``: ``ndist`` over the edge length (Def. 7)."""
        length = network.edge_length(*self.edge)
        rd = self.ndist / length
        if not 0.0 <= rd <= 1.0:
            raise ValueError(
                f"ndist {self.ndist} outside edge {self.edge} of length {length}"
            )
        # rd is defined on [0, 1); a point exactly on the end vertex is
        # expressed as rd just below 1 so the fraction codecs stay in range.
        return min(rd, 1.0 - 1e-12)

    def position(self, network: RoadNetwork) -> tuple[float, float]:
        """Euclidean coordinates of the location (linear edge embedding)."""
        a = network.vertex(self.edge[0])
        b = network.vertex(self.edge[1])
        t = self.ndist / network.edge_length(*self.edge)
        return a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t


@dataclass
class TrajectoryInstance:
    """One map-matching instance: a path and the points mapped onto it.

    ``path`` is the connected sequence of traversed edges (Definition 4).
    ``locations`` are time-ordered and each must lie on a path edge, in
    path order (several consecutive locations may share one edge).
    ``location_edge_indices[i]`` is the index into ``path`` of the edge
    carrying ``locations[i]``.
    """

    path: list[EdgeKey]
    locations: list[MappedLocation]
    probability: float
    location_edge_indices: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("an instance must traverse at least one edge")
        if not self.locations:
            raise ValueError("an instance must carry at least one mapped location")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"instance probability must be in (0, 1], got {self.probability}"
            )
        if not self.location_edge_indices:
            self.location_edge_indices = self._infer_edge_indices()
        self._validate_alignment()

    def _infer_edge_indices(self) -> list[int]:
        """Match each location to the earliest compatible path edge, never
        moving backwards (locations are time-ordered along the path)."""
        indices: list[int] = []
        cursor = 0
        for location in self.locations:
            while cursor < len(self.path) and self.path[cursor] != location.edge:
                cursor += 1
            if cursor == len(self.path):
                raise ValueError(
                    f"location on edge {location.edge} does not lie on the path "
                    f"(or violates path order)"
                )
            indices.append(cursor)
        return indices

    def _validate_alignment(self) -> None:
        if len(self.location_edge_indices) != len(self.locations):
            raise ValueError("location_edge_indices must parallel locations")
        previous_index = -1
        previous_ndist = -1.0
        for location, index in zip(self.locations, self.location_edge_indices):
            if not 0 <= index < len(self.path):
                raise ValueError(f"edge index {index} outside the path")
            if self.path[index] != location.edge:
                raise ValueError(
                    f"location edge {location.edge} disagrees with path edge "
                    f"{self.path[index]} at index {index}"
                )
            if index < previous_index:
                raise ValueError("locations must be ordered along the path")
            if index == previous_index and location.ndist < previous_ndist:
                raise ValueError(
                    "locations on one edge must be ordered by ndist"
                )
            previous_index, previous_ndist = index, location.ndist
        if self.location_edge_indices[0] != 0:
            raise ValueError("the first path edge must carry a mapped location")
        if self.location_edge_indices[-1] != len(self.path) - 1:
            raise ValueError("the last path edge must carry a mapped location")
        for (a, b), (c, d) in zip(self.path, self.path[1:]):
            if b != c:
                raise ValueError(f"path edges ({a},{b}) and ({c},{d}) disconnect")

    # ------------------------------------------------------------------
    @property
    def start_vertex(self) -> int:
        """The paper's ``SV``: start vertex of the first traversed edge."""
        return self.path[0][0]

    @property
    def point_count(self) -> int:
        return len(self.locations)

    def points_per_edge(self) -> list[int]:
        """Number of mapped locations on each path edge, in path order."""
        counts = [0] * len(self.path)
        for index in self.location_edge_indices:
            counts[index] += 1
        return counts

    def relative_distances(self, network: RoadNetwork) -> list[float]:
        """The paper's ``D``: rd of every mapped location, in order."""
        return [loc.relative_distance(network) for loc in self.locations]

    def signature(self) -> tuple:
        """Hashable identity of the instance's spatial content."""
        return (
            tuple(self.path),
            tuple((l.edge, round(l.ndist, 6)) for l in self.locations),
        )


@dataclass
class UncertainTrajectory:
    """A network-constrained uncertain trajectory (Definition 5)."""

    trajectory_id: int
    instances: list[TrajectoryInstance]
    times: list[int]

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("an uncertain trajectory needs at least one instance")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("the shared time sequence must strictly increase")
        for instance in self.instances:
            if instance.point_count != len(self.times):
                raise ValueError(
                    f"instance has {instance.point_count} locations but the "
                    f"shared time sequence has {len(self.times)} timestamps"
                )
        total = sum(i.probability for i in self.instances)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"instance probabilities must sum to 1, got {total:.9f}"
            )

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def instance_count(self) -> int:
        return len(self.instances)

    @property
    def start_time(self) -> int:
        return self.times[0]

    @property
    def end_time(self) -> int:
        return self.times[-1]

    def best_instance(self) -> TrajectoryInstance:
        """The accurate trajectory a non-probabilistic matcher would keep
        (highest-probability instance)."""
        return max(self.instances, key=lambda i: i.probability)

    def renormalized(self, instances: Sequence[TrajectoryInstance]) -> "UncertainTrajectory":
        """A copy restricted to ``instances`` with probabilities rescaled
        (used by the instance-count sweeps in the evaluation)."""
        chosen = list(instances)
        total = sum(i.probability for i in chosen)
        if total <= 0:
            raise ValueError("cannot renormalize an empty instance subset")
        rescaled = [
            TrajectoryInstance(
                path=list(i.path),
                locations=list(i.locations),
                probability=i.probability / total,
                location_edge_indices=list(i.location_edge_indices),
            )
            for i in chosen
        ]
        return UncertainTrajectory(self.trajectory_id, rescaled, list(self.times))
