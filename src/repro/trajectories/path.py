"""Chainage arithmetic along instance paths.

The where/when/range queries interpolate an object's position between
two mapped locations under a constant-speed assumption along the network
path.  ``PathChainage`` precomputes cumulative edge lengths so that
``(edge index, ndist) <-> absolute chainage`` conversions are O(1)/O(log n).

A position at time ``t`` is computed in two steps: :func:`time_bracket`
places ``t`` among the timestamps, which every instance of a trajectory
shares, and :meth:`InstanceChainage.chainage_at` turns that bracket into
one instance's chainage.  A query over many instances brackets once.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from ..network.graph import RoadNetwork
from .model import EdgeKey, TrajectoryInstance

#: where a time falls among a trajectory's timestamps: ``(k, fraction)``
#: with ``times[k] <= t < times[k + 1]``, or ``(k, None)`` at the last
#: timestamp ``times[k]``
TimeBracket = tuple[int, float | None]


def time_bracket(times: Sequence[int], t: int) -> TimeBracket | None:
    """Bracket ``t`` in the ascending ``times``; ``None`` when ``t`` falls
    outside them."""
    if t < times[0] or t > times[-1]:
        return None
    index = bisect.bisect_right(times, t) - 1
    if index >= len(times) - 1:
        return index, None
    t0, t1 = times[index], times[index + 1]
    return index, (t - t0) / (t1 - t0)


@dataclass(frozen=True)
class PathPosition:
    """A position on a path: the edge (by index and key) plus ``ndist``."""

    edge_index: int
    edge: EdgeKey
    ndist: float


class PathChainage:
    """Cumulative-length view of a connected edge path."""

    def __init__(self, network: RoadNetwork, path: list[EdgeKey]) -> None:
        if not path:
            raise ValueError("cannot build chainage over an empty path")
        self.network = network
        self.path = path
        self._prefix = [0.0]
        for edge in path:
            self._prefix.append(self._prefix[-1] + network.edge_length(*edge))

    @property
    def total_length(self) -> float:
        return self._prefix[-1]

    def edge_start(self, edge_index: int) -> float:
        """Chainage at which path edge ``edge_index`` begins."""
        return self._prefix[edge_index]

    def chainage_of(self, edge_index: int, ndist: float) -> float:
        """Absolute chainage of a point ``ndist`` into path edge
        ``edge_index``."""
        if not 0 <= edge_index < len(self.path):
            raise IndexError(f"edge index {edge_index} outside the path")
        return self._prefix[edge_index] + ndist

    def _locate(self, chainage: float) -> tuple[int, float]:
        """``(edge index, ndist)`` of an absolute chainage, clamped to the
        path: ``min(max(chainage, 0.0), total_length)`` and the index
        capped at the last edge, spelled as comparisons (the builtins
        cost more than the rest of a lookup)."""
        prefix = self._prefix
        if chainage < 0.0:
            chainage = 0.0
        if chainage > prefix[-1]:
            chainage = prefix[-1]
        index = bisect.bisect_right(prefix, chainage) - 1
        last = len(prefix) - 2
        if index > last:
            index = last
        return index, chainage - prefix[index]

    def position_at(self, chainage: float) -> PathPosition:
        """The path position at an absolute chainage (clamped to the path)."""
        index, ndist = self._locate(chainage)
        return PathPosition(index, self.path[index], ndist)

    def point_at(self, chainage: float) -> tuple[float, float]:
        """The plane coordinates of :meth:`position_at`'s position (the
        edge's linear embedding), without building the position."""
        index, ndist = self._locate(chainage)
        start, end = self.path[index]
        network = self.network
        a = network.vertex(start)
        b = network.vertex(end)
        fraction = ndist / network.edge_length(start, end)
        return a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction


class InstanceChainage(PathChainage):
    """Chainage over an instance's path with its locations pre-resolved.

    Keeps the path, its prefix lengths and the locations' chainages, not
    the instance it was built from."""

    def __init__(self, network: RoadNetwork, instance: TrajectoryInstance) -> None:
        super().__init__(network, instance.path)
        self.location_chainages = [
            self.chainage_of(idx, loc.ndist)
            for idx, loc in zip(
                instance.location_edge_indices, instance.locations
            )
        ]

    def chainage_at(self, bracket: TimeBracket) -> float:
        """Constant-speed chainage of the object at a bracketed time."""
        index, fraction = bracket
        chains = self.location_chainages
        if fraction is None:
            return chains[-1]
        c0 = chains[index]
        return c0 + (chains[index + 1] - c0) * fraction

    def position_at_time(self, times: list[int], t: int) -> PathPosition | None:
        """Constant-speed position of the object at time ``t``.

        Returns ``None`` when ``t`` falls outside the instance's time span.
        """
        bracket = time_bracket(times, t)
        if bracket is None:
            return None
        return self.position_at(self.chainage_at(bracket))

    def time_at_chainage(
        self, times: list[int], chainage: float, *, tolerance: float = 1e-9
    ) -> float | None:
        """Inverse of :meth:`position_at_time` for a chainage on the path.

        Returns the (possibly fractional) time at which the object passes
        ``chainage``; ``None`` if the chainage precedes the first or
        follows the last mapped location by more than ``tolerance``
        (queries over lossily stored distances pass an eta-derived
        tolerance so boundary locations are not missed).  Where
        consecutive locations share a chainage (the object idled), the
        earlier time is returned.
        """
        chains = self.location_chainages
        if chainage < chains[0] - tolerance or chainage > chains[-1] + tolerance:
            return None
        chainage = min(max(chainage, chains[0]), chains[-1])
        for i in range(len(chains) - 1):
            c0, c1 = chains[i], chains[i + 1]
            if c0 - 1e-9 <= chainage <= c1 + 1e-9:
                if c1 == c0:
                    return float(times[i])
                fraction = (chainage - c0) / (c1 - c0)
                fraction = min(max(fraction, 0.0), 1.0)
                return times[i] + (times[i + 1] - times[i]) * fraction
        return float(times[-1])

    def times_at_position(
        self,
        times: list[int],
        edge: EdgeKey,
        ndist: float,
        *,
        tolerance: float = 1e-9,
    ) -> list[float]:
        """All times at which the instance passes ``(edge, ndist)``.

        A path may traverse the same edge more than once, hence a list.
        """
        results: list[float] = []
        for edge_index, path_edge in enumerate(self.path):
            if path_edge != edge:
                continue
            t = self.time_at_chainage(
                times,
                self.chainage_of(edge_index, ndist),
                tolerance=tolerance,
            )
            if t is not None:
                results.append(t)
        return results
