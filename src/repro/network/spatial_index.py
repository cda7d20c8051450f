"""Spatial hash over network edges for nearest-edge queries.

The probabilistic map matcher needs, for every raw GPS point, the set of
nearby edges it may have been recorded from.  A uniform grid bucketing of
edge geometry gives expected O(1) candidate lookups without external
dependencies.
"""

from __future__ import annotations

import math

from .graph import RoadNetwork
from .grid import GridPartition, Rect


def project_point_to_segment(
    px: float,
    py: float,
    ax: float,
    ay: float,
    bx: float,
    by: float,
) -> tuple[float, float]:
    """Project ``(px, py)`` onto segment ``a-b``.

    Returns ``(t, distance)`` where ``t`` in [0, 1] is the normalized
    position of the projection along the segment and ``distance`` is the
    Euclidean distance from the point to that position.
    """
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0:
        return 0.0, math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / denom
    t = min(max(t, 0.0), 1.0)
    qx, qy = ax + t * dx, ay + t * dy
    return t, math.hypot(px - qx, py - qy)


INFINITY_RADIUS = float("inf")


class EdgeSpatialIndex:
    """Grid-bucketed index of edges supporting radius queries."""

    def __init__(self, network: RoadNetwork, cells_per_side: int = 64) -> None:
        self.network = network
        self.grid = GridPartition.for_network(network, cells_per_side)
        self._buckets: dict[int, list[tuple[int, int]]] = {}
        for edge in network.edges():
            for cell in self.grid.cells_of_edge(network, edge.start, edge.end):
                self._buckets.setdefault(cell, []).append(edge.key)

    def _cells_near(self, x: float, y: float, radius: float) -> list[int]:
        return self.grid.cells_of_rect(
            Rect(x - radius, y - radius, x + radius, y + radius)
        )

    def edges_near(
        self, x: float, y: float, radius: float
    ) -> list[tuple[tuple[int, int], float, float]]:
        """Edges within ``radius`` of the point, nearest first.

        Each result is ``(edge_key, t, distance)`` with ``t`` the
        normalized projection position along the edge.
        """
        results: list[tuple[tuple[int, int], float, float]] = []
        seen: set[tuple[int, int]] = set()
        for cell in self._cells_near(x, y, radius):
            for key in self._buckets.get(cell, ()):
                if key in seen:
                    continue
                seen.add(key)
                a = self.network.vertex(key[0])
                b = self.network.vertex(key[1])
                t, distance = project_point_to_segment(x, y, a.x, a.y, b.x, b.y)
                if distance <= radius:
                    results.append((key, t, distance))
        results.sort(key=lambda item: item[2])
        return results

    def nearest_edge(
        self, x: float, y: float, max_radius: float = INFINITY_RADIUS
    ) -> tuple[tuple[int, int], float, float] | None:
        """The closest edge to the point, searched with expanding radius."""
        radius = max(
            min(self.grid.box.width, self.grid.box.height)
            / self.grid.cells_per_side,
            1e-9,
        )
        diagonal = math.hypot(self.grid.box.width, self.grid.box.height)
        limit = min(max_radius, 4 * diagonal + radius)
        while radius <= limit:
            hits = self.edges_near(x, y, radius)
            if hits:
                return hits[0]
            radius *= 2
        hits = self.edges_near(x, y, limit)
        return hits[0] if hits else None
