"""Spatial hash over network edges for nearest-edge queries.

The probabilistic map matcher needs, for every raw GPS point, the set of
nearby edges it may have been recorded from.  A uniform grid bucketing of
edge geometry gives expected O(1) candidate lookups without external
dependencies.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .graph import RoadNetwork
from .grid import GridPartition


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

_distance_of = itemgetter(2)


class EdgeSpatialIndex:
    """Grid-bucketed index of edges supporting radius queries.

    One table of cells: ``_cells[cell]`` holds, for every edge the cell
    touches, ``(edge number, key, ax, ay, dx, dy, squared length)`` --
    the edge's start vertex, its direction vector and the
    :func:`project_point_to_segment` denominator, computed once per edge
    and shared by every cell it touches.  A radius query then projects
    from the table alone, with the same float operations as
    :func:`project_point_to_segment`, so its answers are that
    function's, bit for bit.
    """

    def __init__(self, network: RoadNetwork, cells_per_side: int = 64) -> None:
        self.network = network
        self.grid = grid = GridPartition.for_network(network, cells_per_side)
        # the grid's cell arithmetic, as GridPartition computes it
        box = grid.box
        self._min_x, self._min_y = box.min_x, box.min_y
        self._cell_width = box.width / grid.cells_per_side
        self._cell_height = box.height / grid.cells_per_side
        cells: list[list] = [[] for _ in range(grid.cell_count)]
        for number, edge in enumerate(network.edges()):
            a = network.vertex(edge.start)
            b = network.vertex(edge.end)
            dx, dy = b.x - a.x, b.y - a.y
            row = (number, edge.key, a.x, a.y, dx, dy, dx * dx + dy * dy)
            for cell in grid.cells_of_edge(network, edge.start, edge.end):
                cells[cell].append(row)
        self._cells = [tuple(rows) for rows in cells]

    def edges_near(
        self, x: float, y: float, radius: float
    ) -> list[tuple[tuple[int, int], float, float]]:
        """Edges within ``radius`` of the point, nearest first (ties in
        the order the query's cells, ascending, first list them).

        Each result is ``(edge_key, t, distance)`` with ``t`` the
        normalized projection position along the edge.
        """
        min_x, max_x = x - radius, x + radius
        min_y, max_y = y - radius, y + radius
        if not (
            -math.inf < min_x <= max_x < math.inf
            and -math.inf < min_y <= max_y < math.inf
        ):
            raise ValueError(
                f"degenerate or non-finite search square around "
                f"({x}, {y}) of radius {radius}"
            )
        # the cells of the query square, as GridPartition.cells_of_rect
        # finds them, without building the rectangle or the cell list
        side = self.grid.cells_per_side
        last = side - 1
        lo_col = math.floor((min_x - self._min_x) / self._cell_width)
        hi_col = math.floor((max_x - self._min_x) / self._cell_width)
        lo_row = math.floor((min_y - self._min_y) / self._cell_height)
        hi_row = math.floor((max_y - self._min_y) / self._cell_height)
        lo_col = 0 if lo_col < 0 else last if lo_col > last else lo_col
        hi_col = 0 if hi_col < 0 else last if hi_col > last else hi_col
        lo_row = 0 if lo_row < 0 else last if lo_row > last else lo_row
        hi_row = 0 if hi_row < 0 else last if hi_row > last else hi_row

        cells = self._cells
        hypot = math.hypot
        results: list[tuple[tuple[int, int], float, float]] = []
        seen: set[int] = set()
        for base in range(lo_row * side, hi_row * side + 1, side):
            for cell in range(base + lo_col, base + hi_col + 1):
                for number, key, ax, ay, dx, dy, denom in cells[cell]:
                    if number in seen:
                        continue
                    seen.add(number)
                    # project_point_to_segment, operation for operation
                    if denom == 0:
                        t = 0.0
                        distance = hypot(x - ax, y - ay)
                    else:
                        t = ((x - ax) * dx + (y - ay) * dy) / denom
                        if t < 0.0:
                            t = 0.0
                        elif t > 1.0:
                            t = 1.0
                        distance = hypot(x - (ax + t * dx), y - (ay + t * dy))
                    if distance <= radius:
                        results.append((key, t, distance))
        results.sort(key=_distance_of)
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
