"""Grid partitioning of the road network into regions (StIU spatial index, §5.2).

The StIU spatial index "partitions the road network G using grid cells,
each of which represents a region re".  ``GridPartition`` maps points,
edges, and query rectangles to cell ids.  Edge-to-cell mapping walks the
segment through the grid (a conservative supercover), so an edge is
associated with every cell it touches.

A road network has one partition per grid resolution
(:meth:`GridPartition.for_network` is memoised on the network), and that
partition keeps the cells of every edge it has been asked about, so the
StIU indexes and edge spatial indexes of one network rasterise each edge
once between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .graph import BoundingBox, RoadNetwork


@dataclass(frozen=True)
class Rect:
    """An axis-aligned query rectangle (the paper's query region ``RE``)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        # one chain per axis: false for a NaN as for an inverted axis
        if not (
            -math.inf < self.min_x <= self.max_x < math.inf
            and -math.inf < self.min_y <= self.max_y < math.inf
        ):
            raise ValueError(f"degenerate or non-finite rectangle {self}")

    def contains(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def intersects(self, other: "Rect") -> bool:
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )


class GridPartition:
    """A ``cells_per_side x cells_per_side`` partition of a bounding box.

    Cell ids are integers ``row * cells_per_side + col``; row 0 is the
    bottom (minimum ``y``) of the bounding box.
    """

    def __init__(self, box: BoundingBox, cells_per_side: int) -> None:
        if cells_per_side < 1:
            raise ValueError(f"cells_per_side must be >= 1, got {cells_per_side}")
        if box.width <= 0 or box.height <= 0:
            box = box.expanded(max(box.width, box.height, 1.0) * 0.5)
        self.box = box
        self.cells_per_side = cells_per_side
        self._cell_width = box.width / cells_per_side
        self._cell_height = box.height / cells_per_side
        # (start, end) -> cells of that edge of ``_network``, filled on
        # first request.  Unlocked on purpose: entries are immutable and
        # a racing thread can only store an equal tuple.
        self._network: RoadNetwork | None = None
        self._edge_cells: dict[tuple[int, int], tuple[int, ...]] = {}
        self._hops: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}

    @classmethod
    def for_network(
        cls, network: RoadNetwork, cells_per_side: int, margin: float = 1e-9
    ) -> "GridPartition":
        """The partition covering ``network`` with a tiny margin so border
        vertices fall inside the grid.

        A box with a zero-extent side (a collinear network) is not
        widened by the margin but by the constructor's minimum extent:
        a side of ~1e-9 would make the edge-sampling step ~1e-11, and no
        index build over it would finish.

        One partition per ``(cells_per_side, margin)`` lives on the
        network until its next ``add_vertex``/``add_edge``, so repeated
        calls neither rescan the vertices nor re-rasterise an edge.
        """
        key = (cells_per_side, margin)
        partition = network._partitions.get(key)
        if partition is None:
            box = network.bounding_box()
            if box.width > 0 and box.height > 0:
                span = max(box.width, box.height, 1.0)
                box = box.expanded(span * 1e-9 + margin)
            partition = cls(box, cells_per_side)
            partition._network = network
            partition = network._partitions.setdefault(key, partition)
        return partition

    @property
    def cell_count(self) -> int:
        return self.cells_per_side * self.cells_per_side

    # ------------------------------------------------------------------
    # point / cell conversions
    # ------------------------------------------------------------------
    def cell_of_point(self, x: float, y: float) -> int:
        """Cell id containing ``(x, y)``; points outside clamp to the border."""
        col = self._clamp_index((x - self.box.min_x) / self._cell_width)
        row = self._clamp_index((y - self.box.min_y) / self._cell_height)
        return row * self.cells_per_side + col

    def _clamp_index(self, value: float) -> int:
        index = int(math.floor(value))
        return min(max(index, 0), self.cells_per_side - 1)

    def cell_rect(self, cell_id: int) -> Rect:
        """Geometric extent of a cell."""
        if not 0 <= cell_id < self.cell_count:
            raise ValueError(f"cell id {cell_id} out of range")
        row, col = divmod(cell_id, self.cells_per_side)
        return Rect(
            self.box.min_x + col * self._cell_width,
            self.box.min_y + row * self._cell_height,
            self.box.min_x + (col + 1) * self._cell_width,
            self.box.min_y + (row + 1) * self._cell_height,
        )

    # ------------------------------------------------------------------
    # segment / rectangle coverage
    # ------------------------------------------------------------------
    def cells_of_segment(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> list[int]:
        """Cells touched by the segment, in traversal order (deduplicated).

        Uses sampling at sub-cell resolution; conservative for index
        construction (extra cells only add tuples, never lose them).
        """
        cells: list[int] = []
        seen: set[int] = set()
        length = math.hypot(x1 - x0, y1 - y0)
        step = min(self._cell_width, self._cell_height) / 2.0
        samples = max(int(math.ceil(length / step)), 1) if step > 0 else 1
        for i in range(samples + 1):
            t = i / samples
            cell = self.cell_of_point(x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
            if cell not in seen:
                seen.add(cell)
                cells.append(cell)
        return cells

    def cells_of_edge(
        self, network: RoadNetwork, start: int, end: int
    ) -> tuple[int, ...]:
        """Cells touched by the straight-line embedding of an edge, as
        :meth:`cells_of_segment` orders them."""
        # the table describes one network's edges; any other gets a throwaway
        table = self._edge_cells if network is self._network else {}
        cells = table.get((start, end))
        if cells is None:
            a = network.vertex(start)
            b = network.vertex(end)
            cells = tuple(self.cells_of_segment(a.x, a.y, b.x, b.y))
            table[(start, end)] = cells
        return cells

    def hop_table(
        self, network: RoadNetwork
    ) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
        """``(vertex, out-edge number) -> (end vertex, cells of the
        edge)`` for ``network``, filled by its reader (the StIU spatial
        kernel) on a miss.  Unlocked like the edge table; any other
        network gets a throwaway."""
        return self._hops if network is self._network else {}

    def cell_runs_of_rect(self, rect: Rect) -> list[range]:
        """The cells intersecting ``rect``, one run of consecutive ids
        per grid row, in ascending order."""
        lo_col = self._clamp_index((rect.min_x - self.box.min_x) / self._cell_width)
        hi_col = self._clamp_index((rect.max_x - self.box.min_x) / self._cell_width)
        lo_row = self._clamp_index((rect.min_y - self.box.min_y) / self._cell_height)
        hi_row = self._clamp_index((rect.max_y - self.box.min_y) / self._cell_height)
        side = self.cells_per_side
        return [
            range(row * side + lo_col, row * side + hi_col + 1)
            for row in range(lo_row, hi_row + 1)
        ]

    def cells_of_rect(self, rect: Rect) -> list[int]:
        """All cells intersecting ``rect``."""
        return [cell for run in self.cell_runs_of_rect(rect) for cell in run]

    def rect_of_cells(self, cell_ids: Iterable[int]) -> Rect:
        """Smallest rectangle covering all ``cell_ids`` (the paper's
        ``re_total`` used by Lemma 4)."""
        rects = [self.cell_rect(cid) for cid in cell_ids]
        if not rects:
            raise ValueError("rect_of_cells needs at least one cell")
        return Rect(
            min(r.min_x for r in rects),
            min(r.min_y for r in rects),
            max(r.max_x for r in rects),
            max(r.max_y for r in rects),
        )
