"""Road network model (Definitions 1 and 6 of the paper).

A road network is a directed graph ``G = (V, E)`` whose vertices carry 2D
coordinates.  The compression schemes rely on one structural convention:
the *outgoing edge number* of an edge ``(vs -> ve)`` is the 1-based index
of the edge among the ordered out-edges of ``vs`` (Definition 6).  The
ordering must be deterministic so that encoder and decoder agree; we order
out-edges by destination vertex id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple


class Vertex(NamedTuple):
    """A road-network vertex: an intersection or end point with 2D location."""

    id: int
    x: float
    y: float


class Edge(NamedTuple):
    """A directed road segment from ``start`` to ``end`` with a length."""

    start: int
    end: int
    length: float

    @property
    def key(self) -> tuple[int, int]:
        """The ``(start, end)`` pair identifying this edge."""
        return (self.start, self.end)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box of a set of vertices."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    def contains(self, x: float, y: float) -> bool:
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def expanded(self, margin: float) -> "BoundingBox":
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )


class RoadNetwork:
    """A directed road network with deterministic outgoing-edge numbering.

    Build the network with :meth:`add_vertex` / :meth:`add_edge`, then call
    :meth:`finalize` (done lazily by accessors) to freeze the out-edge
    ordering used by the edge-number codecs.
    """

    def __init__(self) -> None:
        self._vertices: dict[int, Vertex] = {}
        # out-edges per vertex, in number order once finalize() has run
        self._out: dict[int, tuple[Edge, ...]] = {}
        self._in: dict[int, list[Edge]] = {}
        self._edges: dict[tuple[int, int], Edge] = {}
        self._numbers: dict[tuple[int, int], int] = {}
        self._finalized = False
        self._max_out_degree = 0
        # GridPartition.for_network memo, keyed (cells_per_side, margin);
        # derived from the vertex set, so every mutation drops it
        self._partitions: dict = {}

    def __getstate__(self) -> dict:
        # the partitions carry per-process edge tables; a worker that
        # unpickles the network rasterises its own
        return {**self.__dict__, "_partitions": {}}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex_id: int, x: float, y: float) -> Vertex:
        """Register a vertex; re-adding with identical coordinates is a no-op."""
        existing = self._vertices.get(vertex_id)
        if existing is not None:
            if existing.x != x or existing.y != y:
                raise ValueError(
                    f"vertex {vertex_id} already exists at ({existing.x}, "
                    f"{existing.y}); refusing to move it to ({x}, {y})"
                )
            return existing
        vertex = Vertex(vertex_id, x, y)
        self._vertices[vertex_id] = vertex
        self._finalized = False
        self._partitions.clear()
        self._out.setdefault(vertex_id, ())
        self._in.setdefault(vertex_id, [])
        return vertex

    def add_edge(self, start: int, end: int, length: float | None = None) -> Edge:
        """Add the directed edge ``(start -> end)``.

        ``length`` defaults to the Euclidean distance between the endpoint
        coordinates.  Both endpoints must already be vertices.
        """
        if start not in self._vertices:
            raise KeyError(f"unknown start vertex {start}")
        if end not in self._vertices:
            raise KeyError(f"unknown end vertex {end}")
        if start == end:
            raise ValueError(f"self-loop edges are not allowed (vertex {start})")
        key = (start, end)
        if key in self._edges:
            raise ValueError(f"edge {key} already exists")
        if length is None:
            length = self.euclidean(start, end)
        if length <= 0:
            raise ValueError(f"edge {key} must have positive length, got {length}")
        edge = Edge(start, end, float(length))
        self._edges[key] = edge
        self._out[start] += (edge,)
        self._in[end].append(edge)
        self._finalized = False
        self._partitions.clear()
        return edge

    def finalize(self) -> None:
        """Freeze out-edge ordering and the derived edge numbering.

        The two tables the codecs walk are then frozen: :meth:`numbering`
        and :meth:`out_table`.  Any later ``add_vertex`` / ``add_edge``
        unfreezes them.
        """
        if self._finalized:
            return
        self._numbers.clear()
        max_degree = 0
        out = self._out
        for vertex_id, edges in out.items():
            edges = out[vertex_id] = tuple(sorted(edges, key=lambda e: e.end))
            max_degree = max(max_degree, len(edges))
            for number, edge in enumerate(edges, 1):
                self._numbers[edge.key] = number
        for edges in self._in.values():
            edges.sort(key=lambda e: e.start)
        self._max_out_degree = max_degree
        self._finalized = True

    def numbering(self) -> dict[tuple[int, int], int]:
        """Frozen table: edge key -> out number (Def. 6).

        Read-only; the encoder looks every path edge up here instead of
        calling :meth:`out_number` per symbol.
        """
        if not self._finalized:
            self.finalize()
        return self._numbers

    def out_table(self) -> dict[int, tuple[Edge, ...]]:
        """Frozen table: vertex -> its out-edges in number order, so
        ``out_table()[v][n - 1]`` is the edge numbered ``n`` and carries
        its end vertex and length.  Read-only; the decoder walks it, and
        the encoder reads lengths from it."""
        if not self._finalized:
            self.finalize()
        return self._out

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def vertex(self, vertex_id: int) -> Vertex:
        return self._vertices[vertex_id]

    def has_vertex(self, vertex_id: int) -> bool:
        return vertex_id in self._vertices

    def edge(self, start: int, end: int) -> Edge:
        return self._edges[(start, end)]

    def has_edge(self, start: int, end: int) -> bool:
        return (start, end) in self._edges

    def edge_length(self, start: int, end: int) -> float:
        return self._edges[(start, end)].length

    def out_edges(self, vertex_id: int) -> tuple[Edge, ...]:
        """Out-edges of ``vertex_id`` in frozen (numbering) order."""
        if not self._finalized:
            self.finalize()
        return self._out[vertex_id]

    def in_edges(self, vertex_id: int) -> tuple[Edge, ...]:
        self.finalize()
        return tuple(self._in[vertex_id])

    def out_degree(self, vertex_id: int) -> int:
        return len(self._out[vertex_id])

    def out_number(self, start: int, end: int) -> int:
        """The 1-based outgoing edge number of ``(start -> end)`` (Def. 6)."""
        if not self._finalized:
            self.finalize()
        try:
            return self._numbers[(start, end)]
        except KeyError:
            raise KeyError(f"edge ({start}, {end}) is not in the network") from None

    def edge_by_number(self, start: int, number: int) -> Edge:
        """Inverse of :meth:`out_number`."""
        if not self._finalized:
            self.finalize()
        edges = self._out[start]
        if not 1 <= number <= len(edges):
            raise KeyError(
                f"vertex {start} has {len(edges)} out-edges; number {number} invalid"
            )
        return edges[number - 1]

    @property
    def max_out_degree(self) -> int:
        """The paper's ``o``: maximal out-degree over all vertices."""
        self.finalize()
        return self._max_out_degree

    # ------------------------------------------------------------------
    # iteration / statistics
    # ------------------------------------------------------------------
    def vertices(self) -> Iterator[Vertex]:
        return iter(self._vertices.values())

    def vertex_ids(self) -> Iterator[int]:
        return iter(self._vertices.keys())

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def average_out_degree(self) -> float:
        if not self._vertices:
            return 0.0
        return len(self._edges) / len(self._vertices)

    def euclidean(self, a: int, b: int) -> float:
        """Euclidean distance between two vertices' coordinates."""
        va, vb = self._vertices[a], self._vertices[b]
        return math.hypot(va.x - vb.x, va.y - vb.y)

    def bounding_box(self, margin: float = 0.0) -> BoundingBox:
        if not self._vertices:
            raise ValueError("bounding box of an empty network is undefined")
        xs = [v.x for v in self._vertices.values()]
        ys = [v.y for v in self._vertices.values()]
        box = BoundingBox(min(xs), min(ys), max(xs), max(ys))
        return box.expanded(margin) if margin else box

    def validate_path(self, edges: Iterable[tuple[int, int]]) -> bool:
        """True when ``edges`` is a connected path of existing edges (Def. 4)."""
        previous_end: int | None = None
        seen_any = False
        for start, end in edges:
            if (start, end) not in self._edges:
                return False
            if previous_end is not None and start != previous_end:
                return False
            previous_end = end
            seen_any = True
        return seen_any

    def path_length(self, edges: Iterable[tuple[int, int]]) -> float:
        """Total network length of a path given as ``(start, end)`` pairs."""
        return sum(self._edges[key].length for key in edges)
