"""Tests for the edge spatial hash and point-to-segment projection."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.generators import dataset_network, grid_network
from repro.network.graph import RoadNetwork
from repro.network.grid import Rect
from repro.network.spatial_index import (
    EdgeSpatialIndex,
    project_point_to_segment,
)


class TestProjection:
    def test_projection_onto_interior(self):
        t, distance = project_point_to_segment(5, 3, 0, 0, 10, 0)
        assert t == pytest.approx(0.5)
        assert distance == pytest.approx(3.0)

    def test_projection_clamps_to_start(self):
        t, distance = project_point_to_segment(-5, 0, 0, 0, 10, 0)
        assert t == 0.0
        assert distance == pytest.approx(5.0)

    def test_projection_clamps_to_end(self):
        t, distance = project_point_to_segment(15, 0, 0, 0, 10, 0)
        assert t == 1.0
        assert distance == pytest.approx(5.0)

    def test_degenerate_segment(self):
        t, distance = project_point_to_segment(3, 4, 0, 0, 0, 0)
        assert t == 0.0
        assert distance == pytest.approx(5.0)

    @given(
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(-50, 50), st.floats(-50, 50),
        st.floats(-50, 50), st.floats(-50, 50),
    )
    def test_property_projection_within_segment(self, px, py, ax, ay, bx, by):
        t, distance = project_point_to_segment(px, py, ax, ay, bx, by)
        assert 0.0 <= t <= 1.0
        assert distance >= 0.0
        # distance to the projected point equals the reported distance
        qx, qy = ax + t * (bx - ax), ay + t * (by - ay)
        assert ((px - qx) ** 2 + (py - qy) ** 2) ** 0.5 == pytest.approx(
            distance, abs=1e-6
        )


@pytest.fixture(scope="module")
def index():
    return EdgeSpatialIndex(grid_network(6, 6, spacing=100.0))


class TestEdgeSpatialIndex:
    def test_edges_near_point_on_street(self, index):
        hits = index.edges_near(150.0, 5.0, radius=20.0)
        assert hits
        keys = {key for key, _, _ in hits}
        assert (1, 2) in keys or (2, 1) in keys

    def test_hits_sorted_by_distance(self, index):
        hits = index.edges_near(250.0, 130.0, radius=150.0)
        distances = [d for _, _, d in hits]
        assert distances == sorted(distances)

    def test_no_hits_when_radius_tiny_off_road(self, index):
        hits = index.edges_near(150.0, 50.0, radius=10.0)
        assert hits == []

    def test_nearest_edge_always_found(self, index):
        hit = index.nearest_edge(-400.0, -400.0)
        assert hit is not None
        key, t, distance = hit
        assert distance > 0

    def test_nearest_edge_on_road_is_exact(self, index):
        hit = index.nearest_edge(50.0, 0.0)
        assert hit is not None
        key, t, distance = hit
        assert distance == pytest.approx(0.0, abs=1e-9)
        assert key in {(0, 1), (1, 0)}


def _collinear_network():
    """Every vertex on y = 0, edges both ways, and one edge between two
    vertices at the same spot (a zero-length segment)."""
    network = RoadNetwork()
    for vertex in range(5):
        network.add_vertex(vertex, 100.0 * vertex, 0.0)
    for vertex in range(4):
        network.add_edge(vertex, vertex + 1)
        network.add_edge(vertex + 1, vertex)
    network.add_vertex(5, 200.0, 0.0)
    network.add_edge(2, 5, length=3.0)
    return network


_NETWORKS = {
    "CD": lambda: dataset_network("CD"),
    "DK": lambda: dataset_network("DK"),
    "HZ": lambda: dataset_network("HZ"),
    "collinear": _collinear_network,
}


def _full_scan(network, x, y):
    """Every edge projected with ``project_point_to_segment``:
    ``(distance, edge number, (key, t, distance))``."""
    rows = []
    for number, edge in enumerate(network.edges()):
        a, b = network.vertex(edge.start), network.vertex(edge.end)
        t, distance = project_point_to_segment(x, y, a.x, a.y, b.x, b.y)
        rows.append((distance, number, (edge.key, t, distance)))
    return rows


def _expected_near(network, grid, scan, x, y, radius):
    """The scan's edges within ``radius``, nearest first; ties in the
    order the query's cells first list them (cells ascending, each
    cell's edges in network order)."""
    query = set(
        grid.cells_of_rect(Rect(x - radius, y - radius, x + radius, y + radius))
    )
    expected = []
    edges = list(network.edges())
    for distance, number, hit in scan:
        if distance > radius:
            continue
        edge = edges[number]
        cells = query.intersection(
            grid.cells_of_edge(network, edge.start, edge.end)
        )
        # an edge within the radius must sit in a cell the query visits
        assert cells, f"{hit} within {radius} of ({x}, {y}) missed"
        expected.append((distance, min(cells), number, hit))
    expected.sort(key=lambda row: row[:3])
    return [row[3] for row in expected]


@pytest.mark.parametrize("name", sorted(_NETWORKS))
def test_edges_near_and_nearest_edge_equal_a_full_scan(name):
    """The index is a pure accelerator: for random points and radii --
    below one cell side, the matcher's 60 m, several cells -- and for
    points at vertices (exact distance ties), ``edges_near`` returns
    what projecting every edge returns, key, ``t`` and distance equal
    and in the same order, and ``nearest_edge`` (the matcher's
    fallback, exercised by points far outside the network) returns the
    scan's nearest edge."""
    network = _NETWORKS[name]()
    index = EdgeSpatialIndex(network)
    box = index.grid.box
    cell = min(box.width, box.height) / index.grid.cells_per_side
    rng = random.Random(f"spatial-{name}")
    vertices = list(network.vertices())
    points = []
    for _ in range(150):
        points.append(
            (
                rng.uniform(box.min_x - 3 * cell, box.max_x + 3 * cell),
                rng.uniform(box.min_y - 3 * cell, box.max_y + 3 * cell),
            )
        )
    for vertex in rng.sample(vertices, min(25, len(vertices))):
        points.append((vertex.x, vertex.y))
    points.append((box.min_x - 40 * cell, box.max_y + 25 * cell))
    for x, y in points:
        scan = _full_scan(network, x, y)
        radii = (rng.uniform(0.0, cell), 60.0, rng.uniform(cell, 4 * cell))
        for radius in radii:
            assert index.edges_near(x, y, radius) == _expected_near(
                network, index.grid, scan, x, y, radius
            )
        best = min(row[0] for row in scan)
        nearest = index.nearest_edge(x, y)
        assert nearest in [hit for distance, _, hit in scan if distance == best]
