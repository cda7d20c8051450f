"""Tests for grid partitioning (StIU regions) and rectangles."""

import pickle
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.generators import grid_network, perturbed_grid_network
from repro.network.graph import BoundingBox
from repro.network.grid import GridPartition, Rect


@pytest.fixture
def unit_grid() -> GridPartition:
    return GridPartition(BoundingBox(0.0, 0.0, 8.0, 8.0), 4)


class TestRect:
    def test_contains(self):
        rect = Rect(0, 0, 2, 2)
        assert rect.contains(1, 1)
        assert rect.contains(0, 0)
        assert not rect.contains(3, 1)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_intersects(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))
        # touching edges count as intersecting
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 1, 2, 2))

    def test_contains_rect(self):
        assert Rect(0, 0, 4, 4).contains_rect(Rect(1, 1, 2, 2))
        assert not Rect(0, 0, 4, 4).contains_rect(Rect(1, 1, 5, 2))


class TestGridPartition:
    def test_cell_count(self, unit_grid):
        assert unit_grid.cell_count == 16

    def test_cell_of_point_corners(self, unit_grid):
        assert unit_grid.cell_of_point(0.1, 0.1) == 0
        assert unit_grid.cell_of_point(7.9, 0.1) == 3
        assert unit_grid.cell_of_point(0.1, 7.9) == 12
        assert unit_grid.cell_of_point(7.9, 7.9) == 15

    def test_points_outside_clamp(self, unit_grid):
        assert unit_grid.cell_of_point(-5, -5) == 0
        assert unit_grid.cell_of_point(50, 50) == 15

    def test_cell_rect_round_trip(self, unit_grid):
        for cell in range(unit_grid.cell_count):
            rect = unit_grid.cell_rect(cell)
            cx = (rect.min_x + rect.max_x) / 2
            cy = (rect.min_y + rect.max_y) / 2
            assert unit_grid.cell_of_point(cx, cy) == cell

    def test_cell_rect_out_of_range(self, unit_grid):
        with pytest.raises(ValueError):
            unit_grid.cell_rect(16)

    def test_invalid_cells_per_side(self):
        with pytest.raises(ValueError):
            GridPartition(BoundingBox(0, 0, 1, 1), 0)

    def test_cells_of_rect_covers_intersections(self, unit_grid):
        cells = unit_grid.cells_of_rect(Rect(1.0, 1.0, 3.0, 3.0))
        assert set(cells) == {0, 1, 4, 5}

    def test_cells_of_rect_single_cell(self, unit_grid):
        assert unit_grid.cells_of_rect(Rect(0.5, 0.5, 1.0, 1.0)) == [0]

    def test_cells_of_segment_horizontal(self, unit_grid):
        cells = unit_grid.cells_of_segment(0.5, 1.0, 7.5, 1.0)
        assert cells == [0, 1, 2, 3]

    def test_cells_of_segment_diagonal_is_connectedish(self, unit_grid):
        cells = unit_grid.cells_of_segment(0.5, 0.5, 7.5, 7.5)
        assert cells[0] == 0 and cells[-1] == 15
        assert {0, 5, 10, 15}.issubset(set(cells))

    def test_cells_of_point_segment(self, unit_grid):
        assert unit_grid.cells_of_segment(1.0, 1.0, 1.0, 1.0) == [0]

    def test_rect_of_cells(self, unit_grid):
        rect = unit_grid.rect_of_cells([0, 5])
        assert (rect.min_x, rect.min_y) == (0.0, 0.0)
        assert (rect.max_x, rect.max_y) == (4.0, 4.0)

    def test_rect_of_cells_empty_rejected(self, unit_grid):
        with pytest.raises(ValueError):
            unit_grid.rect_of_cells([])

    def test_for_network(self):
        network = grid_network(4, 4, spacing=50.0)
        grid = GridPartition.for_network(network, 8)
        for vertex in network.vertices():
            cell = grid.cell_of_point(vertex.x, vertex.y)
            assert 0 <= cell < grid.cell_count

    def test_cells_of_edge(self):
        network = grid_network(3, 3, spacing=100.0)
        grid = GridPartition.for_network(network, 4)
        cells = grid.cells_of_edge(network, 0, 1)
        assert len(cells) >= 1

    def test_degenerate_box_is_expanded(self):
        grid = GridPartition(BoundingBox(1.0, 1.0, 1.0, 1.0), 2)
        assert grid.box.width > 0 and grid.box.height > 0


class TestNetworkPartition:
    """One partition, and one edge table, per network and resolution."""

    def test_for_network_is_shared_per_resolution(self):
        network = grid_network(3, 3, spacing=100.0)
        grid = GridPartition.for_network(network, 8)
        assert GridPartition.for_network(network, 8) is grid
        assert GridPartition.for_network(network, 4) is not grid
        assert GridPartition.for_network(network, 8, margin=1.0) is not grid
        other = grid_network(3, 3, spacing=100.0)
        assert GridPartition.for_network(other, 8) is not grid

    def test_network_mutation_drops_the_partition(self):
        network = grid_network(3, 3, spacing=100.0)
        grid = GridPartition.for_network(network, 8)
        network.add_vertex(0, 0.0, 0.0)  # already there: nothing changed
        assert GridPartition.for_network(network, 8) is grid
        network.add_vertex(99, 1000.0, 1000.0)
        grown = GridPartition.for_network(network, 8)
        assert grown is not grid
        assert grown.box.max_x > grid.box.max_x
        network.add_edge(8, 99)
        assert GridPartition.for_network(network, 8) is not grown

    def test_cells_of_edge_equals_cells_of_segment(self):
        network = perturbed_grid_network(6, 6, spacing=90.0, seed=3)
        for cells_per_side in (1, 7, 32):
            grid = GridPartition.for_network(network, cells_per_side)
            for edge in network.edges():
                a, b = network.vertex(edge.start), network.vertex(edge.end)
                expected = tuple(grid.cells_of_segment(a.x, a.y, b.x, b.y))
                first = grid.cells_of_edge(network, edge.start, edge.end)
                assert first == expected
                # the second answer is the remembered tuple itself
                assert grid.cells_of_edge(network, edge.start, edge.end) is first

    def test_table_describes_its_own_network_only(self):
        network = grid_network(3, 3, spacing=100.0)
        stretched = grid_network(3, 3, spacing=40.0)  # same ids, other places
        grid = GridPartition.for_network(network, 8)
        own = grid.cells_of_edge(network, 0, 1)
        a, b = stretched.vertex(0), stretched.vertex(1)
        foreign = grid.cells_of_edge(stretched, 0, 1)
        assert foreign == tuple(grid.cells_of_segment(a.x, a.y, b.x, b.y))
        assert foreign != own
        assert grid.cells_of_edge(network, 0, 1) is own

    def test_pickled_network_starts_without_partitions(self):
        network = grid_network(3, 3, spacing=100.0)
        grid = GridPartition.for_network(network, 8)
        grid.cells_of_edge(network, 0, 1)
        clone = pickle.loads(pickle.dumps(network))
        assert clone._partitions == {}
        assert GridPartition.for_network(network, 8) is grid
        fresh = GridPartition.for_network(clone, 8)
        assert fresh.box == grid.box
        assert fresh.cells_of_edge(clone, 0, 1) == grid.cells_of_edge(network, 0, 1)

    def test_threads_filling_one_table_agree(self):
        """More threads than cores rasterise every edge of a cold table
        under a short switch interval: all callers see one partition and
        every entry equals the single-threaded answer."""
        network = perturbed_grid_network(8, 8, spacing=90.0, seed=5)
        twin = perturbed_grid_network(8, 8, spacing=90.0, seed=5)
        edges = [(e.start, e.end) for e in network.edges()]
        reference = GridPartition.for_network(twin, 16)
        expected = {key: reference.cells_of_edge(twin, *key) for key in edges}
        partitions, failures = [], []
        barrier = threading.Barrier(8)

        def fill(offset):
            barrier.wait(timeout=30)
            grid = GridPartition.for_network(network, 16)
            partitions.append(grid)
            for key in edges[offset:] + edges[:offset]:
                if grid.cells_of_edge(network, *key) != expected[key]:
                    failures.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=fill, args=(i * len(edges) // 8,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(partitions) == 8 and len({id(p) for p in partitions}) == 1
        assert partitions[0]._edge_cells == expected


@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.integers(1, 32),
)
def test_property_point_maps_into_its_cell_rect(x, y, cells):
    grid = GridPartition(BoundingBox(0.0, 0.0, 100.0, 100.0), cells)
    cell = grid.cell_of_point(x, y)
    rect = grid.cell_rect(cell)
    eps = 1e-6
    assert rect.min_x - eps <= x <= rect.max_x + eps
    assert rect.min_y - eps <= y <= rect.max_y + eps


@given(
    st.floats(5, 95), st.floats(5, 95), st.floats(5, 95), st.floats(5, 95),
    st.integers(1, 16),
)
def test_property_rect_cells_cover_rect_corners(x0, y0, x1, y1, cells):
    grid = GridPartition(BoundingBox(0.0, 0.0, 100.0, 100.0), cells)
    rect = Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
    covered = set(grid.cells_of_rect(rect))
    for cx, cy in [
        (rect.min_x, rect.min_y),
        (rect.max_x, rect.min_y),
        (rect.min_x, rect.max_y),
        (rect.max_x, rect.max_y),
    ]:
        assert grid.cell_of_point(cx, cy) in covered
