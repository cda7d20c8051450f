"""Tests for shortest paths, alternatives, random walks, and generators."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.generators import (
    dataset_network,
    grid_network,
    perturbed_grid_network,
)
from repro.network.shortest_path import (
    FrontierCache,
    SharedFrontier,
    dijkstra,
    k_alternative_paths,
    network_distance,
    random_walk_path,
    reachable_within,
    shortest_path,
)


@pytest.fixture(scope="module")
def grid():
    return grid_network(5, 5, spacing=100.0)


class TestDijkstra:
    def test_distance_to_self_is_zero(self, grid):
        distances, _ = dijkstra(grid, 0)
        assert distances[0] == 0.0

    def test_grid_distances_are_manhattan(self, grid):
        # 5x5 grid with 100 m blocks: vertex 0 to vertex 24 = 800 m
        assert network_distance(grid, 0, 24) == pytest.approx(800.0)

    def test_unknown_source_rejected(self, grid):
        with pytest.raises(KeyError):
            dijkstra(grid, 999)

    def test_cutoff_limits_exploration(self, grid):
        distances, _ = dijkstra(grid, 0, cutoff=150.0)
        assert all(d <= 150.0 for d in distances.values())
        assert 24 not in distances

    def test_forbidden_edges_force_detour(self, grid):
        direct = network_distance(grid, 0, 1)
        result = shortest_path(grid, 0, 1, forbidden_edges={(0, 1)})
        assert result is not None
        assert result[1] > direct

    def test_early_exit_at_target(self, grid):
        distances, _ = dijkstra(grid, 0, target=1)
        assert distances[1] == pytest.approx(100.0)


class TestShortestPath:
    def test_path_is_connected_and_valid(self, grid):
        path, length = shortest_path(grid, 0, 24)
        assert grid.validate_path(path)
        assert path[0][0] == 0 and path[-1][1] == 24
        assert length == pytest.approx(grid.path_length(path))

    def test_trivial_path(self, grid):
        assert shortest_path(grid, 3, 3) == ([], 0.0)

    def test_unreachable_returns_none(self, grid):
        assert shortest_path(grid, 0, 24, cutoff=100.0) is None

    def test_network_distance_unreachable_is_inf(self, grid):
        assert network_distance(grid, 0, 24, cutoff=50.0) == float("inf")


# every grid distance is tied many ways (the tie-break case); the
# perturbed networks have one-way streets, diagonals and no two equal
# lengths
FRONTIER_NETWORKS = [
    grid_network(6, 6, spacing=100.0),
    perturbed_grid_network(6, 6, seed=3),
    perturbed_grid_network(7, 5, removal_fraction=0.3, seed=11),
]
CUTOFFS = st.one_of(
    # on the grid these fall exactly on distances: "<= cutoff" is inclusive
    st.sampled_from([0.0, 100.0, 200.0, 300.0, 500.0, 1000.0, float("inf")]),
    st.floats(min_value=0.0, max_value=1500.0),
)


@st.composite
def frontier_queries(draw):
    network = draw(st.sampled_from(FRONTIER_NETWORKS))
    vertices = st.sampled_from(sorted(network.vertex_ids()))
    # few distinct targets, so they repeat under different cutoffs
    targets = st.sampled_from(draw(st.lists(vertices, min_size=1, max_size=6)))
    queries = draw(st.lists(st.tuples(targets, CUTOFFS), min_size=1, max_size=40))
    return network, draw(vertices), queries


class TestSharedFrontier:
    @given(frontier_queries())
    def test_every_answer_equals_a_fresh_bounded_search(self, case):
        """One frontier per source, cutoffs rising and falling, targets
        repeating: each answer is exactly that of a fresh bounded
        ``shortest_path`` — same edge keys, same length, same ``None``."""
        network, source, queries = case
        frontier = SharedFrontier(network, source)
        for target, cutoff in queries:
            expected = shortest_path(network, source, target, cutoff=cutoff)
            assert frontier.path_to(target, cutoff) == expected
            assert frontier.distance_to(target, cutoff) == (
                expected[1] if expected is not None else float("inf")
            )

    def test_trivial_query_ignores_the_cutoff(self, grid):
        assert SharedFrontier(grid, 3).path_to(3, 0.0) == ([], 0.0)

    def test_a_smaller_cutoff_hides_a_settled_vertex(self, grid):
        frontier = SharedFrontier(grid, 0)
        assert frontier.path_to(24, 800.0) is not None
        assert frontier.path_to(24, 799.0) is None
        assert frontier.path_to(24, 800.0) == shortest_path(grid, 0, 24)

    def test_unknown_source_rejected(self, grid):
        with pytest.raises(KeyError):
            SharedFrontier(grid, 999)


class TestFrontierCache:
    def test_one_entry_per_source_whatever_the_cutoff(self, grid):
        cache = FrontierCache(grid, maxsize=4)
        frontier = cache.get(0)
        frontier.path_to(24, 300.0)
        assert cache.get(0) is frontier
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_least_recently_used_source_is_evicted(self, grid):
        cache = FrontierCache(grid, maxsize=2)
        first, second = cache.get(0), cache.get(1)
        assert cache.get(0) is first  # 1 is now the oldest
        cache.get(2)  # evicts 1
        assert len(cache) == 2
        assert cache.get(0) is first
        assert cache.get(1) is not second
        assert (cache.hits, cache.misses) == (2, 4)

    def test_maxsize_one_still_answers_correctly(self, grid):
        cache = FrontierCache(grid, maxsize=1)
        for source, target in [(0, 24), (24, 0), (0, 24), (12, 3), (0, 24)]:
            assert cache.get(source).path_to(target, 900.0) == shortest_path(
                grid, source, target, cutoff=900.0
            )
            assert len(cache) == 1
        assert (cache.hits, cache.misses) == (0, 5)

    def test_unknown_source_rejected_and_not_cached(self, grid):
        cache = FrontierCache(grid, maxsize=2)
        with pytest.raises(KeyError):
            cache.get(999)
        assert len(cache) == 0

    def test_maxsize_validation(self, grid):
        with pytest.raises(ValueError):
            FrontierCache(grid, maxsize=0)


class TestAlternativePaths:
    def test_returns_distinct_paths_shortest_first(self, grid):
        paths = k_alternative_paths(grid, 0, 12, 3)
        assert len(paths) >= 2
        keys = {tuple(p) for p, _ in paths}
        assert len(keys) == len(paths)
        lengths = [length for _, length in paths]
        assert lengths == sorted(lengths)

    def test_k_validation(self, grid):
        with pytest.raises(ValueError):
            k_alternative_paths(grid, 0, 5, 0)

    def test_all_paths_valid(self, grid):
        for path, _ in k_alternative_paths(grid, 0, 6, 4):
            assert grid.validate_path(path)
            assert path[0][0] == 0 and path[-1][1] == 6


class TestReachability:
    def test_reachable_within_radius(self, grid):
        reachable = reachable_within(grid, 12, 100.0)
        assert set(reachable) == {12, 7, 11, 13, 17}


class TestRandomWalk:
    def test_walk_length_and_connectivity(self, grid):
        rng = random.Random(1)
        path = random_walk_path(grid, 0, 10, rng.choice)
        assert len(path) == 10
        assert grid.validate_path(path)

    def test_walk_avoids_immediate_backtrack(self, grid):
        rng = random.Random(2)
        for _ in range(20):
            path = random_walk_path(grid, 12, 8, rng.choice)
            for (a, _), (_, d) in zip(path, path[1:]):
                assert d != a or len(grid.out_edges(a)) == 1

    def test_walk_requires_positive_length(self, grid):
        with pytest.raises(ValueError):
            random_walk_path(grid, 0, 0, random.Random(0).choice)


class TestGenerators:
    def test_grid_network_shape(self):
        network = grid_network(3, 4)
        assert network.vertex_count == 12
        # inner edges both directions: horizontal 3*3, vertical 2*4 => *2
        assert network.edge_count == 2 * (3 * 3 + 2 * 4)

    def test_grid_network_validation(self):
        with pytest.raises(ValueError):
            grid_network(1, 5)

    def test_perturbed_network_is_deterministic(self):
        a = perturbed_grid_network(6, 6, seed=3)
        b = perturbed_grid_network(6, 6, seed=3)
        assert a.edge_count == b.edge_count
        assert {e.key for e in a.edges()} == {e.key for e in b.edges()}

    def test_perturbed_network_has_no_stranded_vertices(self):
        network = perturbed_grid_network(8, 8, removal_fraction=0.3, seed=5)
        for vid in network.vertex_ids():
            assert network.out_degree(vid) >= 1

    def test_perturbed_validation(self):
        with pytest.raises(ValueError):
            perturbed_grid_network(2, 2)

    @pytest.mark.parametrize("name", ["DK", "CD", "HZ"])
    def test_dataset_networks_build(self, name):
        network = dataset_network(name, scale=10)
        assert network.vertex_count == 100
        assert network.max_out_degree >= 2
        # Table 6: average out-degree between ~2 and ~3.5
        assert 1.5 <= network.average_out_degree() <= 4.0

    def test_dataset_network_unknown_profile(self):
        with pytest.raises(ValueError):
            dataset_network("XX")

    def test_dk_sparser_than_cd(self):
        dk = dataset_network("DK", scale=12)
        cd = dataset_network("CD", scale=12)
        assert dk.average_out_degree() < cd.average_out_degree()
