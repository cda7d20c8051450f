"""Tests for chainage arithmetic and constant-speed interpolation."""

import pytest

from repro.network.generators import grid_network
from repro.trajectories.model import MappedLocation, TrajectoryInstance
from repro.trajectories.path import InstanceChainage, PathChainage


@pytest.fixture(scope="module")
def network():
    return grid_network(4, 4, spacing=100.0)


@pytest.fixture
def chain(network):
    return PathChainage(network, [(0, 1), (1, 2), (2, 6)])


class TestPathChainage:
    def test_total_length(self, chain):
        assert chain.total_length == pytest.approx(300.0)

    def test_edge_start(self, chain):
        assert chain.edge_start(0) == 0.0
        assert chain.edge_start(2) == pytest.approx(200.0)

    def test_chainage_of(self, chain):
        assert chain.chainage_of(1, 40.0) == pytest.approx(140.0)

    def test_chainage_out_of_path(self, chain):
        with pytest.raises(IndexError):
            chain.chainage_of(3, 0.0)

    def test_position_at_round_trip(self, chain):
        position = chain.position_at(140.0)
        assert position.edge_index == 1
        assert position.edge == (1, 2)
        assert position.ndist == pytest.approx(40.0)

    def test_position_at_clamps(self, chain):
        assert chain.position_at(-5.0).edge_index == 0
        end = chain.position_at(500.0)
        assert end.edge_index == 2
        assert end.ndist == pytest.approx(100.0)

    def test_position_at_edge_boundary(self, chain):
        position = chain.position_at(100.0)
        # boundary belongs to the next edge with ndist 0
        assert position.edge_index == 1
        assert position.ndist == pytest.approx(0.0)

    def test_empty_path_rejected(self, network):
        with pytest.raises(ValueError):
            PathChainage(network, [])


@pytest.fixture
def instance_chain(network):
    instance = TrajectoryInstance(
        path=[(0, 1), (1, 2), (2, 6)],
        locations=[
            MappedLocation((0, 1), 0.0),
            MappedLocation((1, 2), 0.0),
            MappedLocation((2, 6), 100.0),
        ],
        probability=1.0,
    )
    return InstanceChainage(network, instance)


class TestInstanceChainage:
    def test_location_chainages(self, instance_chain):
        assert instance_chain.location_chainages == pytest.approx(
            [0.0, 100.0, 300.0]
        )

    def test_position_at_time_midpoint(self, instance_chain):
        times = [0, 100, 300]
        position = instance_chain.position_at_time(times, 50)
        assert position.edge == (0, 1)
        assert position.ndist == pytest.approx(50.0)

    def test_position_at_time_second_segment(self, instance_chain):
        times = [0, 100, 300]
        # segment 2 covers 200 m over 200 s -> at t=150 we are 50 m in
        position = instance_chain.position_at_time(times, 150)
        assert position.edge == (1, 2)
        assert position.ndist == pytest.approx(50.0)

    def test_position_at_time_edge_boundary_goes_to_next_edge(self, instance_chain):
        times = [0, 100, 300]
        position = instance_chain.position_at_time(times, 200)
        assert position.edge == (2, 6)
        assert position.ndist == pytest.approx(0.0)

    def test_position_outside_span_is_none(self, instance_chain):
        times = [0, 100, 300]
        assert instance_chain.position_at_time(times, -1) is None
        assert instance_chain.position_at_time(times, 301) is None

    def test_position_at_exact_last_time(self, instance_chain):
        times = [0, 100, 300]
        position = instance_chain.position_at_time(times, 300)
        assert position.edge == (2, 6)
        assert position.ndist == pytest.approx(100.0)

    def test_time_at_chainage_inverts_position(self, instance_chain):
        times = [0, 100, 300]
        assert instance_chain.time_at_chainage(times, 50.0) == pytest.approx(50.0)
        assert instance_chain.time_at_chainage(times, 200.0) == pytest.approx(200.0)

    def test_time_at_chainage_outside_is_none(self, instance_chain):
        times = [0, 100, 300]
        assert instance_chain.time_at_chainage(times, 300.5) is None

    def test_times_at_position(self, instance_chain):
        times = [0, 100, 300]
        hits = instance_chain.times_at_position(times, (1, 2), 100.0)
        assert hits == [pytest.approx(200.0)]

    def test_times_at_position_not_on_path(self, instance_chain):
        times = [0, 100, 300]
        assert instance_chain.times_at_position(times, (5, 6), 10.0) == []

    def test_times_at_position_repeated_edge(self, network):
        instance = TrajectoryInstance(
            path=[(0, 1), (1, 0), (0, 1)],
            locations=[
                MappedLocation((0, 1), 0.0),
                MappedLocation((0, 1), 100.0),
            ],
            probability=1.0,
            location_edge_indices=[0, 2],
        )
        chain = InstanceChainage(network, instance)
        times = [0, 300]
        hits = chain.times_at_position(times, (0, 1), 50.0)
        assert len(hits) == 2
        assert hits[0] == pytest.approx(50.0)
        assert hits[1] == pytest.approx(250.0)

    def test_idling_returns_earlier_time(self, network):
        instance = TrajectoryInstance(
            path=[(0, 1)],
            locations=[
                MappedLocation((0, 1), 50.0),
                MappedLocation((0, 1), 50.0),
            ],
            probability=1.0,
        )
        chain = InstanceChainage(network, instance)
        assert chain.time_at_chainage([10, 20], 50.0) == pytest.approx(10.0)
