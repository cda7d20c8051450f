"""Tests for the improved TED representation (§4.1, Tables 2-3)."""

import pytest

from repro.core.improved_ted import (
    InstanceTuple,
    decode_instance,
    encode_instance,
    restore_time_flags,
)
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.trajectories.model import MappedLocation, TrajectoryInstance


@pytest.fixture(scope="module")
def network():
    return grid_network(4, 4, spacing=100.0)


@pytest.fixture
def paper_like_instance(network):
    """An instance with a point-free middle edge and a doubled edge,
    exercising both the 0-repeat and 0-flag cases of Table 2."""
    path = [(0, 1), (1, 2), (2, 6), (6, 7)]
    locations = [
        MappedLocation((0, 1), 87.5),
        MappedLocation((2, 6), 50.0),
        MappedLocation((2, 6), 75.0),
        MappedLocation((6, 7), 12.5),
    ]
    return TrajectoryInstance(path=path, locations=locations, probability=0.6)


class TestEncodeInstance:
    def test_edge_numbers_follow_path(self, network, paper_like_instance):
        encoded = encode_instance(network, paper_like_instance)
        assert encoded.start_vertex == 0
        # four path edges plus one repeat marker for the doubled edge
        assert len(encoded.edge_numbers) == 5
        assert encoded.edge_numbers[0] == network.out_number(0, 1)
        assert 0 in encoded.edge_numbers  # the repeat marker

    def test_time_flags_mark_point_entries(self, network, paper_like_instance):
        encoded = encode_instance(network, paper_like_instance)
        # edges: (0,1) one point, (1,2) none, (2,6) two points, (6,7) one
        assert encoded.time_flags == (1, 0, 1, 1, 1)

    def test_repeat_marker_sits_after_its_edge(self, network, paper_like_instance):
        encoded = encode_instance(network, paper_like_instance)
        # E = [no(0,1), no(1,2), no(2,6), 0, no(6,7)]
        assert encoded.edge_numbers[3] == 0
        assert encoded.edge_numbers[2] == network.out_number(2, 6)

    def test_distances_are_relative(self, network, paper_like_instance):
        encoded = encode_instance(network, paper_like_instance)
        assert encoded.relative_distances == pytest.approx(
            (0.875, 0.5, 0.75, 0.125)
        )

    def test_probability_carried(self, network, paper_like_instance):
        encoded = encode_instance(network, paper_like_instance)
        assert encoded.probability == 0.6


class TestInstanceTupleValidation:
    def test_flag_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InstanceTuple(0, (1, 2), (0.5,), (1,), 1.0)

    def test_flag_count_must_match_distances(self):
        with pytest.raises(ValueError):
            InstanceTuple(0, (1, 2), (0.5,), (1, 1), 1.0)

    def test_first_flag_must_be_one(self):
        with pytest.raises(ValueError):
            InstanceTuple(0, (1, 2), (0.5,), (0, 1), 1.0)

    def test_leading_repeat_marker_rejected(self):
        with pytest.raises(ValueError):
            InstanceTuple(0, (0, 1), (0.5, 0.5), (1, 1), 1.0)

    def test_trimmed_flags_drop_first_and_last(self):
        encoded = InstanceTuple(0, (1, 2, 1), (0.5, 0.5), (1, 0, 1), 1.0)
        assert encoded.trimmed_time_flags == (0,)
        assert restore_time_flags(encoded.trimmed_time_flags) == (1, 0, 1)

    def test_point_and_edge_counts(self):
        encoded = InstanceTuple(0, (1, 2, 1), (0.5, 0.5), (1, 0, 1), 1.0)
        assert encoded.point_count == 2
        assert encoded.edge_sequence_length == 3


class TestRoundTrip:
    def test_encode_decode_round_trip(self, network, paper_like_instance):
        encoded = encode_instance(network, paper_like_instance)
        decoded = decode_instance(network, encoded)
        assert decoded.path == paper_like_instance.path
        assert decoded.probability == paper_like_instance.probability
        assert decoded.location_edge_indices == (
            paper_like_instance.location_edge_indices
        )
        for got, expected in zip(decoded.locations, paper_like_instance.locations):
            assert got.edge == expected.edge
            assert got.ndist == pytest.approx(expected.ndist, abs=1e-6)

    def test_round_trip_single_edge_two_points(self, network):
        instance = TrajectoryInstance(
            path=[(0, 1)],
            locations=[MappedLocation((0, 1), 10.0), MappedLocation((0, 1), 60.0)],
            probability=1.0,
        )
        encoded = encode_instance(network, instance)
        assert encoded.edge_numbers[1] == 0
        decoded = decode_instance(network, encoded)
        assert decoded.path == instance.path
        assert decoded.locations[1].ndist == pytest.approx(60.0)

