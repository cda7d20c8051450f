"""Streaming map matching: edge cases and batch equivalence.

The streaming matcher shares the per-step beam operations with the
batch matcher, so its sealed output must be *identical* to a batch
``match()`` over the same accepted points — these tests pin that down,
including the feed shapes the ingestion path hits in production: a
single-point feed, out-of-order timestamps, and gaps long enough to
split trips.
"""

import random

import pytest

from repro.mapmatching import (
    MatcherConfig,
    ProbabilisticMapMatcher,
    synthesize_raw_dataset,
    synthesize_raw_trajectory,
)
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.stream import SessionConfig, StreamingMapMatcher, TripSessionizer
from repro.stream.ingest import ObserveStatus
from repro.trajectories.datasets import CD
from repro.trajectories.model import RawPoint, RawTrajectory


@pytest.fixture(scope="module")
def network():
    return grid_network(8, 8, spacing=100.0)


@pytest.fixture(scope="module")
def matcher(network):
    return ProbabilisticMapMatcher(
        network, MatcherConfig(sigma=20.0, search_radius=50.0)
    )


def assert_equal_trajectories(streamed, batched):
    assert (streamed is None) == (batched is None)
    if streamed is None:
        return
    assert streamed.times == batched.times
    assert streamed.instance_count == batched.instance_count
    for a, b in zip(streamed.instances, batched.instances):
        assert a.signature() == b.signature()
        assert a.probability == b.probability
        assert a.path == b.path
        assert a.location_edge_indices == b.location_edge_indices


class TestBatchEquivalence:
    def test_streaming_matches_batch_on_synthetic_feeds(
        self, network, matcher
    ):
        raws = synthesize_raw_dataset(
            network, CD.generation_config(), 8, seed=31, noise_sigma=25.0
        )
        for raw in raws:
            streaming = StreamingMapMatcher(matcher=matcher)
            for point in raw:
                assert streaming.observe(point) is ObserveStatus.ACCEPTED
            assert_equal_trajectories(streaming.finish(), matcher.match(raw))

    def test_long_trip_matches_batch(self):
        """600 fixes down one street: per-fix state must not depend on
        trip age (the synthetic feeds above are ~13 fixes long)."""
        street = grid_network(3, 64, spacing=100.0)
        rng = random.Random(39)
        raw = RawTrajectory(
            tuple(
                RawPoint(20.0 + 10.0 * i + rng.gauss(0.0, 4.0),
                         100.0 + rng.gauss(0.0, 4.0), 5 * i)
                for i in range(600)
            )
        )
        long_matcher = ProbabilisticMapMatcher(street)
        streaming = StreamingMapMatcher(matcher=long_matcher)
        for point in raw:
            assert streaming.observe(point) is ObserveStatus.ACCEPTED
        assert streaming.agreed_prefix_length() > 0
        sealed = streaming.finish()
        assert len(sealed.times) == 600
        assert_equal_trajectories(sealed, long_matcher.match(raw))

    def test_single_point_feed(self, network, matcher):
        streaming = StreamingMapMatcher(matcher=matcher)
        point = RawPoint(150.0, 40.0, 100)
        assert streaming.observe(point) is ObserveStatus.ACCEPTED
        streamed = streaming.finish()
        batched = matcher.match(RawTrajectory((point,)))
        assert_equal_trajectories(streamed, batched)
        assert streamed.times == [100]

    def test_out_of_order_timestamps_are_dropped(self, network, matcher):
        rng = random.Random(33)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=10.0
        )
        points = list(raw)
        # inject a stale fix (timestamp in the past) mid-feed
        stale = RawPoint(points[2].x, points[2].y, points[0].t)
        feed = points[:3] + [stale, RawPoint(points[3].x, points[3].y, points[3].t)] + points[4:]
        streaming = StreamingMapMatcher(matcher=matcher)
        statuses = [streaming.observe(p) for p in feed]
        assert statuses.count(ObserveStatus.STALE) == 1
        assert streaming.counters.stale == 1
        # output equals batch over the accepted (in-order) subsequence
        assert_equal_trajectories(streaming.finish(), matcher.match(raw))

    def test_duplicate_timestamp_is_stale(self, matcher):
        streaming = StreamingMapMatcher(matcher=matcher)
        assert streaming.observe(RawPoint(50.0, 10.0, 5)) is ObserveStatus.ACCEPTED
        assert streaming.observe(RawPoint(60.0, 10.0, 5)) is ObserveStatus.STALE
        assert streaming.point_count == 1

    def test_finish_resets_for_the_next_trip(self, network, matcher):
        rng = random.Random(34)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=10.0
        )
        streaming = StreamingMapMatcher(matcher=matcher)
        for point in raw:
            streaming.observe(point)
        first = streaming.finish()
        assert first is not None
        assert streaming.point_count == 0
        # same feed again: the second trip must match batch too
        for point in raw:
            streaming.observe(point)
        assert_equal_trajectories(streaming.finish(), matcher.match(raw))

    def test_empty_feed_finishes_to_none(self, matcher):
        assert StreamingMapMatcher(matcher=matcher).finish() is None


class TestGapSplitting:
    def test_long_gap_splits_into_batch_equivalent_trips(
        self, network, matcher
    ):
        """A silence beyond gap_timeout cuts the trip; each piece must
        equal batch matching of its own points."""
        rng = random.Random(35)
        first = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=10.0
        )
        second = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=10.0
        )
        gap = 10_000
        offset = first.times[-1] + gap
        shifted = RawTrajectory(
            tuple(RawPoint(p.x, p.y, p.t + offset) for p in second)
        )
        sessionizer = TripSessionizer(
            network,
            MatcherConfig(sigma=20.0, search_radius=50.0),
            SessionConfig(gap_timeout=300.0),
        )
        sealed = []
        for point in list(first) + list(shifted):
            sealed.extend(sessionizer.observe("cab-7", point))
        sealed.extend(sessionizer.flush())
        assert sessionizer.counters.cuts["gap"] == 1
        assert len(sealed) == 2
        assert_equal_trajectories(sealed[0], matcher.match(first))
        assert_equal_trajectories(sealed[1], matcher.match(shifted))
        assert [t.trajectory_id for t in sealed] == [0, 1]


class TestFixedLag:
    def test_agreed_prefix_and_estimate(self, network, matcher):
        rng = random.Random(36)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=15.0
        )
        streaming = StreamingMapMatcher(matcher=matcher, fixed_lag=2)
        assert streaming.fixed_lag_estimate() is None
        for point in raw:
            streaming.observe(point)
            estimate = streaming.fixed_lag_estimate()
            assert estimate is not None
            index, location = estimate
            assert 0 <= index < streaming.point_count
            assert index >= streaming.point_count - 1 - 2
            length = network.edge_length(*location.edge)
            assert 0.0 <= location.ndist <= length
        assert 0 <= streaming.agreed_prefix_length() <= streaming.point_count

    @staticmethod
    def brute_force(streaming):
        """Both fixed-lag answers from the materialised candidate-index
        sequence of every beam partial: the longest common prefix, and
        the best partial's candidate ``fixed_lag`` steps behind the head."""
        if not streaming._beam:
            return 0, None
        sequences = [p.candidate_indices for p in streaming._beam]
        agreed = 0
        for column in zip(*sequences):
            if len(set(column)) > 1:
                break
            agreed += 1
        best = max(streaming._beam, key=lambda p: p.log_probability)
        index = max(0, streaming.point_count - 1 - streaming.fixed_lag)
        candidate = streaming._steps[index][best.candidate_indices[index]]
        return agreed, (index, streaming.matcher.candidate_location(candidate))

    @pytest.mark.parametrize("seed", [36, 37, 38])
    @pytest.mark.parametrize("fixed_lag", [0, 2, 1000])
    def test_agrees_with_brute_force_after_every_fix(
        self, network, seed, fixed_lag
    ):
        # 40 fixes and a beam of 6: the beam collapses as the trip goes
        # on (the ~11-fix, 24-partial default never agrees on anything)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), random.Random(seed),
            noise_sigma=15.0, edge_count=40,
        )
        assert len(raw) < 1000  # the longest lag outlasts the trip
        streaming = StreamingMapMatcher(
            network,
            MatcherConfig(sigma=20.0, search_radius=50.0, max_instances=2),
            fixed_lag=fixed_lag,
        )
        assert self.brute_force(streaming) == (0, None)
        agreed_lengths = []
        for point in raw:
            streaming.observe(point)
            agreed, estimate = self.brute_force(streaming)
            assert streaming.agreed_prefix_length() == agreed
            assert streaming.fixed_lag_estimate() == estimate
            agreed_lengths.append(agreed)
        assert len(set(agreed_lengths)) > 1
        assert len(streaming._beam) > 1

    def test_unmatchable_fix_leaves_the_estimates_alone(self):
        """A one-way street driven backwards: no route joins the fix to
        the trip, the beam stays as it was, and so do both answers."""
        one_way = RoadNetwork()
        for vertex, (x, y) in enumerate(((0.0, 0.0), (100.0, 0.0), (100.0, 100.0))):
            one_way.add_vertex(vertex, x, y)
        one_way.add_edge(0, 1)
        one_way.add_edge(1, 2)
        streaming = StreamingMapMatcher(one_way, fixed_lag=1)
        for t, (x, y) in enumerate(((20.0, 5.0), (60.0, 5.0), (105.0, 50.0))):
            assert streaming.observe(RawPoint(x, y, t)) is ObserveStatus.ACCEPTED
        beam = list(streaming._beam)
        before = (streaming.agreed_prefix_length(), streaming.fixed_lag_estimate())
        assert before == self.brute_force(streaming)
        status = streaming.observe(RawPoint(30.0, 5.0, 3))
        assert status is ObserveStatus.UNMATCHABLE
        assert streaming.point_count == 3
        assert len(streaming._beam) == len(beam)
        assert all(a is b for a, b in zip(streaming._beam, beam))
        after = (streaming.agreed_prefix_length(), streaming.fixed_lag_estimate())
        assert after == before == self.brute_force(streaming)
