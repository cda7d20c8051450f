"""Tests for the probabilistic map-matching substrate."""

import math
import random

import pytest

from repro.mapmatching import (
    MatcherConfig,
    ProbabilisticMapMatcher,
    candidates_for_point,
    synthesize_raw_dataset,
    synthesize_raw_trajectory,
)
from repro.mapmatching.candidates import emission_log_probability
from repro.mapmatching import hmm
from repro.mapmatching.hmm import BeamPartial
from repro.network.generators import grid_network
from repro.network.spatial_index import EdgeSpatialIndex
from repro.trajectories.datasets import CD
from repro.trajectories.model import RawPoint


@pytest.fixture(scope="module")
def network():
    return grid_network(8, 8, spacing=100.0)


@pytest.fixture(scope="module")
def spatial_index(network):
    return EdgeSpatialIndex(network)


@pytest.fixture(scope="module")
def matcher(network):
    return ProbabilisticMapMatcher(
        network, MatcherConfig(sigma=20.0, search_radius=50.0)
    )


class TestCandidates:
    def test_candidates_near_an_edge(self, spatial_index):
        # a point 10 m off the edge (0 -> 1)
        point = RawPoint(50.0, 10.0, 0)
        candidates = candidates_for_point(
            spatial_index, point, search_radius=30.0, sigma=20.0
        )
        assert candidates
        assert candidates[0].distance <= 30.0
        edges = {c.edge for c in candidates}
        assert (0, 1) in edges or (1, 0) in edges

    def test_candidates_sorted_by_distance(self, spatial_index):
        point = RawPoint(150.0, 40.0, 0)
        candidates = candidates_for_point(
            spatial_index, point, search_radius=80.0, sigma=20.0
        )
        distances = [c.distance for c in candidates]
        assert distances == sorted(distances)

    def test_fallback_to_nearest_edge(self, spatial_index):
        # far outside the network: still returns the nearest edge
        point = RawPoint(-500.0, -500.0, 0)
        candidates = candidates_for_point(
            spatial_index, point, search_radius=10.0, sigma=20.0
        )
        assert len(candidates) >= 1

    def test_emission_prefers_closer(self):
        assert emission_log_probability(5.0, 20.0) > emission_log_probability(
            50.0, 20.0
        )


class TestMatcherConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MatcherConfig(sigma=0.0)
        with pytest.raises(ValueError):
            MatcherConfig(beta=-1.0)
        with pytest.raises(ValueError):
            MatcherConfig(max_instances=0)


class TestSynthesis:
    def test_raw_trajectory_has_increasing_times(self, network):
        rng = random.Random(1)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=10.0
        )
        times = raw.times
        assert all(b > a for a, b in zip(times, times[1:]))
        assert len(raw) >= 2

    def test_noise_moves_points_off_road(self, network):
        rng = random.Random(2)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=20.0
        )
        # grid streets are axis-aligned at multiples of 100: noisy points
        # should rarely sit exactly on one
        off_road = sum(
            1
            for p in raw
            if min(p.x % 100, 100 - p.x % 100) > 1
            and min(p.y % 100, 100 - p.y % 100) > 1
        )
        assert off_road >= len(raw) // 2

    def test_dataset_batch(self, network):
        raws = synthesize_raw_dataset(
            network, CD.generation_config(), 5, seed=3
        )
        assert len(raws) == 5


class TestMatching:
    def test_match_produces_valid_uncertain_trajectory(self, network, matcher):
        rng = random.Random(4)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=10.0
        )
        matched = matcher.match(raw)
        assert matched is not None
        assert matched.times == list(raw.times)
        total = sum(i.probability for i in matched.instances)
        assert total == pytest.approx(1.0, abs=1e-6)
        for instance in matched.instances:
            assert network.validate_path(instance.path)
            assert instance.point_count == len(raw)

    def test_best_instance_is_near_ground_truth(self, network, matcher):
        rng = random.Random(5)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=5.0
        )
        matched = matcher.match(raw)
        assert matched is not None
        best = matched.best_instance()
        # each matched location should be close to its raw fix
        for point, location in zip(raw, best.locations):
            x, y = location.position(network)
            assert ((x - point.x) ** 2 + (y - point.y) ** 2) ** 0.5 < 60.0

    def test_noisy_points_yield_multiple_instances(self, network, matcher):
        rng = random.Random(6)
        multi = 0
        for _ in range(8):
            raw = synthesize_raw_trajectory(
                network, CD.generation_config(), rng, noise_sigma=35.0
            )
            matched = matcher.match(raw)
            if matched is not None and matched.instance_count > 1:
                multi += 1
        assert multi >= 3  # ambiguity should be common at high noise

    def test_instances_are_distinct(self, network, matcher):
        rng = random.Random(7)
        raw = synthesize_raw_trajectory(
            network, CD.generation_config(), rng, noise_sigma=30.0
        )
        matched = matcher.match(raw)
        assert matched is not None
        signatures = {i.signature() for i in matched.instances}
        assert len(signatures) == matched.instance_count

    def test_match_many_renumbers(self, network, matcher):
        raws = synthesize_raw_dataset(
            network, CD.generation_config(), 4, seed=8, noise_sigma=10.0
        )
        matched = matcher.match_many(raws, start_id=100)
        assert [t.trajectory_id for t in matched] == list(
            range(100, 100 + len(matched))
        )
        assert len(matched) >= 3  # the odd failure is tolerated

    def test_matched_output_compresses(self, network, matcher):
        """The full pipeline: raw GPS -> matcher -> UTCQ compression."""
        from repro.core.compressor import compress_dataset
        from repro.core.decoder import decode_archive

        raws = synthesize_raw_dataset(
            network, CD.generation_config(), 6, seed=9, noise_sigma=20.0
        )
        matched = matcher.match_many(raws)
        assert matched
        archive = compress_dataset(network, matched, default_interval=10)
        decoded = decode_archive(network, archive)
        for original, restored in zip(matched, decoded):
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                assert rest_inst.path == orig_inst.path


class _RecordedFrontier:
    def __init__(self, frontier, recorder):
        self.frontier = frontier
        self.recorder = recorder

    def path_to(self, *query):
        self.recorder.path_to_calls += 1
        return self.frontier.path_to(*query)


class _RecordingFrontiers:
    """Stands in for ``matcher.frontier_cache``: counts ``get`` calls and
    the ``path_to`` calls made on the frontiers it hands out."""

    def __init__(self, cache):
        self.cache = cache
        self.gets = 0
        self.path_to_calls = 0

    def get(self, *args):
        self.gets += 1
        return _RecordedFrontier(self.cache.get(*args), self)


def _beam_steps(matcher, raw):
    """``(beam, previous_step, step, straight)`` before each Viterbi
    step of ``raw``, the way ``match()`` takes them."""
    points = list(raw)
    steps = [matcher.candidate_step(point) for point in points]
    beam = matcher.initial_beam(steps[0])
    for i in range(1, len(steps)):
        straight = math.hypot(
            points[i].x - points[i - 1].x, points[i].y - points[i - 1].y
        )
        yield beam, steps[i - 1], steps[i], straight
        beam = matcher.extend_beam(beam, steps[i - 1], steps[i], straight)
        assert beam


class TestBeamLattice:
    """The mechanism of the list-Viterbi step, not its clock: a fix
    costs work per candidate pair, and extension never copies history."""

    @pytest.fixture(scope="class")
    def raw(self, network):
        return synthesize_raw_trajectory(
            network, CD.generation_config(), random.Random(52),
            noise_sigma=15.0,
        )

    def test_one_route_per_candidate_pair(self, network, raw):
        matcher = ProbabilisticMapMatcher(
            network, MatcherConfig(sigma=20.0, search_radius=50.0)
        )
        full_steps = 0
        for beam, previous_step, step, straight in _beam_steps(matcher, raw):
            if (len(beam), len(previous_step), len(step)) != (24, 4, 4):
                continue
            full_steps += 1
            recording = _RecordingFrontiers(matcher.frontier_cache)
            matcher.frontier_cache = recording
            try:
                matcher.extend_beam(beam, previous_step, step, straight)
            finally:
                matcher.frontier_cache = recording.cache
            # one frontier per previous candidate, one route per pair —
            # not one of each per (partial, candidate): 24 x 4 = 96
            assert recording.gets <= 4
            assert recording.path_to_calls <= 16
        assert full_steps >= 3

    def test_a_step_builds_nodes_only_for_the_partials_it_keeps(
        self, network, raw, monkeypatch
    ):
        matcher = ProbabilisticMapMatcher(
            network, MatcherConfig(sigma=20.0, search_radius=50.0)
        )
        keep = matcher.config.max_instances * 3
        built = []

        class CountedPartial(BeamPartial):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        full_steps = 0
        for beam, previous_step, step, straight in _beam_steps(matcher, raw):
            if (len(beam), len(previous_step), len(step)) != (24, 4, 4):
                continue
            full_steps += 1
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(hmm, "BeamPartial", CountedPartial)
                extended = matcher.extend_beam(
                    beam, previous_step, step, straight
                )
            # up to 24 x 4 = 96 extensions are scored; a lattice node is
            # built only for each of the 24 the beam keeps
            assert len(built) <= keep
            assert len(extended) == len(built)
        assert full_steps >= 3

    def test_partials_link_to_their_predecessor_by_identity(
        self, matcher, raw
    ):
        step_count = 0
        for beam, previous_step, step, straight in _beam_steps(matcher, raw):
            step_count += 1
            extended = matcher.extend_beam(beam, previous_step, step, straight)
            for partial in extended:
                assert any(partial.parent is before for before in beam)
                assert 0 <= partial.candidate_index < len(step)
        assert step_count >= 10
        # nothing a partial owns is as long as the trip
        for partial in extended:
            for name in BeamPartial.__slots__:
                value = getattr(partial, name)
                if isinstance(value, (tuple, list)):
                    assert len(value) < step_count
            assert len(partial.candidate_indices) == step_count + 1
