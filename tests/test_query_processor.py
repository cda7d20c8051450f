"""Tests for StIU-backed queries against the brute-force oracle."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compressor import compress_dataset
from repro.network.grid import Rect
from repro.query import (
    BruteForceOracle,
    StIUIndex,
    UTCQQueryProcessor,
    range_accuracy,
    when_accuracy,
    where_accuracy,
)
from repro.query.queries import lemma4_survivors
from repro.query.stiu import IntervalRows
from repro.trajectories.datasets import load_dataset

from test_stiu_golden import spatial_rows


@pytest.fixture(scope="module")
def setup():
    network, trajectories = load_dataset("CD", 30, seed=41, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    index = StIUIndex(
        network, archive, grid_cells_per_side=16, time_partition_seconds=900
    )
    processor = UTCQQueryProcessor(network, archive, index)
    oracle = BruteForceOracle(network, trajectories)
    return network, trajectories, archive, index, processor, oracle


def mid_time(trajectory):
    return (trajectory.start_time + trajectory.end_time) // 2


class TestStIUStructure:
    def test_temporal_tuples_cover_span(self, setup):
        # a trajectory's first t.start is its start_time and its last
        # lies in end_time's interval, so the spatial layer's span is
        # fixed by the two times the archive's directory holds
        _, trajectories, _, index, _, _ = setup
        partition = index.time_partition_seconds
        for trajectory in trajectories:
            assert index.spatial.span(trajectory.trajectory_id) == (
                trajectory.start_time // partition,
                trajectory.end_time // partition,
            )

    def test_spatial_tuples_exist_for_visited_regions(self, setup):
        network, trajectories, _, index, _, _ = setup
        trajectory = trajectories[0]
        instance = trajectory.best_instance()
        start = network.vertex(instance.path[0][0])
        region = index.grid.cell_of_point(start.x, start.y)
        interval = index.interval_of(trajectory.start_time)
        rows = [
            entry
            for i, cell, trajectory_id, entry in spatial_rows(index.spatial)
            if (i, cell, trajectory_id)
            == (interval, region, trajectory.trajectory_id)
        ]
        assert len(rows) == 1
        references, _ = rows[0]
        assert references

    def test_p_total_bounded_by_one(self, setup):
        _, _, _, index, _, _ = setup
        for _, _, _, (references, _) in spatial_rows(index.spatial):
            for *_, p_total, p_max in references:
                assert 0.0 < p_total <= 1.0 + 1e-9
                assert 0.0 <= p_max <= p_total + 1e-9

    def test_index_size_positive_and_decomposes(self, setup):
        _, _, _, index, _, _ = setup
        assert index.temporal_size_bytes() > 0
        assert index.spatial_size_bytes() > 0
        assert index.size_bytes() == (
            index.temporal_size_bytes() + index.spatial_size_bytes()
        )

    def test_fig9_sizes_are_pinned(self, setup):
        """Fig. 9's byte model counts each spatial tuple once per interval
        its trajectory is active in, plus 8 bytes per occupied (interval,
        region); these are the values the tuple-object index reported,
        at one interval per trajectory and at a 60-second partition."""
        network, _, archive, index, _, _ = setup
        assert (index.temporal_size_bytes(), index.spatial_size_bytes()) == (
            560,
            25510,
        )
        fanned = StIUIndex(network, archive, time_partition_seconds=60)
        assert (fanned.temporal_size_bytes(), fanned.spatial_size_bytes()) == (
            2436,
            312040,
        )

    def test_finer_grid_grows_spatial_index(self, setup):
        network, _, archive, index, _, _ = setup
        finer = StIUIndex(
            network,
            archive,
            grid_cells_per_side=64,
            time_partition_seconds=900,
        )
        assert finer.spatial_size_bytes() >= index.spatial_size_bytes()


class TestWhereQuery:
    def test_where_matches_oracle_positions(self, setup):
        network, trajectories, _, _, processor, oracle = setup
        eta = 1 / 128
        checked = 0
        for trajectory in trajectories[:15]:
            t = mid_time(trajectory)
            got = processor.where(trajectory.trajectory_id, t, alpha=0.0)
            expected = oracle.where(trajectory.trajectory_id, t, alpha=0.0)
            report = where_accuracy(network, expected, got)
            assert report.f1 == pytest.approx(1.0)
            # PDDP-bounded positions: error <= eta * edge length + speed slack
            assert report.average_difference < 25.0
            checked += 1
        assert checked == 15

    def test_where_alpha_filters_instances(self, setup):
        _, trajectories, _, _, processor, _ = setup
        trajectory = max(trajectories, key=lambda t: t.instance_count)
        t = mid_time(trajectory)
        all_results = processor.where(trajectory.trajectory_id, t, alpha=0.0)
        strict = processor.where(trajectory.trajectory_id, t, alpha=0.5)
        assert len(strict) <= len(all_results)
        assert all(r.probability >= 0.5 for r in strict)

    def test_where_outside_span_is_empty(self, setup):
        _, trajectories, _, _, processor, _ = setup
        trajectory = trajectories[0]
        assert processor.where(
            trajectory.trajectory_id, trajectory.end_time + 10**5, 0.0
        ) == []


class TestWhenQuery:
    def _query_location(self, network, trajectory):
        instance = trajectory.best_instance()
        location = instance.locations[len(instance.locations) // 2]
        rd = location.ndist / network.edge_length(*location.edge)
        return location.edge, min(rd, 0.999)

    def test_when_matches_oracle(self, setup):
        network, trajectories, _, _, processor, oracle = setup
        for trajectory in trajectories[:15]:
            edge, rd = self._query_location(network, trajectory)
            got = processor.when(trajectory.trajectory_id, edge, rd, alpha=0.0)
            expected = oracle.when(
                trajectory.trajectory_id, edge, rd, alpha=0.0
            )
            report = when_accuracy(expected, got)
            assert report.recall == pytest.approx(1.0)
            if report.matched:
                # time deviation bounded by eta-induced position error over speed
                assert report.average_difference < 60.0

    def test_when_respects_alpha(self, setup):
        network, trajectories, _, _, processor, _ = setup
        trajectory = max(trajectories, key=lambda t: t.instance_count)
        edge, rd = self._query_location(network, trajectory)
        results = processor.when(trajectory.trajectory_id, edge, rd, alpha=0.6)
        assert all(r.probability >= 0.6 for r in results)

    def test_when_unvisited_edge_is_empty(self, setup):
        network, trajectories, _, _, processor, _ = setup
        trajectory = trajectories[0]
        visited = set()
        for instance in trajectory.instances:
            visited.update(instance.path)
        unvisited = next(
            e.key for e in network.edges() if e.key not in visited
        )
        assert processor.when(
            trajectory.trajectory_id, unvisited, 0.5, alpha=0.0
        ) == []

    @pytest.mark.parametrize("rd", [1.5, -0.5, 1.0 + 1e-9, float("nan")])
    def test_when_refuses_rd_off_the_edge(self, setup, rd):
        """Called directly, as the harness and the examples do, the
        processor refuses a point past either end of a real path edge
        instead of answering with a time spent on a neighbouring edge."""
        _, trajectories, _, _, processor, _ = setup
        trajectory = trajectories[0]
        edge = trajectory.best_instance().path[0]
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            processor.when(trajectory.trajectory_id, edge, rd, 0.0)
        for closed_end in (0.0, 1.0):  # [0, 1] is closed: both ends answer
            processor.when(trajectory.trajectory_id, edge, closed_end, 0.0)

    @pytest.mark.parametrize("edge", [(999999, 999998), (1, 1)])
    def test_when_refuses_an_edge_not_in_the_network(self, setup, edge):
        """An unknown vertex, or two known vertices with no edge between
        them: a typed refusal naming the edge, never a bare ``KeyError``
        (which a batch would read as an unknown trajectory)."""
        from repro.query import UnknownEdgeError

        network, trajectories, _, _, processor, _ = setup
        assert not network.has_edge(*edge) and network.has_vertex(1)
        with pytest.raises(
            UnknownEdgeError, match=f"no edge {edge[0]} -> {edge[1]} "
        ):
            processor.when(trajectories[0].trajectory_id, edge, 0.5, 0.0)
        # an id the archive does not hold is reported first, as before
        with pytest.raises(KeyError):
            processor.when(10**9, edge, 0.5, 0.0)


class TestRangeQuery:
    def _query_rect(self, network, trajectory, margin=150.0):
        instance = trajectory.best_instance()
        index = len(instance.locations) // 2
        x, y = instance.locations[index].position(network)
        return Rect(x - margin, y - margin, x + margin, y + margin)

    def test_range_matches_oracle(self, setup):
        network, trajectories, _, _, processor, oracle = setup
        rng = random.Random(3)
        mismatch_budget = 0
        for trajectory in rng.sample(trajectories, 12):
            t = mid_time(trajectory)
            rect = self._query_rect(network, trajectory)
            got = set(processor.range(rect, t, alpha=0.3))
            expected = set(oracle.range(rect, t, alpha=0.3))
            # PDDP rounding can flip borderline trajectories; nearly all
            # decisions must agree.
            mismatch_budget += len(got ^ expected)
        assert mismatch_budget <= 2

    def test_range_includes_known_trajectory(self, setup):
        network, trajectories, _, _, processor, oracle = setup
        hits = 0
        for trajectory in trajectories[:10]:
            t = mid_time(trajectory)
            rect = self._query_rect(network, trajectory, margin=400.0)
            expected = oracle.range(rect, t, alpha=0.2)
            if trajectory.trajectory_id not in expected:
                continue
            got = processor.range(rect, t, alpha=0.2)
            assert trajectory.trajectory_id in got
            hits += 1
        assert hits >= 5

    def test_range_far_away_is_empty(self, setup):
        network, _, _, _, processor, _ = setup
        box = network.bounding_box()
        far = Rect(
            box.max_x + 10**4,
            box.max_y + 10**4,
            box.max_x + 10**4 + 10,
            box.max_y + 10**4 + 10,
        )
        assert processor.range(far, 40000, alpha=0.1) == []

    def test_lemma4_prunes_trajectories(self, setup):
        network, trajectories, _, _, processor, _ = setup
        processor.counters.reset()
        trajectory = trajectories[0]
        rect = self._query_rect(network, trajectory, margin=60.0)
        processor.range(rect, mid_time(trajectory), alpha=0.9)
        # at least some non-overlapping trajectories must be pruned without
        # decompression when others share the time interval
        interval_population = len(
            processor.index.trajectories_in_interval(mid_time(trajectory))
        )
        if interval_population > 1:
            assert processor.counters.trajectories_pruned > 0


class TestAccuracyMetrics:
    def test_range_accuracy_perfect(self):
        report = range_accuracy([1, 2, 3], [1, 2, 3])
        assert report.f1 == 1.0

    def test_range_accuracy_partial(self):
        report = range_accuracy([1, 2, 3, 4], [1, 2])
        assert report.precision == 1.0
        assert report.recall == 0.5

    def test_empty_sets_score_one(self):
        report = range_accuracy([], [])
        assert report.f1 == 1.0


# ----------------------------------------------------------------------
# Lemma 4: admitting on one pair's mass keeps what the plain sum keeps
# ----------------------------------------------------------------------
SIDE = 4  # grid cells per side of the generated CSR


@st.composite
def csr_and_alpha(draw):
    """An interval CSR over a ``SIDE x SIDE`` grid (few ids, so they
    repeat across cells and rows), the runs of a rectangle, and alpha."""
    alpha = draw(
        st.one_of(
            st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.0 + 2**-52, 1.5]),
            st.floats(-1.0, 2.0, allow_nan=False),
        )
    )
    # 0, alpha itself, and halves of alpha that sum to it exactly
    at = max(alpha, 0.0)
    masses = st.one_of(
        st.sampled_from([0.0, at, at / 2, at / 4, 1.0]),
        st.floats(0.0, 1.25, allow_nan=False),
    )
    cells = draw(
        st.lists(
            st.integers(0, SIDE * SIDE - 1), unique=True, max_size=10
        ).map(sorted)
    )
    cell_start, ids, mass = [0], [], []
    for _ in cells:
        for tid in draw(
            st.lists(st.integers(0, 6), unique=True, min_size=1).map(sorted)
        ):
            ids.append(tid)
            mass.append(draw(masses))
        cell_start.append(len(ids))
    rows = IntervalRows(
        array("i", cells), array("i", cell_start), array("i", ids),
        array("d", mass),
    )
    lo_row, hi_row = sorted(draw(st.integers(0, SIDE - 1)) for _ in range(2))
    lo_col, hi_col = sorted(draw(st.integers(0, SIDE - 1)) for _ in range(2))
    runs = [
        range(row * SIDE + lo_col, row * SIDE + hi_col + 1)
        for row in range(lo_row, hi_row + 1)
    ]
    return rows, runs, alpha


def plain_rule(rows: IntervalRows, runs, alpha: float) -> list[int]:
    """Lemma 4 spelled out: sum every pair's mass per trajectory."""
    bounds: dict[int, float] = {}
    for run in runs:
        for k in rows.span(run.start, run.stop - 1):
            tid = rows.trajectory_ids[k]
            bounds[tid] = bounds.get(tid, 0.0) + rows.mass[k]
    return sorted(
        tid for tid, bound in bounds.items() if min(bound, 1.0) >= alpha
    )


@settings(max_examples=200, deadline=None)
@given(csr_and_alpha())
def test_lemma4_admit_or_sum_keeps_what_the_sum_keeps(case):
    rows, runs, alpha = case
    assert lemma4_survivors(rows, runs, alpha) == plain_rule(rows, runs, alpha)
