"""Batch / shard-parallel query engine vs the one-at-a-time processor
and the brute-force oracle.

The engine must be a pure execution strategy: on any workload its
results are *identical* to calling the query processor once per query,
and therefore within PDDP error of the uncompressed oracle — the same
accuracy contract the single-query tests pin.  Sharding (with and
without worker processes) must be invisible in the results.
"""

import math
import random

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.network.grid import Rect
from repro.query import (
    BatchQueryEngine,
    BruteForceOracle,
    QueryEngineError,
    RangeQuery,
    ShardedQueryEngine,
    StIUIndex,
    UnknownEdgeError,
    UTCQQueryProcessor,
    WhenQuery,
    WhereQuery,
    query_from_dict,
    save_index,
    when_accuracy,
    where_accuracy,
)
from repro.query.engine import POOL_MIN_EXECUTIONS
from repro.trajectories.datasets import load_dataset
from repro.workloads.harness import build_query_workload

SHARDS = 3


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    network, trajectories = load_dataset("CD", 40, seed=47, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    root = tmp_path_factory.mktemp("engine")
    shard_paths = []
    total = len(archive.trajectories)
    for shard in range(SHARDS):
        lo = shard * total // SHARDS
        hi = (shard + 1) * total // SHARDS
        part = CompressedArchive(
            params=archive.params, trajectories=archive.trajectories[lo:hi]
        )
        path = root / f"shard-{shard}.utcq"
        part.save(path)
        save_index(StIUIndex(network, part), path)
        shard_paths.append(path)
    return network, trajectories, archive, shard_paths


def make_queries(network, trajectories, *, count, seed, alpha_zero=False):
    workload = build_query_workload(
        network, trajectories, count=count, seed=seed
    )
    if alpha_zero:
        return (
            [WhereQuery(tid, t, 0.0) for tid, t, _ in workload.where_queries]
            + [
                WhenQuery(tid, edge, rd, 0.0)
                for tid, edge, rd, _ in workload.when_queries
            ]
            + [RangeQuery(rect, t, 0.3) for rect, t, _ in workload.range_queries]
        )
    return (
        [WhereQuery(*args) for args in workload.where_queries]
        + [WhenQuery(*args) for args in workload.when_queries]
        + [RangeQuery(*args) for args in workload.range_queries]
    )


def pool_sized_queries(network, trajectories, shard_paths, *, seed, margin=16):
    """A request big enough that the engine routes it to its worker
    pool: ``make_queries`` grown until its plan holds at least
    ``POOL_MIN_EXECUTIONS + margin`` shard executions over >= 2 shards.
    Tests that pin pool behaviour size their requests with this."""
    target = POOL_MIN_EXECUTIONS + margin
    count = target // (2 + len(shard_paths))
    with ShardedQueryEngine(
        shard_paths, network=network, workers=1
    ) as planner:
        while True:
            queries = make_queries(
                network, trajectories, count=count, seed=seed
            )
            plan = planner.plan(queries)
            if len(plan.tasks) >= 2 and plan.executions >= target:
                return queries
            count += 4


def run_one_at_a_time(processor, queries):
    results = []
    for query in queries:
        if isinstance(query, WhereQuery):
            results.append(
                processor.where(query.trajectory_id, query.t, query.alpha)
            )
        elif isinstance(query, WhenQuery):
            results.append(
                processor.when(
                    query.trajectory_id,
                    query.edge,
                    query.relative_distance,
                    query.alpha,
                )
            )
        else:
            results.append(processor.range(query.rect, query.t, query.alpha))
    return results


class TestBatchEngine:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_one_at_a_time_exactly(self, world, seed):
        network, trajectories, archive, _ = world
        queries = make_queries(network, trajectories, count=30, seed=seed)
        rng = random.Random(seed)
        rng.shuffle(queries)
        index = StIUIndex(network, archive)
        expected = run_one_at_a_time(
            UTCQQueryProcessor(network, archive, index), queries
        )
        got = BatchQueryEngine(network, archive, index).run(queries)
        assert got == expected

    def test_matches_brute_force_oracle(self, world):
        network, trajectories, archive, _ = world
        queries = make_queries(
            network, trajectories, count=20, seed=9, alpha_zero=True
        )
        index = StIUIndex(network, archive)
        engine = BatchQueryEngine(network, archive, index)
        oracle = BruteForceOracle(network, trajectories)
        results = engine.run(queries)
        range_mismatches = 0
        for query, result in zip(queries, results):
            if isinstance(query, WhereQuery):
                expected = oracle.where(
                    query.trajectory_id, query.t, query.alpha
                )
                assert where_accuracy(
                    network, expected, result
                ).f1 == pytest.approx(1.0)
            elif isinstance(query, WhenQuery):
                expected = oracle.when(
                    query.trajectory_id,
                    query.edge,
                    query.relative_distance,
                    query.alpha,
                )
                assert when_accuracy(expected, result).recall == pytest.approx(
                    1.0
                )
            else:
                expected = oracle.range(query.rect, query.t, query.alpha)
                # PDDP rounding can flip borderline trajectories
                range_mismatches += len(set(expected) ^ set(result))
        assert range_mismatches <= 3

    def test_duplicates_answered_once(self, world):
        network, trajectories, archive, _ = world
        trajectory = trajectories[0]
        query = WhereQuery(
            trajectory.trajectory_id,
            (trajectory.start_time + trajectory.end_time) // 2,
            0.0,
        )
        engine = BatchQueryEngine(network, archive, StIUIndex(network, archive))
        results = engine.run([query, query, query])
        assert results[0] == results[1] == results[2]
        assert results[0] is results[1]  # one execution, shared answer

    def test_unknown_trajectory_yields_empty(self, world):
        network, _, archive, _ = world
        engine = BatchQueryEngine(network, archive, StIUIndex(network, archive))
        assert engine.run(
            [WhereQuery(10**9, 1000, 0.0), WhenQuery(10**9, (0, 1), 0.5, 0.0)]
        ) == [[], []]

    @pytest.mark.parametrize("edge", [(999999, 999998), (1, 1)])
    def test_when_on_an_edge_not_in_the_network_is_refused(
        self, world, edge
    ):
        """An unknown vertex, or two known vertices with no edge between
        them: a typed refusal naming the edge, never a bare ``KeyError``
        or an empty answer."""
        network, trajectories, archive, _ = world
        assert not network.has_edge(*edge)
        assert network.has_vertex(1)
        engine = BatchQueryEngine(
            network, archive, StIUIndex(network, archive)
        )
        tid = trajectories[0].trajectory_id
        with pytest.raises(
            UnknownEdgeError, match=f"no edge {edge[0]} -> {edge[1]} "
        ):
            engine.run([WhenQuery(tid, edge, 0.5, 0.0)])
        with pytest.raises(UnknownEdgeError):
            with ShardedQueryEngine(
                world[3], network=network, workers=1
            ) as sharded:
                sharded.run([WhenQuery(tid, edge, 0.5, 0.0)])

    def test_internal_key_error_is_not_an_empty_answer(self, world):
        """Only a where/when naming an id the archive does not hold is
        answered ``[]``; an index listing an id the archive cannot
        resolve is a defect and propagates."""
        network, trajectories, archive, _ = world
        index = StIUIndex(network, archive)
        full = BatchQueryEngine(network, archive, index)
        box = network.bounding_box()
        everywhere = Rect(box.min_x, box.min_y, box.max_x, box.max_y)
        probe, matches = next(
            (query, answer)
            for query in (
                RangeQuery(everywhere, (t.start_time + t.end_time) // 2, 0.0)
                for t in trajectories
            )
            for answer in full.run([query])
            if len(answer) >= 2
        )
        lacking = CompressedArchive(
            params=archive.params,
            trajectories=[
                t for t in archive.trajectories
                if t.trajectory_id != matches[0]
            ],
        )
        engine = BatchQueryEngine(network, lacking, index)
        with pytest.raises(KeyError):
            engine.run([probe])
        # the same id through where: the archive does not hold it
        assert engine.run([WhereQuery(matches[0], probe.t, 0.0)]) == [[]]
        # a KeyError from inside where, for an id the archive holds
        held = matches[1]

        def broken_where(trajectory_id, t, alpha):
            raise KeyError("internal")

        engine.processor.where = broken_where
        with pytest.raises(KeyError, match="internal"):
            engine.run([WhereQuery(held, probe.t, 0.0)])

    def test_rejects_non_queries(self, world):
        network, _, archive, _ = world
        engine = BatchQueryEngine(network, archive, StIUIndex(network, archive))
        with pytest.raises(QueryEngineError):
            engine.run(["where?"])


class TestShardedEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_single_archive_engine(self, world, workers):
        network, trajectories, archive, shard_paths = world
        queries = make_queries(network, trajectories, count=25, seed=17)
        # repeats exercise the cross-process dedupe path
        queries = queries + queries[::3]
        expected = BatchQueryEngine(
            network, archive, StIUIndex(network, archive)
        ).run(queries)
        with ShardedQueryEngine(
            shard_paths, network=network, workers=workers
        ) as engine:
            got = engine.run(queries)
        assert got == expected

    def test_network_resolved_from_provenance(self, tmp_path):
        """Shards written by the CLI path carry enough provenance to
        rebuild the network inside each worker."""
        from repro.pipeline.batch import save_archive_with_index

        network, trajectories = load_dataset(
            "CD", 10, seed=31, network_scale=12
        )
        archive = compress_dataset(network, trajectories, default_interval=10)
        path = tmp_path / "prov.utcq"
        save_archive_with_index(
            archive,
            path,
            network,
            provenance={
                "profile": "CD",
                "dataset_seed": "31",
                "network_scale": "12",
            },
        )
        trajectory = trajectories[0]
        query = WhereQuery(
            trajectory.trajectory_id,
            (trajectory.start_time + trajectory.end_time) // 2,
            0.0,
        )
        with ShardedQueryEngine([path], workers=1) as engine:
            got = engine.run([query])
        index = StIUIndex(network, archive)
        expected = UTCQQueryProcessor(network, archive, index).where(
            query.trajectory_id, query.t, query.alpha
        )
        assert got == [expected]

    def test_duplicate_trajectory_ids_rejected(self, world, tmp_path):
        network, _, archive, shard_paths = world
        clone = tmp_path / "clone.utcq"
        archive.save(clone)
        with pytest.raises(QueryEngineError):
            ShardedQueryEngine(
                [shard_paths[0], clone], network=network, workers=1
            )

    def test_closed_engine_rejects_runs(self, world):
        network, _, _, shard_paths = world
        engine = ShardedQueryEngine(
            shard_paths, network=network, workers=1
        )
        engine.close()
        with pytest.raises(QueryEngineError):
            engine.run([])


class TestShardedEngineLifecycle:
    def test_worker_death_raises_typed_and_restart_recovers(self, world):
        import os
        import signal
        import time

        from repro.query import WorkerPoolBroken

        network, trajectories, archive, shard_paths = world
        # pool-sized: a small request would never reach the dead worker
        queries = pool_sized_queries(
            network, trajectories, shard_paths, seed=21
        )
        expected = BatchQueryEngine(
            network, archive, StIUIndex(network, archive)
        ).run(queries)
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            assert engine.run(queries) == expected  # pool is warm
            victims = engine.pool.worker_pids()
            assert victims
            os.kill(victims[0], signal.SIGKILL)
            deadline = time.monotonic() + 30
            observed = None
            while time.monotonic() < deadline:
                try:
                    engine.run(queries)
                except WorkerPoolBroken as error:
                    observed = error
                    break
                time.sleep(0.05)
            assert isinstance(observed, WorkerPoolBroken)
            engine.restart_pool()
            assert engine.run(queries) == expected

    def test_close_is_idempotent(self, world):
        network, _, _, shard_paths = world
        engine = ShardedQueryEngine(shard_paths, network=network, workers=1)
        engine.run(make_queries(*world[:2], count=3, seed=1))
        engine.close()
        engine.close()  # second close must be a no-op, not an error
        assert engine.closed

    def test_run_after_close_raises_typed_subclass(self, world):
        from repro.query import EngineClosedError

        network, _, _, shard_paths = world
        engine = ShardedQueryEngine(shard_paths, network=network, workers=1)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.run([])
        with pytest.raises(EngineClosedError):
            engine.run_local(shard_paths[0], [])
        with pytest.raises(EngineClosedError):
            engine.restart_pool()

    def test_exit_does_not_mask_body_exception(self, world, monkeypatch):
        network, _, _, shard_paths = world
        engine = ShardedQueryEngine(shard_paths, network=network, workers=1)

        def explode() -> None:
            raise OSError("teardown went sideways")

        monkeypatch.setattr(engine, "close", explode)
        with pytest.raises(ValueError, match="the real failure"):
            with engine:
                raise ValueError("the real failure")

    def test_exit_still_raises_teardown_error_on_clean_body(
        self, world, monkeypatch
    ):
        network, _, _, shard_paths = world
        engine = ShardedQueryEngine(shard_paths, network=network, workers=1)

        def explode() -> None:
            raise OSError("teardown went sideways")

        monkeypatch.setattr(engine, "close", explode)
        with pytest.raises(OSError, match="teardown"):
            with engine:
                pass


class TestRunPooled:
    """The one dispatcher: the bare engine's pool route and the serving
    tier's both run their shard tasks through ``run_pooled``."""

    def test_bare_engine_overlaps_shard_roundtrips(self, world):
        import time

        from repro.serve import ChaosProxy, delay_fault

        network, trajectories, archive, shard_paths = world
        queries = pool_sized_queries(
            network, trajectories, shard_paths, seed=5
        )
        expected = BatchQueryEngine(
            network, archive, StIUIndex(network, archive)
        ).run(queries)
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            engine.pool = proxy = ChaosProxy(engine.pool)
            # every shard sub-batch sleeps 0.6s; three shards on two
            # workers take ~1.2s overlapped vs 1.8s one after another
            proxy.arm(*[delay_fault(0.6)] * SHARDS)
            started = time.monotonic()
            assert engine.run(queries) == expected
            elapsed = time.monotonic() - started
            assert proxy.injected["delay"] == SHARDS
            assert elapsed < 0.6 * SHARDS

    @staticmethod
    def _items(count):
        return [(f"shard-{n}.utcq", [n]) for n in range(count)]

    def test_an_error_at_window_one_starts_no_later_task(self, world):
        network, _, _, shard_paths = world
        started = []

        def answer(path, specs):
            started.append(path)
            raise OSError(f"{path} failed")

        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as engine:
            with pytest.raises(OSError, match="shard-0"):
                engine.run_pooled(
                    self._items(4), answer, lambda p, s: [], window=1
                )
        assert started == ["shard-0.utcq"]

    def test_started_tasks_are_collected_before_the_error(self, world):
        import threading
        import time

        network, _, _, shard_paths = world
        items = self._items(4)
        started, finished, fallbacks = [], [], []

        def answer(path, specs):
            started.append(path)
            if path == items[0][0]:
                raise OSError("first task failed")
            time.sleep(0.2)
            finished.append(path)
            return None  # the pool could not answer

        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as engine:
            with pytest.raises(OSError, match="first task"):
                engine.run_pooled(
                    items,
                    answer,
                    lambda path, specs: fallbacks.append(path),
                )
            assert sorted(finished) == sorted(started[1:])
            assert len(started) == len(items)
            # collected only: a request that fails falls back nowhere
            assert fallbacks == []

            caller = threading.get_ident()
            results, degraded = engine.run_pooled(
                items,
                lambda path, specs: None if specs[0] % 2 else specs,
                lambda path, specs: (threading.get_ident(), specs),
            )
        assert [specs for specs, _ in results] == [[0], [1], [2], [3]]
        # a fallback answers on the collecting thread, in task order
        assert [answers for _, answers in results] == [
            [0], (caller, [1]), [2], (caller, [3])
        ]
        assert degraded


class TestQuerySpecs:
    def test_round_trip_from_dicts(self):
        where = query_from_dict(
            {"kind": "where", "trajectory": 3, "time": 41000, "alpha": 0.2}
        )
        assert where == WhereQuery(3, 41000, 0.2)
        when = query_from_dict(
            {"kind": "when", "trajectory": 3, "edge": [5, 6], "rd": 0.25}
        )
        assert when == WhenQuery(3, (5, 6), 0.25, 0.0)
        range_ = query_from_dict(
            {"kind": "range", "rect": [0, 0, 10, 10], "time": 7, "alpha": 0.5}
        )
        assert range_ == RangeQuery(range_.rect, 7, 0.5)
        assert (range_.rect.min_x, range_.rect.max_y) == (0.0, 10.0)

    def test_bad_specs_rejected(self):
        with pytest.raises(QueryEngineError):
            query_from_dict({"kind": "teleport"})
        with pytest.raises(QueryEngineError):
            query_from_dict({"kind": "where", "trajectory": 1})
        with pytest.raises(QueryEngineError):
            query_from_dict({"kind": "when", "trajectory": 1, "edge": [1]})
        with pytest.raises(QueryEngineError):
            query_from_dict(
                {"kind": "range", "rect": [0, 0, 1], "time": 0}
            )

    def test_malformed_values_rejected_not_crashed(self):
        # non-sequence edge / rect, unparseable numbers, non-dict input:
        # all surface as QueryEngineError, never a raw TypeError
        with pytest.raises(QueryEngineError):
            query_from_dict({"kind": "when", "trajectory": 1, "edge": 5})
        with pytest.raises(QueryEngineError):
            query_from_dict({"kind": "range", "rect": 7, "time": 0})
        with pytest.raises(QueryEngineError):
            query_from_dict(
                {"kind": "where", "trajectory": "three", "time": 0}
            )
        with pytest.raises(QueryEngineError):
            query_from_dict([1, 2])

    @pytest.mark.parametrize("rd", [-0.5, -1e-12, 1.0 + 1e-12, 1.5, 3.0])
    def test_relative_distance_off_the_edge_is_refused(self, rd):
        # rd > 1 would answer for a point on a later edge of the path
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WhenQuery(1, (1, 2), rd, 0.5)
        with pytest.raises(QueryEngineError, match=r"\[0, 1\]"):
            query_from_dict(
                {"kind": "when", "trajectory": 1, "edge": [1, 2], "rd": rd}
            )

    def test_relative_distance_at_either_end_is_accepted(self):
        assert WhenQuery(1, (1, 2), 0.0, 0.5).relative_distance == 0.0
        assert WhenQuery(1, (1, 2), 1.0, 0.5).relative_distance == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "where.alpha", "when.rd", "when.alpha", "range.alpha",
            "rect.0", "rect.1", "rect.2", "rect.3",
        ],
    )
    def test_non_finite_numbers_are_refused(self, field, bad):
        documents = {
            "where": {"kind": "where", "trajectory": 1, "time": 5,
                      "alpha": 0.5},
            "when": {"kind": "when", "trajectory": 1, "edge": [1, 2],
                     "rd": 0.5, "alpha": 0.5},
            "range": {"kind": "range", "rect": [0.0, 0.0, 10.0, 10.0],
                      "time": 5, "alpha": 0.5},
        }
        kind, key = field.split(".")
        if kind == "rect":
            document = documents["range"]
            document["rect"][int(key)] = bad
        else:
            document = documents[kind]
            document[key] = bad
        with pytest.raises(QueryEngineError, match="finite"):
            query_from_dict(document)
