"""Route, then rung: small requests are answered in process, the pool
takes only what is big enough to split.

The rule (``ShardedQueryEngine.routes_to_pool``) is pinned at its
boundary and at each of its four conditions; the mechanism is pinned
where it would silently regress — a small request makes no pool submit
and no supervisor call, the workers are forked before the first
request, an in-process request still honours its deadline and counts
as degraded only when its warm engine had to be dropped and reopened.
Answers are equal on both sides of the boundary through every serving
surface.
"""

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.obs import metrics as obs_metrics
from repro.query import (
    BatchQueryEngine,
    ShardedQueryEngine,
    StIUIndex,
    WhereQuery,
    save_index,
)
from repro.query.engine import POOL_MIN_EXECUTIONS
from repro.serve import (
    DeadlineExceeded,
    QueryService,
    ServiceConfig,
    WireClient,
    WireServerThread,
)
from repro.serve.service import MODE_BATCH, MODE_SHARDED
from repro.trajectories.datasets import load_dataset

from test_query_engine import make_queries, pool_sized_queries

SHARDS = 3


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    network, trajectories = load_dataset("CD", 24, seed=71, network_scale=10)
    archive = compress_dataset(network, trajectories, default_interval=10)
    root = tmp_path_factory.mktemp("routing")
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
        shard_paths.append(str(path))
    # the reference is one engine over the unsharded in-memory archive,
    # itself checked against brute force in test_query_engine.py
    oracle = BatchQueryEngine(network, archive, StIUIndex(network, archive))
    small = make_queries(network, trajectories, count=5, seed=4)
    big = pool_sized_queries(network, trajectories, shard_paths, seed=4)
    return network, trajectories, shard_paths, oracle, small, big


class CountingPool:
    """Forwarding ``pool_wrapper`` that counts shard submissions."""

    def __init__(self, inner):
        self.inner = inner
        self.submits = 0

    def submit(self, path, specs, **kwargs):
        self.submits += 1
        return self.inner.submit(path, specs, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def make_service(world, *, workers=2, config=None, **kwargs):
    network, _, shard_paths = world[:3]
    holder = []

    def wrap(pool):
        holder.append(CountingPool(pool))
        return holder[0]

    service = QueryService(
        shard_paths,
        network=network,
        workers=workers,
        pool_wrapper=wrap,
        config=config or ServiceConfig(deadline=30.0, health_interval=None),
        **kwargs,
    )
    return service, (holder[0] if holder else None)


def where_specs(world, executions, *, shards=SHARDS):
    """``executions`` distinct where specs (one shard execution each)
    spread over the first ``shards`` shards."""
    _, trajectories, shard_paths = world[:3]
    with ShardedQueryEngine(shard_paths, workers=1, network=world[0]) as e:
        ids = [
            t.trajectory_id
            for t in trajectories
            if e.shard_for(t.trajectory_id) in shard_paths[:shards]
        ]
    return [
        WhereQuery(ids[n % len(ids)], 10_000 + n, 0.25)
        for n in range(executions)
    ]


# ----------------------------------------------------------------------
# the rule
# ----------------------------------------------------------------------
class TestRoutingRule:
    def test_boundary_is_the_constant(self, world):
        network, _, shard_paths = world[:3]
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            engine.pool = counting = CountingPool(engine.pool)
            below = engine.plan(where_specs(world, POOL_MIN_EXECUTIONS - 1))
            at = engine.plan(where_specs(world, POOL_MIN_EXECUTIONS))
            assert below.executions == POOL_MIN_EXECUTIONS - 1
            assert at.executions == POOL_MIN_EXECUTIONS
            assert not engine.routes_to_pool(below)
            assert engine.routes_to_pool(at)
            # and run() obeys it
            engine.run(where_specs(world, POOL_MIN_EXECUTIONS - 1))
            assert counting.submits == 0
            engine.run(where_specs(world, POOL_MIN_EXECUTIONS))
            assert counting.submits == SHARDS

    def test_executions_count_shard_work_not_queries(self, world):
        network, _, shard_paths, _, _, big = world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as engine:
            plan = engine.plan(big + big + [WhereQuery(10**9, 5, 0.1)])
            # duplicates and unknown ids cost nothing; a range spec
            # costs one execution per shard
            assert plan.executions == engine.plan(big).executions
            assert plan.executions == sum(
                SHARDS if hasattr(spec, "rect") else 1 for spec in set(big)
            )

    def test_single_shard_plan_stays_in_process(self, world):
        network, _, shard_paths = world[:3]
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            plan = engine.plan(
                where_specs(world, 2 * POOL_MIN_EXECUTIONS, shards=1)
            )
            assert len(plan.tasks) == 1
            assert not engine.routes_to_pool(plan)

    def test_no_pool_no_route(self, world):
        network, _, shard_paths, _, _, big = world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as engine:
            assert engine.pool is None
            assert not engine.routes_to_pool(engine.plan(big))

    def test_open_breaker_keeps_a_big_request_in_process(self, world):
        _, _, _, oracle, _, big = world
        service, pool = make_service(
            world,
            config=ServiceConfig(
                deadline=30.0,
                health_interval=None,
                breaker_failures=1,
                breaker_reset=60.0,
            ),
        )
        with service:
            service.breaker.record_failure()
            response = service.submit_many(big)
            assert response.ok and response.results == oracle.run(big)
            assert response.mode == MODE_BATCH
            assert pool.submits == 0
            # routed in process, answered in process: not degraded
            stats = service.stats.snapshot()
            assert stats["routed_inprocess"] == 1
            assert stats["served_degraded_batch"] == 0

    def test_hot_cache_hits_never_reach_the_pool(self, world):
        _, _, _, oracle, _, big = world
        service, pool = make_service(
            world,
            config=ServiceConfig(
                deadline=30.0, health_interval=None, hotcache_entries=4096
            ),
        )
        with service:
            expected = oracle.run(big)
            # run 1 establishes popularity, run 2 admits
            for _ in range(2):
                assert service.submit_many(big).results == expected
            before = pool.submits
            assert before == 2 * SHARDS
            plan = service.engine.plan(big)
            assert plan.executions == 0 and len(plan.cached) == len(set(big))
            response = service.submit_many(big)
            assert response.ok and response.results == expected
            assert pool.submits == before


# ----------------------------------------------------------------------
# same answers on both sides of the boundary, on every surface
# ----------------------------------------------------------------------
class TestAnswersAcrossTheBoundary:
    @pytest.mark.parametrize("size", ["small", "big"])
    def test_engine_service_and_wire_match_the_oracle(self, world, size):
        network, _, shard_paths, oracle, small, big = world
        queries = small if size == "small" else big
        expected = oracle.run(queries)
        pooled = size == "big"
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            assert engine.routes_to_pool(engine.plan(queries)) is pooled
            assert engine.run(queries) == expected
        service, pool = make_service(world)
        with service:
            response = service.submit_many(queries)
            assert response.ok and response.results == expected
            assert response.mode == (MODE_SHARDED if pooled else MODE_BATCH)
            with WireServerThread(service) as server, WireClient(
                "127.0.0.1", server.port, seed=5
            ) as client:
                result = client.request(queries)
                assert result.results == expected
                assert result.mode == response.mode
            assert pool.submits == (2 * SHARDS if pooled else 0)


# ----------------------------------------------------------------------
# the mechanism
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestMechanism:
    def test_small_request_never_touches_pool_or_supervisor(self, world):
        network, trajectories, _, oracle, _, _ = world
        queries = make_queries(network, trajectories, count=6, seed=8)[:16]
        assert len(queries) == 16
        service, pool = make_service(world)
        with service:
            calls = service.supervisor.stats.snapshot()["calls"]
            routed = obs_metrics.counter(
                "repro_service_routed_total", labels={"route": "inprocess"}
            )
            routed_before = routed.value
            response = service.submit_many(queries, trace=True)
            assert response.ok and response.results == oracle.run(queries)
            assert response.mode == MODE_BATCH
            assert response.trace["attrs"]["route"] == "inprocess"
            assert pool.submits == 0
            assert service.supervisor.stats.snapshot()["calls"] == calls
            stats = service.stats.snapshot()
            assert stats["routed_inprocess"] == 1
            assert stats["routed_pool"] == 0
            assert stats["served_sharded"] == 0
            # in-process is the routed rung here, not a degradation
            assert stats["served_degraded_batch"] == 0
            assert routed.value == routed_before + 1

    def test_pool_request_is_tallied_by_route(self, world):
        _, _, _, oracle, _, big = world
        service, pool = make_service(world)
        with service:
            response = service.submit_many(big)
            assert response.ok and response.results == oracle.run(big)
            assert pool.submits == SHARDS
            stats = service.stats.snapshot()
            assert stats["routed_pool"] == 1
            assert stats["routed_inprocess"] == 0
            assert stats["served_sharded"] == 1

    def test_workers_are_forked_at_construction(self, world):
        import os

        network, _, shard_paths = world[:3]
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            # before any request: forked while this process holds no
            # open shard for them to inherit
            pids = engine.pool.worker_pids()
            assert len(pids) == 2
            for pid in pids:
                os.kill(pid, 0)  # raises if the process is gone
            assert engine._local_engines == {}

    def test_deadline_is_checked_between_in_process_tasks(self, world):
        _, _, _, _, small, _ = world
        clock = FakeClock()
        service, _ = make_service(world, workers=1, clock=clock)
        with service:
            assert len(service.engine.plan(small).tasks) == SHARDS
            ran = []
            run_local = service.engine.run_local

            def slow_run_local(path, specs):
                ran.append(path)
                clock.now += 10.0  # the first task eats the deadline
                return run_local(path, specs)

            service.engine.run_local = slow_run_local
            response = service.submit_many(small, deadline=5.0)
            assert not response.ok
            assert response.kind == "deadline"
            assert isinstance(response.error, DeadlineExceeded)
            assert len(ran) == 1  # the remaining tasks never started
            assert service.stats.snapshot()["deadline_exceeded"] == 1

    def test_in_process_failure_falls_through_and_counts_degraded(
        self, world
    ):
        _, _, _, oracle, small, _ = world
        service, pool = make_service(world)
        with service:
            assert service.submit_many(small).ok  # warm every engine
            engines = service.engine._local_engines
            path = sorted(service.engine.plan(small).tasks)[0]
            wedged = engines[path]

            def wedged_run(specs):
                raise RuntimeError("warm engine wedged")

            wedged.run = wedged_run
            response = service.submit_many(small)
            assert response.ok and response.results == oracle.run(small)
            assert response.mode == MODE_BATCH
            # dropped and reopened: a new engine over a new file handle
            assert engines[path] is not wedged
            assert wedged.processor.archive.closed
            assert pool.submits == 0
            stats = service.stats.snapshot()
            assert stats["routed_inprocess"] == 2
            assert stats["served_degraded_batch"] == 1
            # the reopened engine is healthy: nothing degraded after it
            assert service.submit_many(small).results == oracle.run(small)
            assert service.stats.snapshot()["served_degraded_batch"] == 1

    def test_reopened_engine_failing_too_surfaces_once(
        self, world, monkeypatch
    ):
        from repro.query import engine as engine_module

        _, _, shard_paths, oracle, small, _ = world
        service, pool = make_service(world)
        with service:
            bad_path = shard_paths[0]
            assert bad_path in service.engine.plan(small).tasks
            opens = []
            open_shard = engine_module._open_shard_engine

            def open_wedged(path, network):
                opened = open_shard(path, network)
                if path == bad_path:
                    opens.append(path)

                    def wedged_run(specs):
                        raise RuntimeError("wedged again")

                    opened.run = wedged_run
                return opened

            monkeypatch.setattr(
                engine_module, "_open_shard_engine", open_wedged
            )
            with pytest.raises(RuntimeError, match="wedged again"):
                service.submit_many(small)
            # first open, one reopen, and no third try
            assert opens == [bad_path, bad_path]
            assert service.admission.in_flight == 0
            assert pool.submits == 0
            healthy = [
                spec
                for spec in where_specs(world, 12)
                if service.engine.shard_for(spec.trajectory_id) != bad_path
            ]
            assert healthy
            response = service.submit_many(healthy)
            assert response.ok and response.results == oracle.run(healthy)
            assert response.mode == MODE_BATCH
            assert service.stats.snapshot()["served_degraded_batch"] == 0
