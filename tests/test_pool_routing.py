"""Route, then rung: small requests are answered in process, the pool
takes only what is big enough to split.

The rule (``ShardedQueryEngine.routes_to_pool``) is pinned at its
boundary and at each of its four conditions; the mechanism is pinned
where it would silently regress — a small request makes no pool submit
and no supervisor call and is one run of one engine over the union of
the open shards (a range spec executes once, not once per shard), the
union is built once and rebuilt only after a shard was dropped, the
workers are forked before the first request, an in-process request
still honours its deadline and counts as degraded only when the union
had to be dropped and rebuilt, corruption quarantines the shard whose
file raised.  Answers are equal on both sides of the boundary through
every serving surface, and over the wire the same route decides the
thread: the event loop finishes what is small, the executor whatever
may wait on the pool.
"""

import io
import json
import threading
import time

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.io import FileBackedArchive
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.query import (
    BatchQueryEngine,
    RangeQuery,
    ShardedQueryEngine,
    StIUIndex,
    UTCQQueryProcessor,
    WhereQuery,
    save_index,
)
from repro.query.engine import POOL_MIN_EXECUTIONS
from repro.query.transport import TransportError
from repro.serve import (
    DeadlineExceeded,
    Overloaded,
    QueryService,
    ShardQuarantined,
    ServiceConfig,
    WireClient,
    WireServerThread,
    corrupt_shard,
    restore_shard,
)
from repro.serve.service import MODE_BATCH, MODE_SHARDED
from repro.trajectories.datasets import load_dataset

from test_query_engine import make_queries, pool_sized_queries

SHARDS = 4


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


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` (a plain method or a classmethod) so every
    call appends its positional arguments to the returned list."""
    calls = []
    original = getattr(owner, name)  # a classmethod arrives bound

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    if isinstance(owner.__dict__[name], classmethod):
        counting = staticmethod(counting)
    monkeypatch.setattr(owner, name, counting)
    return calls


class TestMechanism:
    def test_small_request_never_touches_pool_or_supervisor(
        self, world, monkeypatch
    ):
        network, trajectories, _, oracle, _, _ = world
        queries = make_queries(network, trajectories, count=6, seed=8)[:16]
        assert len(queries) == 16
        range_specs = {q for q in queries if isinstance(q, RangeQuery)}
        assert range_specs
        service, pool = make_service(world)
        with service:
            assert len(service.engine.plan(queries).tasks) == SHARDS
            expected = oracle.run(queries)
            calls = service.supervisor.stats.snapshot()["calls"]
            routed = obs_metrics.counter(
                "repro_service_routed_total", labels={"route": "inprocess"}
            )
            routed_before = routed.value
            ranges = count_calls(monkeypatch, UTCQQueryProcessor, "range")
            runs = count_calls(monkeypatch, BatchQueryEngine, "run")
            response = service.submit_many(queries, trace=True)
            assert response.ok and response.results == expected
            assert response.mode == MODE_BATCH
            assert response.trace["attrs"]["route"] == "inprocess"
            # one engine, one run: a range spec executes once however
            # many shards it spans
            assert len(runs) == 1
            assert len(ranges) == len(range_specs)
            names = [c["name"] for c in response.trace["children"]]
            assert names == ["plan", "local", "merge"]
            local = response.trace["children"][1]["attrs"]
            assert local["shards"] == SHARDS
            assert local["specs"] == len(set(queries))
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
            assert engine._parts == {} and engine._union is None

    def test_union_is_built_once_and_rebuilt_once_after_a_drop(
        self, world, monkeypatch
    ):
        _, _, shard_paths, oracle, small, _ = world
        expected = oracle.run(small)
        merges = count_calls(monkeypatch, StIUIndex, "merged")
        opens = count_calls(monkeypatch, FileBackedArchive, "open")
        service, _ = make_service(world)
        with service:
            for _ in range(100):
                assert service.submit_many(small).results == expected
            assert len(merges) == 1
            assert sorted(path for (path,) in opens) == sorted(shard_paths)
            union = service.engine._union
            cache = union.processor.cache
            service.engine.drop_local_engine(shard_paths[1])
            for _ in range(3):
                assert service.submit_many(small).results == expected
            assert len(merges) == 2
            # only the dropped shard was reopened; the rebuilt union
            # starts from an empty decode cache
            assert [path for (path,) in opens[SHARDS:]] == [shard_paths[1]]
            assert service.engine._union is not union
            assert service.engine._union.processor.cache is not cache

    def test_union_is_extended_shard_by_shard(self, world):
        """A plan opens only the shards it involves; a later plan that
        involves more extends the union and keeps its decode cache."""
        network, _, shard_paths = world[:3]
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as engine:
            one_shard = where_specs(world, 4, shards=1)
            reference = engine.run(one_shard)
            assert list(engine._parts) == [shard_paths[0]]
            cache = engine._union.processor.cache
            engine.run(where_specs(world, 24))
            assert sorted(engine._parts) == sorted(shard_paths)
            assert engine._union.processor.cache is cache
            assert engine.run(one_shard) == reference

    def test_run_local_answers_for_its_shard_only(self, world):
        network, _, shard_paths, oracle, _, big = world
        ranges = [q for q in big if isinstance(q, RangeQuery)]
        full = oracle.run(ranges)
        assert any(full)
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as engine:
            engine.run(ranges)  # every shard open: the union spans all
            for path in shard_paths:
                assert engine.run_local(path, ranges) == [
                    [tid for tid in answer if engine.shard_for(tid) == path]
                    for answer in full
                ]

    def test_one_pool_task_falling_back_keeps_the_answer_exact(self, world):
        network, _, shard_paths, oracle, _, big = world

        class UnreadableOnce(CountingPool):
            failed = 0

            def decode(self, payload):
                if not self.failed:
                    self.failed += 1
                    raise TransportError("slab gone")
                return self.inner.decode(payload)

        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            engine.pool = pool = UnreadableOnce(engine.pool)
            fallbacks = engine.transport_fallbacks.value
            assert engine.run(big) == oracle.run(big)
            assert pool.submits == SHARDS and pool.failed == 1
            assert engine.transport_fallbacks.value == fallbacks + 1
            # the fallback opened the one shard it answered for
            assert len(engine._parts) == 1

    def test_expired_deadline_after_the_lock_runs_nothing(
        self, world, monkeypatch
    ):
        _, _, _, _, small, _ = world
        clock = FakeClock()
        service, _ = make_service(world, workers=1, clock=clock)
        with service:
            runs = count_calls(monkeypatch, BatchQueryEngine, "run")
            responses = []
            thread = threading.Thread(
                target=lambda: responses.append(
                    service.submit_many(small, deadline=5.0)
                )
            )
            # the request waits for the lock past its deadline
            with service._local_lock:
                thread.start()
                give_up = time.monotonic() + 30
                while (
                    service.admission.in_flight == 0
                    and time.monotonic() < give_up
                ):
                    time.sleep(0.001)
                clock.now += 10.0
            thread.join(timeout=30)
            assert not thread.is_alive()
            (response,) = responses
            assert not response.ok
            assert response.kind == "deadline"
            assert isinstance(response.error, DeadlineExceeded)
            assert runs == [] and service.engine._parts == {}
            assert service.stats.snapshot()["deadline_exceeded"] == 1
            assert service.admission.in_flight == 0

    def test_in_process_failure_falls_through_and_counts_degraded(
        self, world
    ):
        _, _, _, oracle, small, _ = world
        service, pool = make_service(world)
        with service:
            assert service.submit_many(small).ok  # warm the union
            wedged = service.engine._union
            parts = dict(service.engine._parts)
            assert sorted(parts) == sorted(service.engine.plan(small).tasks)

            def wedged_run(specs):
                raise RuntimeError("warm engine wedged")

            wedged.run = wedged_run
            response = service.submit_many(small)
            assert response.ok and response.results == oracle.run(small)
            assert response.mode == MODE_BATCH
            # dropped and rebuilt: a new engine over new file handles
            assert service.engine._union is not wedged
            for path, part in parts.items():
                assert part.archive.closed
                assert service.engine._parts[path] is not part
            assert pool.submits == 0
            stats = service.stats.snapshot()
            assert stats["routed_inprocess"] == 2
            assert stats["served_degraded_batch"] == 1
            # the rebuilt engine is healthy: nothing degraded after it
            assert service.submit_many(small).results == oracle.run(small)
            assert service.stats.snapshot()["served_degraded_batch"] == 1

    def test_reopened_engine_failing_too_surfaces_once(
        self, world, monkeypatch
    ):
        _, _, _, oracle, small, _ = world
        service, pool = make_service(world)
        with service:
            merges = count_calls(monkeypatch, StIUIndex, "merged")

            def wedged_run(self, specs):
                raise RuntimeError("wedged again")

            with monkeypatch.context() as patch:
                patch.setattr(BatchQueryEngine, "run", wedged_run)
                with pytest.raises(RuntimeError, match="wedged again"):
                    service.submit_many(small)
            # first build, one rebuild, and no third try
            assert len(merges) == 2
            assert service.admission.in_flight == 0
            assert pool.submits == 0
            response = service.submit_many(small)
            assert response.ok and response.results == oracle.run(small)
            assert response.mode == MODE_BATCH
            assert service.stats.snapshot()["served_degraded_batch"] == 0


def threads_calling(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` so every call appends the name of the thread
    it ran on."""
    names = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        names.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return names


LOOP_THREAD = "repro-wire-server"  # WireServerThread's event loop
EXECUTOR_THREAD = "repro-wire_"  # prefix of the wire executor's threads


def wire_dispatched() -> dict:
    """``repro_wire_dispatched_total`` by where the wire finished."""
    return {
        on: obs_metrics.counter(
            "repro_wire_dispatched_total", labels={"on": on}
        ).value
        for on in ("loop", "executor")
    }


def dispatched_since(before: dict) -> dict:
    after = wire_dispatched()
    return {on: after[on] - before[on] for on in after}


def spy_on_executor(monkeypatch, server) -> list:
    """Record every submission to the wire executor of ``server``."""
    executor = server.server._executor
    submits = []
    original = executor.submit

    def submit(*args, **kwargs):
        submits.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(executor, "submit", submit)
    return submits


class TestWireFinishesWhereItIsCheapest:
    """The wire front-end runs every request's first half (admission,
    plan, route) on its event loop, finishes a refusal or a small
    in-process request there too, and hands everything else to its
    executor — the only place a pool wait may block."""

    def test_small_request_runs_on_the_loop(self, world, monkeypatch):
        network, trajectories, _, oracle, _, _ = world
        queries = make_queries(network, trajectories, count=6, seed=8)[:16]
        assert len(queries) == 16
        expected = oracle.run(queries)
        service, pool = make_service(world)
        with service, WireServerThread(service) as server, WireClient(
            "127.0.0.1", server.port, seed=21
        ) as client:
            submits = spy_on_executor(monkeypatch, server)
            runs = threads_calling(monkeypatch, BatchQueryEngine, "run")
            before = wire_dispatched()
            result = client.request(queries)
            assert result.results == expected
            assert result.mode == MODE_BATCH
            assert runs == [LOOP_THREAD]
            assert submits == []
            assert pool.submits == 0
            assert dispatched_since(before) == {"loop": 1, "executor": 0}

    def test_pool_request_finishes_on_the_executor(self, world, monkeypatch):
        _, _, _, oracle, _, big = world
        expected = oracle.run(big)
        service, pool = make_service(world)
        with service, WireServerThread(service) as server, WireClient(
            "127.0.0.1", server.port, seed=22
        ) as client:
            merges = threads_calling(monkeypatch, ShardedQueryEngine, "merge")
            result = client.request(big)
            assert result.results == expected
            assert result.mode == MODE_SHARDED
            assert pool.submits == SHARDS
            (merged_on,) = merges
            assert merged_on.startswith(EXECUTOR_THREAD)

    def test_big_request_kept_off_the_pool_finishes_on_the_executor(
        self, world, monkeypatch
    ):
        _, _, _, oracle, _, big = world
        expected = oracle.run(big)
        service, pool = make_service(
            world,
            config=ServiceConfig(
                deadline=30.0,
                health_interval=None,
                breaker_failures=1,
                breaker_reset=60.0,
            ),
        )
        with service, WireServerThread(service) as server, WireClient(
            "127.0.0.1", server.port, seed=23
        ) as client:
            service.breaker.record_failure()  # open: routed in process
            submits = spy_on_executor(monkeypatch, server)
            runs = threads_calling(monkeypatch, BatchQueryEngine, "run")
            before = wire_dispatched()
            result = client.request(big)
            assert result.results == expected
            assert result.mode == MODE_BATCH
            assert pool.submits == 0
            (ran_on,) = runs
            assert ran_on.startswith(EXECUTOR_THREAD)
            assert len(submits) == 1
            assert dispatched_since(before) == {"loop": 0, "executor": 1}
            assert service.stats.snapshot()["routed_inprocess"] == 1

    def test_refusals_are_answered_on_the_loop(self, world, monkeypatch):
        _, _, shard_paths, oracle, small, big = world
        service, pool = make_service(
            world,
            config=ServiceConfig(
                deadline=30.0,
                health_interval=None,
                rate_per_second=1e-3,  # one request per client id
                burst=1,
                quarantine_reprobe=60.0,
            ),
        )
        with service, WireServerThread(service) as server:
            submits = spy_on_executor(monkeypatch, server)
            before = wire_dispatched()
            with WireClient(
                "127.0.0.1", server.port, client_id="shed", max_attempts=1,
                seed=24,
            ) as client:
                assert client.request(small).results == oracle.run(small)
                with pytest.raises(Overloaded):
                    client.request(big)  # past the constant, were it let in
            service._quarantine(shard_paths[0], RuntimeError("drill"))
            with WireClient(
                "127.0.0.1", server.port, client_id="gated", max_attempts=1,
                seed=25,
            ) as client:
                with pytest.raises(ShardQuarantined):
                    client.request(big)
            assert submits == []
            assert pool.submits == 0
            assert dispatched_since(before) == {"loop": 3, "executor": 0}
            stats = service.stats.snapshot()
            assert (stats["overloaded"], stats["quarantined"]) == (1, 1)
            assert service.admission.in_flight == 0

    def test_plan_runs_once_per_request_on_the_loop(self, world, monkeypatch):
        _, _, _, _, small, big = world
        service, _ = make_service(
            world,
            config=ServiceConfig(
                deadline=30.0,
                health_interval=None,
                breaker_failures=1,
                breaker_reset=60.0,
            ),
        )
        with service, WireServerThread(service) as server, WireClient(
            "127.0.0.1", server.port, seed=26
        ) as client:
            plans = threads_calling(monkeypatch, ShardedQueryEngine, "plan")
            before = wire_dispatched()
            assert client.request(small).mode == MODE_BATCH  # loop
            assert client.request(big).mode == MODE_SHARDED  # executor
            service.breaker.record_failure()
            assert client.request(big).mode == MODE_BATCH  # executor
            assert plans == [LOOP_THREAD] * 3
            assert dispatched_since(before) == {"loop": 1, "executor": 2}


class TestCorruptionNamesItsShard:
    def test_in_process_request_quarantines_the_shard_that_raised(
        self, world, monkeypatch
    ):
        _, _, shard_paths, oracle, small, _ = world
        service, _ = make_service(
            world,
            config=ServiceConfig(
                deadline=30.0, health_interval=None, quarantine_reprobe=60.0
            ),
        )
        bad = shard_paths[2]
        sink = io.StringIO()
        pristine = corrupt_shard(bad)
        obs_log.configure(sink)
        try:
            with service:
                ranges = [q for q in small if isinstance(q, RangeQuery)]
                assert ranges  # the plan touches every shard
                assert sorted(service.engine.plan(small).tasks) == sorted(
                    shard_paths
                )
                # every record of the bad shard is read, the damaged one
                # included: a where per trajectory it holds
                probes = [
                    WhereQuery(tid, 10_000, 0.0)
                    for tid, path in service.engine._route.items()
                    if path == bad
                ]
                response = service.submit_many(small + probes)
                assert response.kind == "quarantined"
                assert response.error.path == bad
                assert service.quarantined_shards() == [bad]
                records = [
                    json.loads(line) for line in sink.getvalue().splitlines()
                ]
                (corrupt,) = [
                    r for r in records if r["event"] == "io.corrupt_record"
                ]
                assert corrupt["path"] == bad
                assert bad not in service.engine._parts
                # a shard-0 request still answers, and nobody reopens
                # the quarantined shard on its behalf
                opens = count_calls(monkeypatch, FileBackedArchive, "open")
                healthy = where_specs(world, 6, shards=1)
                again = service.submit_many(healthy)
                assert again.ok and again.results == oracle.run(healthy)
                assert bad not in [path for (path,) in opens]
                assert service.submit_many(ranges).kind == "quarantined"
                assert bad not in [path for (path,) in opens]
        finally:
            obs_log.configure(None)
            restore_shard(bad, pristine)


class TestConcurrentDrops:
    def test_a_drop_never_lands_under_a_running_request(self, world):
        """Request threads share one union; a quarantine drops a shard
        out of it.  Both take ``_local_lock``, so no run ever sees a
        file closed under it: every response is the oracle's answer or
        a typed quarantine refusal, and none needed the engine rebuilt
        (an unlocked drop would surface as ``shard.local_reopen``)."""
        import sys

        _, _, shard_paths, oracle, small, _ = world
        expected = oracle.run(small)
        service, _ = make_service(world)
        stop = threading.Event()
        outcomes = []

        def requests():
            while not stop.is_set():
                response = service.submit_many(small)
                outcomes.append(
                    response.kind
                    if not response.ok or response.results == expected
                    else "wrong"
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with service:
                threads = [
                    threading.Thread(target=requests) for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                give_up = time.monotonic() + 1.5
                drills = 0
                while time.monotonic() < give_up:
                    bad = shard_paths[drills % SHARDS]
                    service._quarantine(bad, RuntimeError("drill"))
                    with service._quarantine_lock:
                        service._quarantined.clear()
                    drills += 1
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert drills and "ok" in outcomes
                assert set(outcomes) <= {"ok", "quarantined"}
                assert service.stats.snapshot()["served_degraded_batch"] == 0
                assert service.submit_many(small).results == expected
        finally:
            sys.setswitchinterval(interval)
