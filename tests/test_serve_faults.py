"""Chaos suite for the always-on query service.

Every scenario injects a real fault — a worker killed mid-query, a
response delayed past its budget, a shard corrupted on disk — and pins
the service's contract under it:

* every *completed* request returns results identical to a healthy
  single-process engine (degradation changes throughput, never
  answers);
* no request outlives its deadline by more than scheduling slack;
* failures are *typed* (``Overloaded`` / ``DeadlineExceeded`` /
  ``ShardQuarantined``), never hangs, partial answers, or crashes of
  the service itself.

The moving parts (token bucket, admission, breaker, retry policy,
supervisor) also get direct unit tests with fake clocks and fake
pools, which is where the state machines are pinned cheaply.
"""

import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.obs import metrics as obs_metrics
from repro.query import (
    QueryEngineError,
    ShardedQueryEngine,
    StIUIndex,
    WhereQuery,
    save_index,
)
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    ChaosProxy,
    CircuitBreaker,
    DeadlineExceeded,
    Overloaded,
    QueryService,
    RetryPolicy,
    ServiceClosedError,
    ServiceConfig,
    ShardQuarantined,
    TokenBucket,
    WorkerPoolUnavailable,
    WorkerSupervisor,
    corrupt_shard,
    delay_fault,
    kill_fault,
    restore_shard,
)
from repro.serve.admission import MAX_TRACKED_CLIENTS
from repro.serve.service import MODE_BATCH, MODE_SHARDED
from repro.trajectories.datasets import load_dataset

from test_query_engine import make_queries, pool_sized_queries

SHARDS = 3


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("CD", 24, seed=47, network_scale=10)


@pytest.fixture(scope="module")
def world(dataset, tmp_path_factory):
    network, trajectories = dataset
    archive = compress_dataset(network, trajectories, default_interval=10)
    root = tmp_path_factory.mktemp("serve")
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
    queries = make_queries(network, trajectories, count=15, seed=3)
    with ShardedQueryEngine(shard_paths, network=network, workers=1) as ref:
        expected = ref.run(queries)
    return network, shard_paths, queries, expected


@pytest.fixture(scope="module")
def pool_world(dataset, world):
    """``world`` with a request past ``POOL_MIN_EXECUTIONS``: the
    service answers ``world``'s 45 queries in process and splits only
    this one across its worker pool, where the pool faults land."""
    network, trajectories = dataset
    _, shard_paths, _, _ = world
    queries = pool_sized_queries(network, trajectories, shard_paths, seed=3)
    with ShardedQueryEngine(shard_paths, network=network, workers=1) as ref:
        expected = ref.run(queries)
    return network, shard_paths, queries, expected


def make_service(world, *, config=None, **kwargs):
    """A QueryService with a chaos proxy around its real worker pool."""
    network, shard_paths, _, _ = world
    holder = []

    def wrap(pool):
        proxy = ChaosProxy(pool)
        holder.append(proxy)
        return proxy

    service = QueryService(
        shard_paths,
        network=network,
        workers=2,
        pool_wrapper=wrap,
        config=config
        or ServiceConfig(deadline=30.0, health_interval=None),
        **kwargs,
    )
    return service, holder[0]


# ----------------------------------------------------------------------
# chaos scenarios (real processes, injected faults)
# ----------------------------------------------------------------------
class TestChaosScenarios:
    def test_healthy_service_matches_reference(self, pool_world):
        _, _, queries, expected = pool_world
        service, _ = make_service(pool_world)
        with service:
            response = service.submit_many(queries)
            assert response.ok
            assert response.results == expected
            assert response.mode == MODE_SHARDED
            assert service.stats.snapshot()["served_sharded"] == 1

    def test_worker_killed_mid_query_recovers_identically(self, pool_world):
        _, _, queries, expected = pool_world
        service, proxy = make_service(pool_world)
        with service:
            proxy.arm(kill_fault())
            response = service.submit_many(queries)
            assert response.ok
            assert response.results == expected
            stats = service.supervisor.stats.snapshot()
            assert stats["worker_deaths"] >= 1
            assert stats["respawns"] >= 1
            # the service survives and keeps serving afterwards
            again = service.submit_many(queries)
            assert again.ok and again.results == expected

    def test_slow_worker_is_hedged_or_retried_within_deadline(self, pool_world):
        _, _, queries, expected = pool_world
        service, proxy = make_service(pool_world)
        with service:
            proxy.arm(delay_fault(1.5))
            started = time.monotonic()
            response = service.submit_many(queries)
            elapsed = time.monotonic() - started
            assert response.ok
            assert response.results == expected
            assert elapsed < 1.5  # did not serialize behind the sleeper
            stats = service.supervisor.stats.snapshot()
            assert stats["hedges_launched"] + stats["attempt_timeouts"] >= 1

    def test_deadline_exhaustion_fails_typed_and_bounded(self, pool_world):
        _, _, queries, _ = pool_world
        config = ServiceConfig(
            deadline=0.6,
            health_interval=None,
            # 0.2 s * (1 + 2 + 4) of attempt budget outlasts the deadline:
            # the supervisor gives up before any in-process fallback
            retry=RetryPolicy(attempt_timeout=0.2, hedge_delay=0.05),
        )
        service, proxy = make_service(pool_world, config=config)
        with service:
            # every submission (retries and hedges included) sleeps past
            # the whole deadline
            proxy.arm(*[delay_fault(3.0)] * 12)
            started = time.monotonic()
            response = service.submit_many(queries)
            elapsed = time.monotonic() - started
            assert not response.ok
            assert response.kind in ("deadline", "failed")
            assert isinstance(
                response.error, (DeadlineExceeded, WorkerPoolUnavailable)
            )
            assert elapsed < 0.6 + 0.5  # bounded: deadline + slack
            proxy.clear()

    def test_breaker_opens_and_ladder_serves_degraded(self, pool_world):
        _, _, queries, expected = pool_world
        config = ServiceConfig(
            deadline=30.0,
            health_interval=None,
            breaker_failures=1,
            breaker_reset=0.2,
            retry=RetryPolicy(
                attempt_timeout=0.2, max_attempts=2, hedge_delay=0.05
            ),
        )
        service, proxy = make_service(pool_world, config=config)
        with service:
            # kill every pool submission: the pool rung burns its
            # attempts, the breaker opens, the shards answer in process
            proxy.arm(*[kill_fault()] * 30)
            response = service.submit_many(queries)
            assert response.ok
            assert response.results == expected
            assert response.mode == MODE_BATCH
            assert service.breaker.opens >= 1
            proxy.clear()
            assert service.stats.snapshot()["served_degraded_batch"] == 1
            # while open, requests skip the pool entirely (still correct)
            if service.breaker.state == OPEN:
                degraded = service.submit_many(queries)
                assert degraded.ok and degraded.results == expected
                assert degraded.mode == MODE_BATCH
            # after the reset window the half-open probe heals it
            time.sleep(0.25)
            healed = service.submit_many(queries)
            assert healed.ok and healed.results == expected
            assert healed.mode == MODE_SHARDED
            assert service.breaker.state == CLOSED

    def test_corrupt_shard_quarantined_then_readmitted(self, pool_world):
        self.quarantine_then_readmit(pool_world)

    def test_corrupt_shard_quarantined_in_process(self, world):
        # a small request never reaches the pool: its in-process shard
        # engines verify the same CRCs and quarantine the same way
        self.quarantine_then_readmit(world)

    @staticmethod
    def quarantine_then_readmit(world):
        network, shard_paths, queries, expected = world
        config = ServiceConfig(
            deadline=30.0, health_interval=None, quarantine_reprobe=0.2
        )
        service, proxy = make_service(world, config=config)
        with service:
            target = str(shard_paths[1])
            pristine = corrupt_shard(target)
            try:
                # flush warm workers so fresh ones re-read the bad bytes
                # (consumed by the first pool submit, if there is one)
                proxy.arm(kill_fault())
                response = service.submit_many(queries)
                assert not response.ok
                assert response.kind == "quarantined"
                assert isinstance(response.error, ShardQuarantined)
                assert service.quarantined_shards() == [target]

                # requests that do not touch the bad shard still work;
                # pick a where query routed to a healthy shard
                healthy = next(
                    query
                    for query in queries
                    if hasattr(query, "trajectory_id")
                    and service.engine.shard_for(query.trajectory_id)
                    not in (None, target)
                )
                ok_response = service.submit(healthy)
                assert ok_response.ok
                assert (
                    ok_response.result
                    == expected[queries.index(healthy)]
                )

                # a range query needs every shard: typed refusal, never
                # a partial union
                range_query = next(
                    query for query in queries if hasattr(query, "rect")
                )
                refused = service.submit(range_query)
                assert not refused.ok
                assert refused.kind == "quarantined"
            finally:
                restore_shard(target, pristine)
            time.sleep(0.25)  # past the re-probe window
            healed = service.submit_many(queries)
            assert healed.ok
            assert healed.results == expected
            assert service.quarantined_shards() == []
            assert service.stats.snapshot()["shards_readmitted"] == 1

    def test_close_is_idempotent_and_submit_after_close_is_typed(
        self, world
    ):
        service, _ = make_service(world)
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceClosedError):
            service.submit_many(world[2])

    def test_pipelined_dispatch_overlaps_shard_roundtrips(self, pool_world):
        _, _, queries, expected = pool_world
        # long attempt budget and hedge delay: the measured overlap is
        # the dispatch pipeline's, not the hedging machinery's
        config = ServiceConfig(
            deadline=30.0,
            health_interval=None,
            retry=RetryPolicy(attempt_timeout=10.0, hedge_delay=10.0),
        )
        service, proxy = make_service(pool_world, config=config)
        with service:
            # every shard sub-batch sleeps 0.6s; three shards on two
            # workers take ~1.2s pipelined vs 1.8s serialized
            proxy.arm(*[delay_fault(0.6)] * SHARDS)
            started = time.monotonic()
            response = service.submit_many(queries)
            elapsed = time.monotonic() - started
            assert response.ok
            assert response.results == expected
            assert response.mode == MODE_SHARDED
            assert elapsed < 0.6 * SHARDS  # strictly beats serial


# ----------------------------------------------------------------------
# admission control (fake clock)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAdmission:
    def test_token_bucket_spends_and_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_second=2.0, burst=2.0, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        assert bucket.seconds_until() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_take()
        clock.advance(100.0)  # refill caps at burst
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()

    def test_in_flight_window_sheds_then_recovers(self):
        controller = AdmissionController(max_in_flight=2)
        first = controller.admit("a")
        second = controller.admit("b")
        with pytest.raises(Overloaded):
            controller.admit("c")
        first.release()
        with controller.admit("c"):
            pass
        second.release()
        assert controller.in_flight == 0

    def test_rate_limit_is_per_client(self):
        clock = FakeClock()
        controller = AdmissionController(
            max_in_flight=10, rate_per_second=1.0, burst=1.0, clock=clock
        )
        controller.admit("hot").release()
        with pytest.raises(Overloaded) as excinfo:
            controller.admit("hot")
        assert excinfo.value.retry_after > 0
        # a different client is untouched by the hot client's bucket
        controller.admit("cold").release()

    def test_service_sheds_typed_overload_end_to_end(self, world):
        _, _, queries, _ = world
        config = ServiceConfig(
            deadline=30.0,
            health_interval=None,
            rate_per_second=0.001,
            burst=1.0,
        )
        service, _ = make_service(world, config=config)
        with service:
            first = service.submit(queries[0], client="greedy")
            assert first.ok
            shed = service.submit(queries[0], client="greedy")
            assert not shed.ok and shed.kind == "overloaded"
            assert isinstance(shed.error, Overloaded)
            other = service.submit(queries[0], client="patient")
            assert other.ok
            assert service.stats.snapshot()["overloaded"] == 1

    def test_client_id_flood_grows_neither_table_past_the_cap(self, world):
        network, shard_paths, _, _ = world
        service = QueryService(
            shard_paths,
            network=network,
            workers=1,
            config=ServiceConfig(
                deadline=30.0, health_interval=None, rate_per_second=1000.0
            ),
        )
        # an id no shard holds: answered [] at plan time, so the flood
        # costs admission and nothing else
        request = [WhereQuery(10**9, 5, 0.1)]
        flood = MAX_TRACKED_CLIENTS + 500
        with service:
            for n in range(flood):
                assert service.submit_many(request, client=f"c{n}").ok
            admission = service.admission
            assert len(admission.stats.clients_seen) == MAX_TRACKED_CLIENTS
            assert len(admission._buckets) <= MAX_TRACKED_CLIENTS
            told = service.telemetry()["admission"]
            assert told["clients_seen"] == MAX_TRACKED_CLIENTS
            assert told["admitted"] == flood


# ----------------------------------------------------------------------
# accounting: every request lands in exactly one outcome bucket, and the
# per-instance figures are views over the process registry
# ----------------------------------------------------------------------
OUTCOMES = (
    "completed", "overloaded", "deadline_exceeded", "quarantined", "failed"
)
SERVICE_KEYS = {
    "requests", *OUTCOMES, "served_sharded", "served_degraded_batch",
    "routed_pool", "routed_inprocess", "quarantines",
    "requarantine_probes", "shards_readmitted",
}
SUPERVISOR_KEYS = {
    "calls", "respawns", "worker_deaths", "attempt_timeouts", "retries",
    "hedges_launched", "hedges_won", "pings_ok", "pings_failed",
}
ADMISSION_KEYS = {
    "admitted", "shed_in_flight", "shed_rate_limited", "clients_seen",
    "in_flight",
}


class TestAccounting:
    def test_every_request_lands_in_exactly_one_outcome(self, world):
        _, shard_paths, queries, expected = world
        config = ServiceConfig(
            deadline=30.0,
            health_interval=None,
            quarantine_reprobe=0.05,
            rate_per_second=0.001,
            burst=1.0,
        )
        service, _ = make_service(world, config=config)
        with service:
            target = str(shard_paths[1])
            pristine = corrupt_shard(target)
            try:  # cold engines read the bad bytes: quarantined
                refused = service.submit_many(queries, client="q")
                assert refused.kind == "quarantined"
            finally:
                restore_shard(target, pristine)
            time.sleep(0.1)  # past the re-probe window
            answered = service.submit_many(queries, client="ok")
            assert answered.ok and answered.results == expected
            shed = service.submit_many(queries, client="ok")
            assert shed.kind == "overloaded"
            late = service.submit_many(queries, client="late", deadline=0.0)
            assert late.kind == "deadline"
            bad = service.submit_many(["not a spec"], client="bad")
            assert bad.kind == "failed" and bad.results is None
            assert isinstance(bad.error, QueryEngineError)
            stats = service.stats.snapshot()
            assert [stats[outcome] for outcome in OUTCOMES] == [1] * 5
            assert stats["requests"] == sum(
                stats[outcome] for outcome in OUTCOMES
            )
            assert service.admission.in_flight == 0

    def test_stats_are_views_that_start_at_zero(self, pool_world):
        _, _, queries, expected = pool_world
        registry = obs_metrics.get_registry()
        before = registry.snapshot()
        first, _ = make_service(pool_world)
        with first:
            assert first.submit_many(queries).results == expected
            assert first.stats.snapshot()["requests"] == 1
            assert first.supervisor.stats.snapshot()["calls"] == SHARDS
            assert first.admission.stats.get("admitted") == 1
        totals = registry.snapshot()["metrics"]
        second, _ = make_service(pool_world)
        with second:
            # a new service counts from 0; the registry keeps its totals
            told = second.telemetry()
            assert set(told) == {
                "service", "admission", "breaker", "quarantined_shards",
                "request_latency_p50", "request_latency_p99", "metrics",
                "supervisor",
            }
            assert set(told["service"]) == SERVICE_KEYS
            assert set(told["supervisor"]) == SUPERVISOR_KEYS
            assert set(told["admission"]) == ADMISSION_KEYS
            assert not any(told["service"].values())
            assert not any(told["supervisor"].values())
            assert not any(told["admission"].values())
            assert told["metrics"]["metrics"] == totals
        # what --metrics-out writes for the window: same names and labels
        exported = obs_metrics.render_prometheus(
            obs_metrics.snapshot_delta(registry.snapshot(), before)
        ).splitlines()
        for line in (
            "repro_service_requests_total 1",
            "repro_service_completed_total 1",
            'repro_service_served_total{mode="sharded"} 1',
            'repro_service_routed_total{route="pool"} 1',
            f"repro_supervisor_calls_total {SHARDS}",
            "repro_admission_admitted_total 1",
        ):
            assert line in exported
        for series in (
            'repro_service_served_total{mode="batch"}',
            'repro_service_rejected_total{reason="failed"}',
            'repro_admission_shed_total{reason="rate_limited"}',
            "repro_supervisor_hedges_won_total",
        ):
            assert series in totals
        assert 'mode="single"' not in registry.to_prometheus()


# ----------------------------------------------------------------------
# circuit breaker (fake clock)
# ----------------------------------------------------------------------
class TestBreaker:
    def test_full_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=5.0, clock=clock
        )
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # everyone else keeps falling back
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 2


# ----------------------------------------------------------------------
# supervisor (fake pool, no processes)
# ----------------------------------------------------------------------
class FakePool:
    """ShardWorkerPool stand-in: scripted outcomes, instant futures."""

    def __init__(self, outcomes) -> None:
        self.outcomes = list(outcomes)  # "ok" | exception | "hang"
        self.generation = 0
        self.workers = 2
        self.submits = 0
        self.restarts = 0
        self.futures: list = []

    def submit(self, path, specs, *, traced=False):
        self.submits += 1
        future = Future()
        self.futures.append(future)
        outcome = (
            self.outcomes.pop(0) if self.outcomes else "ok"
        )
        if outcome == "ok":
            future.set_result(["answer"])
        elif outcome == "hang":
            pass  # never completes
        else:
            future.set_exception(outcome)
        return future

    def restart(self) -> int:
        self.restarts += 1
        self.generation += 1
        return self.generation


class TestSupervisor:
    POLICY = RetryPolicy(
        attempt_timeout=0.05,
        max_attempts=3,
        backoff_base=0.0,
        backoff_multiplier=0.0,
        hedge_delay=0.01,
    )

    def test_answer_passes_through(self):
        pool = FakePool(["ok"])
        supervisor = WorkerSupervisor(pool, policy=self.POLICY)
        assert supervisor.call(
            "shard", [], deadline_at=time.monotonic() + 5
        ) == ["answer"]

    def test_broken_pool_respawns_then_succeeds(self):
        pool = FakePool([BrokenProcessPool("boom"), "ok"])
        supervisor = WorkerSupervisor(pool, policy=self.POLICY)
        assert supervisor.call(
            "shard", [], deadline_at=time.monotonic() + 5
        ) == ["answer"]
        assert pool.restarts == 1
        assert supervisor.stats.snapshot()["worker_deaths"] == 1

    def test_deterministic_error_is_never_retried(self):
        pool = FakePool([ValueError("bad spec"), "ok"])
        supervisor = WorkerSupervisor(pool, policy=self.POLICY)
        with pytest.raises(ValueError):
            supervisor.call("shard", [], deadline_at=time.monotonic() + 5)
        assert pool.submits == 1  # no second attempt

    def test_hang_times_out_hedges_and_exhausts_typed(self):
        pool = FakePool(["hang"] * 20)
        supervisor = WorkerSupervisor(pool, policy=self.POLICY)
        started = time.monotonic()
        with pytest.raises(WorkerPoolUnavailable):
            supervisor.call("shard", [], deadline_at=started + 5)
        stats = supervisor.stats.snapshot()
        assert stats["attempt_timeouts"] == 3
        assert stats["hedges_launched"] >= 1

    def test_abandoned_futures_are_never_cancelled(self):
        # Future.cancel() against a process pool can crash the
        # executor's manager thread on 3.11 (terminate_broken calls
        # set_exception on the cancelled future and dies with workers
        # still alive); the supervisor must abandon stragglers instead
        pool = FakePool(["hang"] * 20)
        supervisor = WorkerSupervisor(pool, policy=self.POLICY)
        with pytest.raises(WorkerPoolUnavailable):
            supervisor.call("shard", [], deadline_at=time.monotonic() + 5)
        assert pool.futures
        assert not any(future.cancelled() for future in pool.futures)

    def test_hedge_loser_is_abandoned_not_cancelled(self):
        pool = FakePool(["hang", "ok"])
        supervisor = WorkerSupervisor(pool, policy=self.POLICY)
        assert supervisor.call(
            "shard", [], deadline_at=time.monotonic() + 5
        ) == ["answer"]
        assert supervisor.stats.snapshot()["hedges_won"] == 1
        assert not any(future.cancelled() for future in pool.futures)

    def test_deadline_bounds_the_whole_loop(self):
        pool = FakePool(["hang"] * 20)
        supervisor = WorkerSupervisor(
            pool,
            policy=RetryPolicy(
                attempt_timeout=5.0, max_attempts=50, hedge_delay=0.01
            ),
        )
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            supervisor.call("shard", [], deadline_at=started + 0.2)
        assert time.monotonic() - started < 0.2 + 0.3

    def test_hedge_win_is_counted(self):
        pool = FakePool(["hang", "ok"])
        supervisor = WorkerSupervisor(pool, policy=self.POLICY)
        assert supervisor.call(
            "shard", [], deadline_at=time.monotonic() + 5
        ) == ["answer"]
        assert supervisor.stats.snapshot()["hedges_won"] == 1

    def test_generation_gate_prevents_double_respawn(self):
        pool = FakePool([])
        supervisor = WorkerSupervisor(pool, policy=self.POLICY)
        generation = pool.generation
        supervisor.respawn(seen_generation=generation)
        supervisor.respawn(seen_generation=generation)  # stale: no-op
        assert pool.restarts == 1

    def test_health_loop_respawns_broken_pool(self, world):
        network, shard_paths, _, _ = world
        service, proxy = make_service(world)
        with service:
            supervisor = service.supervisor
            # break the pool for real: kill a worker, then health-check
            proxy.arm(kill_fault())
            with pytest.raises(Exception):
                proxy.submit(str(shard_paths[0]), []).result(timeout=30)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if supervisor.check_health():
                    break
                time.sleep(0.05)
            assert supervisor.check_health()
            assert supervisor.stats.snapshot()["respawns"] >= 1
