"""The always-on query service: supervision, shedding, degradation.

:class:`QueryService` wraps a
:class:`~repro.query.engine.ShardedQueryEngine` into something a
long-lived front-end can actually lean on:

* **admission control** at the door (bounded in-flight window +
  per-client token buckets) sheds overload with a typed
  :class:`~repro.serve.errors.Overloaded` instead of queueing
  unboundedly;
* every admitted request runs under a **deadline**; shard sub-queries
  run on the engine's one dispatcher
  (:meth:`~repro.query.engine.ShardedQueryEngine.run_pooled`) through
  the breaker and the :class:`~repro.serve.supervisor.WorkerSupervisor`
  (respawn on worker death, retry with backoff, one cross-worker
  hedge), one at a time while the breaker is not closed;
* every request is **routed** first
  (:meth:`~repro.query.engine.ShardedQueryEngine.routes_to_pool`): one
  too small to repay the pool's fixed cost is answered on the calling
  thread by one run of the in-process engine; only a big one is split
  across the pool;
* there are **two rungs**, and the route fixes where a request
  starts: the sharded pool, and the one in-process
  :class:`~repro.query.engine.BatchQueryEngine` over the union of the
  open shards.  A **circuit breaker** watches pool outcomes; a
  pool-routed shard task the pool cannot answer (breaker refusing,
  attempts exhausted, answer bytes undecodable) is answered in process
  instead, on the request thread.
  An in-process engine that raises is dropped, reopened and asked
  **once more**; a second failure surfaces.  Both rungs produce
  results pinned identical to the one-at-a-time processor (and
  therefore the brute-force oracle, up to PDDP error) — they differ
  only in throughput;
* a shard whose records fail CRC verification is **quarantined**:
  requests that need it are refused with
  :class:`~repro.serve.errors.ShardQuarantined` (a range query is
  never answered from a partial union), and the file is re-probed
  after ``quarantine_reprobe`` seconds so a repaired shard re-enters
  service on its own.

``submit``/``submit_many`` never raise for per-request failures
(overload, deadline, quarantine, an unavailable pool, a malformed
spec); they return a :class:`ServiceResponse` whose ``error`` carries
the typed exception, which is what a wire front-end would serialize
and what the chaos bench's availability accounting consumes.

``submit_many`` is two halves run in sequence, and a caller may run
them on two threads: :meth:`QueryService.begin` admits, plans and
routes (a refusal is answered there), :meth:`QueryService.finish`
executes, merges and responds.  The wire front-end runs the first on
its event loop and decides from the :class:`PendingRequest` where the
second runs.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..io.format import CorruptArchiveError, read_header, record_crc
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import (
    bind_request_id,
    get_logger,
    next_request_id,
    unbind_request_id,
)
from ..query.engine import (
    DISPATCH_WINDOW,
    MODE_BATCH,
    MODE_SHARDED,
    BatchPlan,
    Query,
    QueryEngineError,
    ShardedQueryEngine,
    ShardWorkerPool,
)
from .admission import AdmissionController
from .breaker import CLOSED, OPEN, CircuitBreaker
from .errors import (
    DeadlineExceeded,
    Overloaded,
    ServiceClosedError,
    ShardQuarantined,
    WorkerPoolUnavailable,
)
from .supervisor import RetryPolicy, WorkerSupervisor

_log = get_logger("repro.serve.service")

# where a request was routed; the pool route answers "sharded" when
# nothing fails, the in-process route "batch"
ROUTE_POOL = "pool"
ROUTE_INPROCESS = "inprocess"

# what a request can be refused with; anything else is a bug and raises
_REFUSALS = (
    Overloaded,
    DeadlineExceeded,
    ShardQuarantined,
    WorkerPoolUnavailable,
    QueryEngineError,  # a malformed spec, or a closed engine
)


def _mode(route: str, degraded: bool) -> str:
    """The rung that answered: the pool only for a pool-routed request
    (or shard task) none of which fell back in process."""
    if route == ROUTE_POOL and not degraded:
        return MODE_SHARDED
    return MODE_BATCH


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving tier; defaults suit interactive traffic."""

    deadline: float = 2.0  # seconds per request, end to end
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_in_flight: int = 64
    rate_per_second: float | None = None  # per-client; None = unlimited
    burst: float | None = None
    breaker_failures: int = 3
    breaker_reset: float = 1.0
    quarantine_reprobe: float = 0.5
    health_interval: float | None = 1.0  # None: no background probing

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {self.deadline}")


@dataclass
class ServiceResponse:
    """Outcome of one request: an answer or a typed refusal."""

    ok: bool
    results: list | None  # aligned with the submitted queries
    error: Exception | None
    # "sharded", or "batch" when any shard ran in process; "" on error
    mode: str
    latency: float  # seconds, admission to response
    client: str
    trace: dict | None = None  # span tree when submitted with trace=True

    @property
    def kind(self) -> str:
        """Machine-readable outcome bucket (the wire error code)."""
        if self.ok:
            return "ok"
        if isinstance(self.error, Overloaded):
            return "overloaded"
        if isinstance(self.error, DeadlineExceeded):
            return "deadline"
        if isinstance(self.error, ShardQuarantined):
            return "quarantined"
        return "failed"

    @property
    def result(self):
        """The single query's answer (submit() convenience)."""
        if self.results is None:
            raise self.error
        return self.results[0]


@dataclass(eq=False)
class PendingRequest:
    """One request between :meth:`QueryService.begin` and
    :meth:`QueryService.finish`.

    Either answered already (``response`` set: shed, refused at the
    quarantine gate, a malformed spec, a deadline already past) or
    admitted — holding its admission slot — planned and routed.
    """

    client: str
    started: float  # service clock
    wall_started: float  # perf_counter, for the latency histogram
    request_id: str
    response: ServiceResponse | None = None
    slot: object | None = None
    deadline_at: float = 0.0
    plan: BatchPlan | None = None
    route: str = ""
    breaker: str = CLOSED  # the state the route was decided under
    root: obs_trace.Span | None = None  # the trace, with trace=True


class ServiceStats(obs_metrics.CounterTally):
    """This service's request counters: a view over the process registry.

    ``bump`` writes the shared registry counter named below (what a
    Prometheus scrape / ``--metrics-out`` exports) and nothing else;
    :meth:`snapshot` is those counters minus their values when this
    service was built, so services built one after another each start
    at 0.  Two alive in one process would share the tally.
    """

    # bump() name -> (registry counter, labels)
    METRICS = {
        "requests": ("repro_service_requests_total", None),
        "completed": ("repro_service_completed_total", None),
        "overloaded": (
            "repro_service_rejected_total", {"reason": "overloaded"}
        ),
        "deadline_exceeded": (
            "repro_service_rejected_total", {"reason": "deadline"}
        ),
        "quarantined": (
            "repro_service_rejected_total", {"reason": "quarantined"}
        ),
        "failed": ("repro_service_rejected_total", {"reason": "failed"}),
        "served_sharded": (
            "repro_service_served_total", {"mode": "sharded"}
        ),
        "served_degraded_batch": (
            "repro_service_served_total", {"mode": "batch"}
        ),
        "routed_pool": (
            "repro_service_routed_total", {"route": ROUTE_POOL}
        ),
        "routed_inprocess": (
            "repro_service_routed_total", {"route": ROUTE_INPROCESS}
        ),
        "quarantines": ("repro_service_quarantines_total", None),
        "requarantine_probes": (
            "repro_service_requarantine_probes_total", None
        ),
        "shards_readmitted": (
            "repro_service_shards_readmitted_total", None
        ),
    }

    def __init__(self) -> None:
        super().__init__({
            name: obs_metrics.counter(metric, labels=labels)
            for name, (metric, labels) in self.METRICS.items()
        })


class QueryService:
    """Supervised, deadline-bounded, load-shedding query serving."""

    def __init__(
        self,
        shard_paths,
        *,
        network=None,
        workers: int | None = None,
        config: ServiceConfig | None = None,
        pool: ShardWorkerPool | None = None,
        pool_wrapper=None,
        clock=time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self._clock = clock
        self.engine = ShardedQueryEngine(
            shard_paths,
            network=network,
            workers=workers,
            pool=pool,
        )
        if pool_wrapper is not None and self.engine.pool is not None:
            # chaos seam: e.g. pool_wrapper=lambda p: ChaosProxy(p, ...)
            self.engine.pool = pool_wrapper(self.engine.pool)
        self.admission = AdmissionController(
            max_in_flight=self.config.max_in_flight,
            rate_per_second=self.config.rate_per_second,
            burst=self.config.burst,
            clock=clock,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            reset_timeout=self.config.breaker_reset,
            clock=clock,
        )
        self.supervisor = (
            WorkerSupervisor(
                self.engine.pool, policy=self.config.retry, clock=clock
            )
            if self.engine.pool is not None
            else None
        )
        if (
            self.supervisor is not None
            and self.config.health_interval is not None
        ):
            self.supervisor.start_health_loop(self.config.health_interval)
        self.stats = ServiceStats()
        self._latency = obs_metrics.histogram(
            "repro_request_latency_seconds",
            help="End-to-end request latency, admission to response",
        )
        self._closed = False
        # serializes the engine's in-process side (its open shards and
        # the union engine over them): held around an in-process run, a
        # pool task's fallback, and every drop of an open shard —
        # re-entered when a drop happens inside a run's handler
        self._local_lock = threading.RLock()
        self._quarantine_lock = threading.Lock()
        self._quarantined: dict[str, float] = {}  # path -> quarantined at

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Idempotent; in-flight requests on other threads will surface
        :class:`ServiceClosedError` from the torn-down engine."""
        if self._closed:
            return
        self._closed = True
        if self.supervisor is not None:
            self.supervisor.stop()
        self.engine.close()

    def drain(
        self, timeout: float | None = None, *, poll_interval: float = 0.02
    ) -> bool:
        """Graceful shutdown: wait for in-flight requests to finish (or
        deadline out — every admitted request carries one), then
        :meth:`close`.  Nothing new is admitted by the caller during a
        drain (the wire front-end stops reading sockets first).

        ``timeout`` bounds the wait; the default is the configured
        request deadline plus a second, which is the longest any
        admitted request can legally take.  Returns True when the
        service went quiet inside the budget, False when it was closed
        with requests still in flight.
        """
        if self._closed:
            return True
        if timeout is None:
            timeout = self.config.deadline + 1.0
        deadline_at = time.monotonic() + timeout
        drained = self.admission.in_flight == 0
        while not drained and time.monotonic() < deadline_at:
            time.sleep(poll_interval)
            drained = self.admission.in_flight == 0
        _log.info(
            "service.drained",
            clean=drained,
            in_flight=self.admission.in_flight,
        )
        self.close()
        return drained

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except Exception:
            if exc_type is None:
                raise

    # ------------------------------------------------------------------
    # request surface
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        *,
        client: str = "default",
        deadline: float | None = None,
        trace: bool = False,
    ) -> ServiceResponse:
        """One query, one response (``response.result`` unwraps it)."""
        return self.submit_many(
            [query], client=client, deadline=deadline, trace=trace
        )

    def submit_many(
        self,
        queries,
        *,
        client: str = "default",
        deadline: float | None = None,
        trace: bool = False,
    ) -> ServiceResponse:
        """One request carrying a batch; one deadline covers all of it.
        Exactly :meth:`begin` then :meth:`finish`.

        With ``trace=True`` the request runs under a span tree — plan,
        per-shard pool calls with grafted worker spans and IPC
        accounting, merge — returned on ``response.trace``.
        """
        return self.finish(
            self.begin(queries, client=client, deadline=deadline, trace=trace)
        )

    def begin(
        self,
        queries,
        *,
        client: str = "default",
        deadline: float | None = None,
        trace: bool = False,
    ) -> PendingRequest:
        """First half of a request: admission slot, deadline, plan (the
        quarantine gate runs inside it) and route.
        Executes nothing.

        A refusal decided here — shed, quarantined, a malformed spec, a
        deadline already past — comes back answered
        (``pending.response``).  Any other request holds its admission
        slot until :meth:`finish`, which must follow.
        """
        if self._closed:
            raise ServiceClosedError("QueryService is closed")
        pending = PendingRequest(
            client=client,
            started=self._clock(),
            wall_started=time.perf_counter(),
            request_id=next_request_id(),
        )
        self.stats.bump("requests")
        token = bind_request_id(pending.request_id)
        try:
            pending.slot = self.admission.admit(client)
            pending.deadline_at = pending.started + (
                deadline if deadline is not None else self.config.deadline
            )
            if trace:
                pending.root = obs_trace.Span(
                    "request", {"client": client, "queries": len(queries)}
                ).start()
            with obs_trace.within(pending.root), obs_trace.trace_span(
                "plan", queries=len(queries)
            ):
                # the gate runs inside plan(): a quarantined shard
                # refuses its queries
                pending.plan = self.engine.plan(
                    queries, gate=self._gate_shard
                )
            pending.breaker = self.breaker.state
            pending.route = (
                ROUTE_POOL
                if self.engine.routes_to_pool(
                    pending.plan, breaker_open=pending.breaker == OPEN
                )
                else ROUTE_INPROCESS
            )
            self._check_deadline("the request", pending.deadline_at)
        except _REFUSALS as error:
            self._refuse(pending, error)
        except BaseException:
            self._release(pending)
            raise
        finally:
            unbind_request_id(token)
        return pending

    def finish(self, pending: PendingRequest) -> ServiceResponse:
        """Second half of a request: execute the plan on its route,
        merge, release the slot, respond.  A request :meth:`begin`
        already answered is returned as it is."""
        if pending.response is not None:
            return pending.response
        token = bind_request_id(pending.request_id)
        try:
            with obs_trace.within(pending.root):
                results, degraded = self._execute(pending)
        except _REFUSALS as error:
            return self._refuse(pending, error)
        except BaseException:
            self._release(pending)
            raise
        finally:
            unbind_request_id(token)
        route = pending.route
        mode = _mode(route, degraded)
        self.stats.bump("completed")
        self.stats.bump("routed_" + route)
        if degraded:
            # in-process is a normal answer for a request routed there;
            # degraded means a pool-routed shard fell back in process,
            # or an in-process engine had to be reopened
            self.stats.bump("served_degraded_batch")
        elif route == ROUTE_POOL:
            self.stats.bump("served_sharded")
        trace = None
        if pending.root is not None:
            pending.root.set("mode", mode)
            pending.root.set("route", route)
            trace = pending.root.finish().to_dict()
        return self._settle(pending, results=results, mode=mode, trace=trace)

    def _refuse(
        self, pending: PendingRequest, error: Exception
    ) -> ServiceResponse:
        """Count and answer a typed refusal."""
        client = pending.client
        if isinstance(error, Overloaded):
            self.stats.bump("overloaded")
            _log.info(
                "request.shed", client=client, retry_after=error.retry_after
            )
        elif isinstance(error, DeadlineExceeded):
            self.stats.bump("deadline_exceeded")
            _log.info("request.deadline_exceeded", client=client)
        elif isinstance(error, ShardQuarantined):
            self.stats.bump("quarantined")
        else:
            self.stats.bump("failed")
            _log.warning("request.failed", client=client, error=str(error))
        return self._settle(pending, error=error)

    def _settle(
        self,
        pending: PendingRequest,
        *,
        results: list | None = None,
        error: Exception | None = None,
        mode: str = "",
        trace: dict | None = None,
    ) -> ServiceResponse:
        self._release(pending)
        pending.response = ServiceResponse(
            ok=error is None,
            results=results,
            error=error,
            mode=mode,
            latency=self._clock() - pending.started,
            client=pending.client,
            trace=trace,
        )
        return pending.response

    def _release(self, pending: PendingRequest) -> None:
        """Give the request's admission slot back and time it."""
        if pending.slot is not None:
            pending.slot.release()
        self._latency.observe(time.perf_counter() - pending.wall_started)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, pending: PendingRequest) -> tuple[list, bool]:
        """Execute a routed plan and merge: ``(results, degraded)``."""
        plan, deadline_at = pending.plan, pending.deadline_at
        if pending.route == ROUTE_INPROCESS:
            task_results, degraded = self._execute_in_process(
                plan, deadline_at
            )
        else:
            task_results, degraded = self.engine.run_pooled(
                sorted(plan.tasks.items()),
                lambda path, specs: self._ask_pool(path, specs, deadline_at),
                lambda path, specs: self._run_local(path, specs, deadline_at),
                # a suspect pool gets probed one shard at a time: the
                # first success closes the breaker for the rest of the
                # request instead of every shard racing to fall back
                window=DISPATCH_WINDOW if pending.breaker == CLOSED else 1,
            )
        with obs_trace.trace_span("merge", tasks=len(task_results)):
            return self.engine.merge(plan, task_results), degraded

    def _execute_in_process(self, plan, deadline_at: float):
        """The whole request as one run of the engine's union, on this
        thread: no dispatch hop, no supervisor, no per-shard loop.

        The deadline is checked once the lock is held; the run itself
        is not interrupted (fewer than ``POOL_MIN_EXECUTIONS``
        executions unless the breaker is keeping a big plan off the
        pool).
        """
        with self._local_lock, self._quarantining():
            self._check_deadline("the request", deadline_at)
            return self._reopening_once(
                plan.tasks, lambda: self.engine.run_in_process(plan)
            )

    def _ask_pool(self, path: str, specs, deadline_at: float):
        """One pool-routed shard task through breaker, supervisor and
        decode, on a dispatch thread: its answers, or ``None`` when the
        pool could not answer (breaker refusing, attempts exhausted,
        answer bytes undecodable) and :meth:`_run_local` must."""
        self._check_deadline(f"shard {path}", deadline_at)
        if not self.breaker.allow():
            return None
        try:
            with self._quarantining():
                payload = self.supervisor.call(
                    path, specs, deadline_at=deadline_at
                )
        except DeadlineExceeded:
            self.breaker.record_failure()
            raise
        except WorkerPoolUnavailable:
            self.breaker.record_failure()
            return None
        # the worker answered: the pool is healthy even if its answer
        # bytes do not decode
        self.breaker.record_success()
        return self.engine.decode_answers(path, payload)

    def _run_local(self, path: str, specs, deadline_at: float) -> list:
        """A pool-routed shard task the pool did not answer, answered in
        process (:meth:`~repro.query.engine.ShardedQueryEngine.
        run_local`) on the request thread."""
        self._check_deadline(f"shard {path}", deadline_at)
        with self._local_lock, self._quarantining():
            answers, _ = self._reopening_once(
                (path,), lambda: self.engine.run_local(path, specs)
            )
        return answers

    def _check_deadline(self, what: str, deadline_at: float) -> None:
        if self._clock() >= deadline_at:
            raise DeadlineExceeded(
                f"deadline expired before {what} was executed"
            )

    @contextmanager
    def _quarantining(self):
        """Corruption on either rung quarantines the shard whose file
        raised, and the request is refused with :class:`ShardQuarantined`."""
        try:
            yield
        except CorruptArchiveError as error:
            self._quarantine(error.path, error)
            raise ShardQuarantined(error.path) from error

    def _reopening_once(self, paths, run) -> tuple[list, bool]:
        """``(run(), reopened)`` from the in-process engine; the caller
        holds ``_local_lock``.

        A wedged warm engine must not fail the request: the shards the
        request involves (``paths``) are dropped and ``run`` is called
        once more, on a union rebuilt over freshly reopened files (new
        handles, indexes and decode cache).  A second failure
        propagates.  A :class:`QueryEngineError` (a refused spec, a
        closed engine) propagates at once: no reopen would answer it.
        """
        try:
            return run(), False
        except (CorruptArchiveError, QueryEngineError):
            raise
        except Exception as error:
            for path in paths:
                self.engine.drop_local_engine(path)
            _log.warning(
                "shard.local_reopen", paths=sorted(paths), error=str(error)
            )
            return run(), True

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def quarantined_shards(self) -> list[str]:
        with self._quarantine_lock:
            return sorted(self._quarantined)

    def _quarantine(self, path: str, error: Exception) -> None:
        with self._quarantine_lock:
            fresh = path not in self._quarantined
            self._quarantined[path] = self._clock()
        if fresh:
            self.stats.bump("quarantines")
            _log.error("shard.quarantined", path=path, error=str(error))
            # the in-process engine holds the bad file open; drop it so
            # re-admission starts from a clean reopen
            with self._local_lock:
                self.engine.drop_local_engine(path)

    def _gate_shard(self, path: str) -> None:
        """Refuse quarantined shards; re-probe once the window passed."""
        with self._quarantine_lock:
            quarantined_at = self._quarantined.get(path)
            if quarantined_at is None:
                return
            if (
                self._clock() - quarantined_at
                < self.config.quarantine_reprobe
            ):
                raise ShardQuarantined(path)
            # claim the probe: concurrent requests keep being refused
            # for another window instead of all probing at once
            self._quarantined[path] = self._clock()
        self.stats.bump("requarantine_probes")
        _log.info("shard.reprobe", path=path)
        if self._probe_shard(path):
            with self._quarantine_lock:
                self._quarantined.pop(path, None)
            self.stats.bump("shards_readmitted")
            _log.info("shard.readmitted", path=path)
            with self._local_lock:
                self.engine.drop_local_engine(path)
            return
        raise ShardQuarantined(path)

    @staticmethod
    def _probe_shard(path: str) -> bool:
        """Cheap integrity check: every record matches its directory CRC.

        No decoding — just header parse plus one CRC pass, so a probe
        on a hot serving thread stays bounded.
        """
        try:
            with open(path, "rb") as stream:
                header = read_header(stream)
                for entry in header.directory:
                    stream.seek(entry.offset)
                    record = stream.read(entry.length)
                    if len(record) != entry.length:
                        return False
                    if record_crc(entry.trajectory_id, record) != entry.crc32:
                        return False
        except Exception:
            return False
        return True

    # ------------------------------------------------------------------
    # health + telemetry surface
    # ------------------------------------------------------------------
    def telemetry(self) -> dict:
        """Everything an operator dashboard needs, in one dict.

        Per-instance views (this service's stats, its supervisor and
        admission tallies, breaker state, quarantine list) plus the
        full process-wide metrics snapshot (``metrics`` key — the same
        data ``repro obs dump`` and ``--metrics-out`` export).
        """
        data = {
            "service": self.stats.snapshot(),
            "admission": {
                **self.admission.stats.snapshot(),
                "clients_seen": len(self.admission.stats.clients_seen),
                "in_flight": self.admission.in_flight,
            },
            "breaker": {
                "state": self.breaker.state,
                "opens": self.breaker.opens,
            },
            "quarantined_shards": self.quarantined_shards(),
            "request_latency_p50": self._latency.quantile(0.5),
            "request_latency_p99": self._latency.quantile(0.99),
            "metrics": obs_metrics.get_registry().snapshot(),
        }
        if self.supervisor is not None:
            data["supervisor"] = self.supervisor.stats.snapshot()
        return data

    def check_health(self) -> bool:
        """Probe the pool once (respawns a broken one); True = healthy."""
        if self.supervisor is None:
            return not self._closed
        return self.supervisor.check_health()
