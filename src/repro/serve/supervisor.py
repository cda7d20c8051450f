"""Worker supervision: respawn, deadlines, retries, and one hedge.

:class:`WorkerSupervisor` wraps a
:class:`~repro.query.engine.ShardWorkerPool`-compatible transport (the
real pool, or the chaos proxy in tests) and turns its raw failure modes
into a bounded per-call contract:

* a **dead worker** (``BrokenProcessPool``) costs one respawn — the
  pool is rebuilt with warm ``.stiu`` sidecar reloads and the shard
  sub-query is resubmitted with exponential backoff;
* a **wedged/slow worker** costs one attempt timeout, after which the
  call is retried; while the first attempt is still silent, **one
  cross-worker hedge** is launched so a single slow worker is raced by
  a healthy one instead of serializing the request behind it;
* the whole loop is **deadline-bounded**: no call outlives
  ``deadline_at``, full stop.

Failures the pool *reports deterministically* — corrupt shard data,
malformed specs — are never retried: they would fail identically again,
so they propagate to the caller (the service quarantines or rejects).

Respawns are generation-gated: when several in-flight calls observe the
same broken pool generation, only the first actually restarts it.

:meth:`WorkerSupervisor.call` runs on a dispatch thread of
:meth:`~repro.query.engine.ShardedQueryEngine.run_pooled`, under the
task's ``shard:*`` span when a trace is open; it always submits with
``traced=`` and grafts a traced worker's span under ``pool.call``.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from .errors import DeadlineExceeded, WorkerPoolUnavailable

_log = get_logger("repro.serve.supervisor")

#: seconds a health-check ping may take
PING_TIMEOUT = 5.0
#: consecutive silent pings before a (possibly just busy) pool is respawned
PING_FAILURES_BEFORE_RESPAWN = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Timeouts and budgets for one supervised call."""

    attempt_timeout: float = 0.25  # seconds the first attempt may take
    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 0.5
    hedge_delay: float = 0.1  # silence before the hedge launches
    jitter: bool = True  # decorrelate retry pauses across callers

    def attempt_budget(self, attempt: int) -> float:
        """Each later attempt gets twice the rope of the one before."""
        return self.attempt_timeout * 2.0**attempt

    def backoff(self, attempt: int) -> float:
        """The deterministic exponential pause (no jitter)."""
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_multiplier**attempt,
        )

    def schedule(self, rng=None) -> "BackoffSchedule":
        """A fresh per-call pause sequence (see :class:`BackoffSchedule`)."""
        return BackoffSchedule(self, rng=rng)


class BackoffSchedule:
    """Capped *decorrelated-jitter* backoff for one retry loop.

    The deterministic exponential pause has a failure mode the chaos
    bench can produce at will: every in-flight call that observed the
    same pool death retries after exactly the same pause, so the
    respawned pool is hit by a synchronized thundering herd that can
    knock it straight over again.  Decorrelated jitter (the AWS
    architecture-blog variant) breaks the lockstep::

        pause_n = min(cap, uniform(base, previous_pause * 3))

    Each caller's sequence wanders independently, the *expected* pause
    still grows geometrically, and the cap bounds the tail.  The RNG is
    injected (the wire client and the tests seed theirs) so a pause
    sequence can be reproduced; with no RNG — or ``jitter=False`` on the
    policy — the schedule degrades to the deterministic exponential,
    which is what hand-built test policies with zeroed backoff rely on.
    """

    def __init__(self, policy: RetryPolicy, *, rng=None) -> None:
        self._policy = policy
        self._rng = rng if policy.jitter else None
        self._previous = policy.backoff_base

    def next_pause(self, attempt: int) -> float:
        policy = self._policy
        if self._rng is None:
            return policy.backoff(attempt)
        low = policy.backoff_base
        high = max(low, self._previous * 3.0)
        pause = min(policy.backoff_cap, self._rng.uniform(low, high))
        # floor the carried state at base so a near-zero draw cannot
        # collapse the whole remaining sequence to ~0 pauses
        self._previous = max(pause, low)
        return pause


class SupervisorStats(obs_metrics.CounterTally):
    """This supervisor's events: a view over the process registry.

    ``bump`` writes the shared ``repro_supervisor_<event>_total``
    counter (what a scrape or ``--metrics-out`` exports) and nothing
    else; :meth:`snapshot` is those counters minus their values when
    this supervisor was built, so supervisors built one after another
    each start at 0.  Two alive at once would share the tally.
    """

    FIELDS = (
        "calls",
        "respawns",
        "worker_deaths",
        "attempt_timeouts",
        "retries",
        "hedges_launched",
        "hedges_won",
        "pings_ok",
        "pings_failed",
    )

    def __init__(self) -> None:
        super().__init__({
            name: obs_metrics.counter(f"repro_supervisor_{name}_total")
            for name in self.FIELDS
        })


class WorkerSupervisor:
    """Health-checks and drives a shard worker pool under deadlines."""

    def __init__(
        self,
        pool,
        *,
        policy: RetryPolicy | None = None,
        clock=time.monotonic,
    ) -> None:
        self.pool = pool
        self.policy = policy or RetryPolicy()
        self._clock = clock
        # jitter RNG from OS entropy: decorrelation is the whole point
        self._rng = random.Random()
        self._respawn_lock = threading.Lock()
        self._consecutive_ping_failures = 0
        self._health_thread: threading.Thread | None = None
        self._health_stop = threading.Event()
        self.stats = SupervisorStats()

    # ------------------------------------------------------------------
    # respawn
    # ------------------------------------------------------------------
    def respawn(self, *, seen_generation: int | None = None) -> None:
        """Rebuild the pool; no-op if someone already did it for the
        generation the caller saw fail."""
        with self._respawn_lock:
            if (
                seen_generation is not None
                and self.pool.generation != seen_generation
            ):
                return
            self.pool.restart()
            self.stats.bump("respawns")
            _log.warning(
                "supervisor.respawn",
                generation=self.pool.generation,
                seen_generation=seen_generation,
            )

    # ------------------------------------------------------------------
    # health checking
    # ------------------------------------------------------------------
    def check_health(self) -> bool:
        """One health probe; respawns a provably broken pool.

        A ping *timeout* alone is ambiguous (the pool may just be busy),
        so only :data:`PING_FAILURES_BEFORE_RESPAWN` consecutive
        failures — or a ``BrokenProcessPool`` — trigger a respawn.
        """
        generation = self.pool.generation
        try:
            self.pool.ping(timeout=PING_TIMEOUT)
        except BrokenProcessPool:
            self.stats.bump("pings_failed")
            self.stats.bump("worker_deaths")
            self._consecutive_ping_failures = 0
            self.respawn(seen_generation=generation)
            return False
        except Exception:
            self.stats.bump("pings_failed")
            self._consecutive_ping_failures += 1
            if (
                self._consecutive_ping_failures
                >= PING_FAILURES_BEFORE_RESPAWN
            ):
                self._consecutive_ping_failures = 0
                self.respawn(seen_generation=generation)
            return False
        self.stats.bump("pings_ok")
        self._consecutive_ping_failures = 0
        return True

    def start_health_loop(self, interval: float) -> None:
        """Probe the pool every ``interval`` seconds on a daemon thread."""
        if self._health_thread is not None:
            return
        self._health_stop.clear()

        def loop() -> None:
            while not self._health_stop.wait(interval):
                try:
                    self.check_health()
                except Exception:
                    # a dying pool mid-close must not kill the thread
                    if self._health_stop.is_set():
                        return

        self._health_thread = threading.Thread(
            target=loop, name="repro-serve-health", daemon=True
        )
        self._health_thread.start()

    def stop(self) -> None:
        self._health_stop.set()
        thread = self._health_thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._health_thread = None

    # ------------------------------------------------------------------
    # supervised calls
    # ------------------------------------------------------------------
    def call(self, path: str, specs, *, deadline_at: float) -> list:
        """One shard sub-query under the full supervision contract.

        Returns the shard's answers, or raises:

        * :class:`DeadlineExceeded` — the deadline expired first;
        * :class:`WorkerPoolUnavailable` — attempts exhausted with time
          left (caller should fall back);
        * any deterministic worker exception (corrupt shard, bad spec)
          — verbatim, immediately, never retried.
        """
        self.stats.bump("calls")
        with obs_trace.trace_span("pool.call", shard=path) as span:
            answer, attempts = self._call_loop(path, specs, deadline_at)
            span.set("attempts", attempts)
            return answer

    def _call_loop(self, path: str, specs, deadline_at: float):
        policy = self.policy
        backoff = policy.schedule(self._rng)
        attempt = 0
        while True:
            remaining = deadline_at - self._clock()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"deadline expired before shard {path} answered"
                )
            if attempt >= policy.max_attempts:
                raise WorkerPoolUnavailable(
                    f"{policy.max_attempts} attempts on shard {path} "
                    f"all died or timed out"
                )
            generation = self.pool.generation
            try:
                outcome = self._one_attempt(
                    path,
                    specs,
                    budget=min(remaining, policy.attempt_budget(attempt)),
                )
            except BrokenProcessPool:
                self.stats.bump("worker_deaths")
                _log.warning(
                    "supervisor.worker_death", shard=path, attempt=attempt
                )
                self.respawn(seen_generation=generation)
                outcome = None  # retry below
            if outcome is not None:
                return outcome.answer, attempt + 1
            attempt += 1
            self.stats.bump("retries")
            pause = min(
                backoff.next_pause(attempt - 1),
                max(0.0, deadline_at - self._clock()),
            )
            if pause > 0:
                time.sleep(pause)

    def _one_attempt(self, path, specs, *, budget: float):
        """Submit once (maybe hedged); returns an _Answer or None on
        timeout.  Raises BrokenProcessPool or a deterministic worker
        error."""
        policy = self.policy
        traced = obs_trace.is_tracing()

        def submit():
            future = self.pool.submit(path, specs, traced=traced)
            submitted_at[future] = time.perf_counter()
            return future

        submitted_at: dict = {}
        started = self._clock()
        outstanding = {submit()}
        hedge_future = None
        broken: BaseException | None = None
        while True:
            elapsed = self._clock() - started
            if elapsed >= budget:
                self.stats.bump("attempt_timeouts")
                # the stragglers are abandoned, NOT cancelled.  On this
                # interpreter (3.11) Future.cancel() against a process
                # pool is a trap: if a worker dies while a cancelled
                # future still sits in the executor's pending map, the
                # manager thread's terminate_broken() calls
                # set_exception() on it, InvalidStateError propagates,
                # and the manager dies *without* terminating its
                # workers — leaking live processes and hanging
                # interpreter exit on the executor's atexit join (fixed
                # upstream in 3.12).  A late result resolving into a
                # dropped reference costs nothing.
                return None
            may_hedge = hedge_future is None and self.pool.workers > 1
            if may_hedge and elapsed < policy.hedge_delay:
                # quiet so far: wait out the hedge delay first, then race
                # a second submission against the silent one
                timeout = min(budget, policy.hedge_delay) - elapsed
            else:
                timeout = budget - elapsed
            done, _pending = wait(
                outstanding, timeout=max(0.0, timeout),
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                outstanding.discard(future)
                try:
                    answer = future.result()
                except BrokenProcessPool as error:
                    broken = error
                    continue
                except Exception:
                    # hedge losers are abandoned, not cancelled — see
                    # the attempt-timeout comment above
                    raise
                if future is hedge_future:
                    self.stats.bump("hedges_won")
                if (
                    traced
                    and isinstance(answer, dict)
                    and "span" in answer
                ):
                    obs_trace.attach_child(
                        answer["span"],
                        roundtrip_seconds=(
                            time.perf_counter() - submitted_at[future]
                        ),
                    )
                    answer = answer["answers"]
                return _Answer(answer)
            if not outstanding:
                # every submission died with the pool
                raise broken if broken is not None else BrokenProcessPool(
                    "all submissions vanished"
                )
            if not done and may_hedge:
                elapsed = self._clock() - started
                if policy.hedge_delay <= elapsed < budget:
                    hedge_future = submit()
                    outstanding.add(hedge_future)
                    self.stats.bump("hedges_launched")
                    _log.info("supervisor.hedge_launched", shard=path)


class _Answer:
    """Wrapper distinguishing 'no answer yet' from 'answered None'."""

    __slots__ = ("answer",)

    def __init__(self, answer) -> None:
        self.answer = answer
