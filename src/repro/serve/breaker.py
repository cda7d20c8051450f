"""A circuit breaker over the shard worker pool.

Standard three-state machine, clock-injectable for tests:

* **closed** — requests use the pool; consecutive failures are
  counted and ``failure_threshold`` of them open the breaker.
* **open** — the pool is presumed sick; requests are answered in
  process (no pool attempt, no added latency) until ``reset_timeout``
  has passed.
* **half-open** — one trial request is let through; success closes
  the breaker, failure re-opens it and restarts the timer.

The breaker never fails a request by itself: an open breaker only
changes *where* the request is executed.
"""

from __future__ import annotations

import threading
import time

from ..obs import metrics as obs_metrics
from ..obs.log import get_logger

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_log = get_logger("repro.serve.breaker")


def _note_transition(to_state: str) -> None:
    obs_metrics.counter(
        "repro_breaker_transitions_total",
        labels={"to": to_state},
        help="Circuit-breaker state transitions",
    ).inc()


class CircuitBreaker:
    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 2.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValueError(
                f"reset_timeout must be > 0, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_out = False
        self.opens = 0  # lifetime count, for stats

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = HALF_OPEN
            self._probe_out = False
            _note_transition(HALF_OPEN)
            _log.info("breaker.half_open")
        return self._state

    def allow(self) -> bool:
        """May this request try the pool?

        In half-open state exactly one caller gets True (the probe);
        the rest stay on the fallback until the probe reports back.
        """
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probe_out:
                self._probe_out = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            reclosed = self._state != CLOSED
            self._failures = 0
            self._probe_out = False
            self._state = CLOSED
        if reclosed:
            _note_transition(CLOSED)
            _log.info("breaker.closed")

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state == HALF_OPEN:
                self._trip_locked()
                return
            self._failures += 1
            if state == CLOSED and self._failures >= self.failure_threshold:
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = OPEN
        self._failures = 0
        self._probe_out = False
        self._opened_at = self._clock()
        self.opens += 1
        _note_transition(OPEN)
        _log.warning(
            "breaker.opened",
            opens=self.opens,
            reset_timeout=self.reset_timeout,
        )
