"""Admission control: shed load at the door instead of queueing it.

Two independent gates, both O(1) per request:

* a **bounded in-flight window** — at most ``max_in_flight`` requests
  may be executing at once.  Request N+1 is rejected immediately with
  :class:`~repro.serve.errors.Overloaded`; an unbounded queue would
  just convert an overload spike into unbounded latency for everyone.
* a **per-client token bucket** — each client id accrues
  ``rate_per_second`` tokens up to a ``burst`` cap; a request costs one
  token.  A single hot client exhausts its own bucket and is shed
  without touching anyone else's capacity.

The clock is injectable so the tests drive time by hand.
"""

from __future__ import annotations

import threading
import time

from ..obs import metrics as obs_metrics
from .errors import Overloaded

#: Client ids one controller remembers (token buckets and the
#: ``clients_seen`` set alike): ids arrive over the wire, so a flood of
#: distinct ones must not grow either table forever.
MAX_TRACKED_CLIENTS = 4096


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/sec up to ``burst``."""

    def __init__(
        self,
        *,
        rate_per_second: float,
        burst: float,
        clock=time.monotonic,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError(
                f"rate_per_second must be > 0, got {rate_per_second}"
            )
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate_per_second)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()

    def try_take(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; never blocks."""
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._updated) * self.rate
        )
        self._updated = now
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def seconds_until(self, amount: float = 1.0) -> float:
        """How long until ``amount`` tokens will have accrued."""
        deficit = amount - self._tokens
        return max(0.0, deficit / self.rate)


class AdmissionStats(obs_metrics.CounterTally):
    """This controller's admission outcomes: a view over the registry.

    Each outcome is written once, to its ``repro_admission_*`` counter;
    ``get`` / ``snapshot`` are those counters minus their values when
    the controller was built.  ``clients_seen`` holds at most
    :data:`MAX_TRACKED_CLIENTS` ids — its size saturates there.
    """

    def __init__(self) -> None:
        shed = "repro_admission_shed_total"
        super().__init__({
            "admitted": obs_metrics.counter("repro_admission_admitted_total"),
            "shed_in_flight": obs_metrics.counter(
                shed, labels={"reason": "in_flight"}
            ),
            "shed_rate_limited": obs_metrics.counter(
                shed, labels={"reason": "rate_limited"}
            ),
        })
        self.clients_seen: set[str] = set()


class AdmissionController:
    """The service's front door; thread-safe.

    Use as::

        with controller.admit(client):
            ... execute the request ...

    ``admit`` raises :class:`Overloaded` synchronously when the request
    must be shed; otherwise the context manager holds one in-flight
    slot for the duration of the request.
    """

    def __init__(
        self,
        *,
        max_in_flight: int,
        rate_per_second: float | None = None,
        burst: float | None = None,
        clock=time.monotonic,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.max_in_flight = max_in_flight
        self.rate_per_second = rate_per_second
        self.burst = burst if burst is not None else (
            rate_per_second if rate_per_second is not None else None
        )
        self._clock = clock
        self._lock = threading.Lock()
        self._in_flight = 0
        self._buckets: dict[str, TokenBucket] = {}
        self.stats = AdmissionStats()
        self._metric_in_flight = obs_metrics.gauge(
            "repro_admission_in_flight"
        )

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _bucket(self, client: str) -> TokenBucket | None:
        if self.rate_per_second is None:
            return None
        bucket = self._buckets.get(client)
        if bucket is None:
            # cap the table so a client-id flood cannot grow it forever;
            # evicting an active client merely refills its bucket once
            if len(self._buckets) >= MAX_TRACKED_CLIENTS:
                self._buckets.pop(next(iter(self._buckets)))
            bucket = TokenBucket(
                rate_per_second=self.rate_per_second,
                burst=self.burst,
                clock=self._clock,
            )
            self._buckets[client] = bucket
        return bucket

    def admit(self, client: str = "default") -> "_AdmissionSlot":
        with self._lock:
            seen = self.stats.clients_seen
            if len(seen) < MAX_TRACKED_CLIENTS:
                seen.add(client)
            bucket = self._bucket(client)
            if bucket is not None and not bucket.try_take():
                self.stats.bump("shed_rate_limited")
                raise Overloaded(
                    f"client {client!r} is over its rate limit "
                    f"({self.rate_per_second:g}/s, burst {self.burst:g})",
                    retry_after=bucket.seconds_until(),
                )
            if self._in_flight >= self.max_in_flight:
                self.stats.bump("shed_in_flight")
                raise Overloaded(
                    f"service is at its in-flight limit "
                    f"({self.max_in_flight} requests)"
                )
            self._in_flight += 1
            self.stats.bump("admitted")
            self._metric_in_flight.set(self._in_flight)
        return _AdmissionSlot(self)

    def _release(self) -> None:
        with self._lock:
            self._in_flight -= 1
            self._metric_in_flight.set(self._in_flight)


class _AdmissionSlot:
    """Context manager holding one in-flight slot."""

    def __init__(self, controller: AdmissionController) -> None:
        self._controller = controller
        self._released = False

    def __enter__(self) -> "_AdmissionSlot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release()
