"""Typed failure modes of the always-on query service.

Every way a request can fail without an answer has its own exception
class, so callers (and the chaos harness's availability accounting)
can tell *why* a request was not served: shed at the door
(:class:`Overloaded`), out of time (:class:`DeadlineExceeded`), or
routed at data the service has fenced off (:class:`ShardQuarantined`).
A request that raises none of these either returned a correct result
or hit a genuine bug — there is no "mystery failure" bucket.
"""

from __future__ import annotations


class ServeError(Exception):
    """Base class for every service-level failure."""


class ServiceClosedError(ServeError):
    """The service was asked for work after :meth:`QueryService.close`."""


class Overloaded(ServeError):
    """Admission control shed this request instead of queueing it.

    Raised when the bounded in-flight window is full or the client's
    token bucket is empty.  The service is healthy — the caller should
    back off and retry; nothing was executed.
    """

    def __init__(self, reason: str, *, retry_after: float = 0.0) -> None:
        super().__init__(reason)
        self.retry_after = retry_after


class DeadlineExceeded(ServeError):
    """The request's deadline expired before any attempt produced a
    result — retries, the hedge, and the in-process fallback included."""


class WorkerPoolUnavailable(ServeError):
    """The supervised pool burned its whole retry/hedge budget for one
    call without producing an answer.

    Not a terminal request failure: the service catches this and
    answers the shard task in process while the deadline allows.
    """


class ShardQuarantined(ServeError):
    """The request needs a shard the service has quarantined as corrupt.

    The shard is periodically re-probed and re-admitted once its
    records verify again; until then requests that cannot be answered
    without it (where/when on its trajectories, every range query) are
    refused rather than answered wrongly or partially.
    """

    def __init__(self, path: str) -> None:
        super().__init__(f"shard is quarantined as corrupt: {path}")
        self.path = path
