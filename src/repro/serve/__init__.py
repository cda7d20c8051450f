"""The always-on serving tier: supervision, shedding, chaos testing.

``repro.serve`` turns the batch/sharded query engines of
:mod:`repro.query` into a fault-tolerant service:
:class:`QueryService` is the front door; :class:`WorkerSupervisor`,
:class:`AdmissionController` and :class:`CircuitBreaker` are its
moving parts; :class:`WireServer`/:class:`WireClient` put it on a TCP
socket behind a framed, CRC-checked protocol; and
:mod:`repro.serve.chaos` is the harness that proves all of it by
breaking workers, shard files, and now the network on purpose.
"""

from .admission import AdmissionController, TokenBucket
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .chaos import (
    ChaosProxy,
    ChaosTCPProxy,
    corrupt_fault,
    corrupt_shard,
    delay_fault,
    disconnect_fault,
    kill_fault,
    refuse_fault,
    restore_shard,
    stall_fault,
    truncate_fault,
)
from .client import WireClient, WireResult
from .errors import (
    DeadlineExceeded,
    Overloaded,
    ServeError,
    ServiceClosedError,
    ShardQuarantined,
    WorkerPoolUnavailable,
)
from .service import (
    MODE_BATCH,
    MODE_SHARDED,
    PendingRequest,
    QueryService,
    ServiceConfig,
    ServiceResponse,
    ServiceStats,
)
from .supervisor import (
    BackoffSchedule,
    RetryPolicy,
    SupervisorStats,
    WorkerSupervisor,
)
from .wire import (
    WireClosedError,
    WireError,
    WireProtocolError,
    WireServer,
    WireServerConfig,
    WireServerError,
    WireServerThread,
)

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ChaosProxy",
    "ChaosTCPProxy",
    "corrupt_shard",
    "restore_shard",
    "kill_fault",
    "delay_fault",
    "refuse_fault",
    "disconnect_fault",
    "truncate_fault",
    "corrupt_fault",
    "stall_fault",
    "DeadlineExceeded",
    "Overloaded",
    "ServeError",
    "ServiceClosedError",
    "ShardQuarantined",
    "WorkerPoolUnavailable",
    "PendingRequest",
    "QueryService",
    "ServiceConfig",
    "ServiceResponse",
    "ServiceStats",
    "MODE_SHARDED",
    "MODE_BATCH",
    "BackoffSchedule",
    "RetryPolicy",
    "SupervisorStats",
    "WorkerSupervisor",
    "WireClient",
    "WireResult",
    "WireClosedError",
    "WireError",
    "WireProtocolError",
    "WireServer",
    "WireServerConfig",
    "WireServerError",
    "WireServerThread",
]
