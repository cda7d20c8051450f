"""Query layer: StIU index, probabilistic queries, oracle, and metrics."""

from .brute import BruteForceOracle
from .engine import (
    BatchPlan,
    BatchQueryEngine,
    EngineClosedError,
    QueryEngineError,
    RangeQuery,
    ShardedQueryEngine,
    ShardWorkerPool,
    WhenQuery,
    WhereQuery,
    WorkerPoolBroken,
    query_from_dict,
)
from .metrics import (
    AccuracyReport,
    f1_score,
    range_accuracy,
    when_accuracy,
    where_accuracy,
)
from .queries import (
    QueryCounters,
    UnknownEdgeError,
    UTCQQueryProcessor,
    WhenResult,
    WhereResult,
)
from .sidecar import (
    SidecarFormatError,
    load_index,
    save_index,
    sidecar_path_for,
)
from .stiu import (
    INFINITE_VERTEX,
    StIUIndex,
)

__all__ = [
    "BruteForceOracle",
    "BatchPlan",
    "BatchQueryEngine",
    "EngineClosedError",
    "QueryEngineError",
    "RangeQuery",
    "ShardedQueryEngine",
    "ShardWorkerPool",
    "UnknownEdgeError",
    "WorkerPoolBroken",
    "WhenQuery",
    "WhereQuery",
    "query_from_dict",
    "AccuracyReport",
    "f1_score",
    "range_accuracy",
    "when_accuracy",
    "where_accuracy",
    "QueryCounters",
    "UTCQQueryProcessor",
    "WhenResult",
    "WhereResult",
    "SidecarFormatError",
    "load_index",
    "save_index",
    "sidecar_path_for",
    "INFINITE_VERTEX",
    "StIUIndex",
]
