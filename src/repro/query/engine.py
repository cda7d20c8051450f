"""Batch and shard-parallel execution of where/when/range queries.

Serving millions of users means queries arrive in bulk, not one at a
time.  This module adds two layers over
:class:`~repro.query.queries.UTCQQueryProcessor`:

* :class:`BatchQueryEngine` — accepts many queries at once against one
  archive.  Identical queries are answered once, and execution is
  reordered (results are still returned in submission order) so queries
  touching the same trajectory or time interval run back-to-back:
  their SIAR time decodes, reference/factor decodes, chainage tables,
  and Lemma-4 index probes all hit the shared
  :class:`~repro.core.decoder.DecodeSpanCache` instead of being
  repeated per query.
* :class:`ShardedQueryEngine` — fans a batch out across several archive
  files ("shards") with a persistent process pool.  where/when queries
  are routed to the single shard holding their trajectory (via the
  archives' directory headers — no record is touched); range queries
  broadcast to every shard and the id lists are unioned.  Workers keep
  their shard's archive, sidecar-loaded StIU index, and decode cache
  alive between batches, so steady-state throughput scales with cores.
  A batch too small to repay the pool's fixed cost (fewer than
  :data:`POOL_MIN_EXECUTIONS` shard executions) is answered on the
  calling thread by one :class:`BatchQueryEngine` over the union of the
  open shards, so a range query runs once, not once per shard.  A
  bigger one runs its shard tasks through
  :meth:`ShardedQueryEngine.run_pooled`, the one dispatcher (the
  serving tier's supervised calls go through it too); a task the pool
  cannot answer falls back in process on the calling thread.

Every result is exactly what a lone
:class:`~repro.query.queries.UTCQQueryProcessor` (and therefore the
brute-force oracle, up to PDDP error) would produce; the engine only
changes *how often* shared work is done.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Sequence, Union

from ..core.decoder import DecodeSpanCache, configured_budget_bytes
from ..io.reader import FileBackedArchive, UnionArchive
from ..network.grid import Rect
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from ..trajectories.model import EdgeKey
from .queries import (
    QueryEngineError,
    UTCQQueryProcessor,
    WhenResult,
    WhereResult,
)
from .stiu import StIUIndex
from .transport import TransportError, decode_answers_blob, encode_answers

#: shard sub-batches one request keeps in flight at once
DISPATCH_WINDOW = 8

#: the rung that answered a pool-routed task or request: the worker
#: pool, or the in-process engine it fell back to
MODE_SHARDED = "sharded"
MODE_BATCH = "batch"

#: A plan with fewer shard executions than this is answered on the
#: calling thread; only a bigger one is worth splitting across the
#: worker pool.  Fixed from the crossover sweep in
#: ``benchmarks/pool_crossover.py`` (4 shards, 2 workers) when the
#: in-process route still ran every range spec once per shard and one
#: caller's crossover lay between ~130 and ~270 executions.  Since the
#: in-process route is one union run that crossover lies at ~400-500;
#: four concurrent callers cross at ~130-210.  Kept at 192 (see
#: docs/architecture.md, "Resilient serving"); re-derive it there on
#: another host.
POOL_MIN_EXECUTIONS = 192

#: seconds the workers forked at pool construction get to answer a ping
POOL_START_TIMEOUT = 30.0

_log = get_logger("repro.query.engine")


class EngineClosedError(QueryEngineError):
    """A closed engine was asked to run queries.

    Parity with :class:`~repro.io.reader.ArchiveClosedError`: use after
    close is a caller bug and gets a typed error, not whatever the
    half-torn-down pool happens to raise.
    """


class WorkerPoolBroken(QueryEngineError):
    """The shard worker pool lost a process mid-batch.

    The engine itself stays usable: call :meth:`ShardedQueryEngine.
    restart_pool` (or let :class:`repro.serve.WorkerSupervisor` do it)
    and re-run the batch.  Raised instead of the raw
    ``BrokenProcessPool`` so callers can distinguish "a worker died"
    from "the batch was malformed"."""


# ----------------------------------------------------------------------
# query specs
# ----------------------------------------------------------------------
def _not_finite(spec, name: str) -> ValueError:
    """The refusal of a NaN or an infinity where a spec is made:
    nothing downstream can answer one, and the grid turns it into an
    error that looks like a broken engine."""
    return ValueError(
        f"{type(spec).__name__}.{name} must be finite, "
        f"got {getattr(spec, name)!r}"
    )


@dataclass(frozen=True)
class WhereQuery:
    """Definition 10: where was trajectory ``trajectory_id`` at ``t``?"""

    trajectory_id: int
    t: int
    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise _not_finite(self, "alpha")


@dataclass(frozen=True)
class WhenQuery:
    """Definition 11: when did the trajectory pass ``<edge, rd>``?"""

    trajectory_id: int
    edge: EdgeKey
    relative_distance: float
    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.relative_distance):
            raise _not_finite(self, "relative_distance")
        if not 0.0 <= self.relative_distance <= 1.0:
            # past an end of the edge the point lies on another edge,
            # and the answer would be a time spent there
            raise ValueError(
                f"WhenQuery.relative_distance must be in [0, 1], "
                f"got {self.relative_distance!r}"
            )
        if not math.isfinite(self.alpha):
            raise _not_finite(self, "alpha")


@dataclass(frozen=True)
class RangeQuery:
    """Definition 12: which trajectories overlap ``rect`` at ``t``?
    (:class:`~repro.network.grid.Rect` refuses non-finite corners.)"""

    rect: Rect
    t: int
    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise _not_finite(self, "alpha")


Query = Union[WhereQuery, WhenQuery, RangeQuery]


def query_from_dict(document: dict) -> Query:
    """Parse one JSON query object (the ``repro query batch`` format)."""
    try:
        kind = document.get("kind")
        if kind == "where":
            return WhereQuery(
                int(document["trajectory"]),
                int(document["time"]),
                float(document.get("alpha", 0.0)),
            )
        if kind == "when":
            edge = document["edge"]
            if len(edge) != 2:
                raise QueryEngineError(
                    f"'edge' must be [start, end], got {edge!r}"
                )
            return WhenQuery(
                int(document["trajectory"]),
                (int(edge[0]), int(edge[1])),
                float(document.get("rd", 0.5)),
                float(document.get("alpha", 0.0)),
            )
        if kind == "range":
            rect = document["rect"]
            if len(rect) != 4:
                raise QueryEngineError(
                    f"'rect' must be [minx, miny, maxx, maxy], got {rect!r}"
                )
            return RangeQuery(
                Rect(*(float(value) for value in rect)),
                int(document["time"]),
                float(document.get("alpha", 0.0)),
            )
    except QueryEngineError:
        raise
    except KeyError as error:
        raise QueryEngineError(
            f"query object missing field {error.args[0]!r}: {document!r}"
        ) from None
    except (TypeError, ValueError, AttributeError) as error:
        raise QueryEngineError(
            f"malformed query object {document!r}: {error}"
        ) from None
    raise QueryEngineError(
        f"unknown query kind {kind!r} (expected where/when/range)"
    )


def result_to_jsonable(query: Query, result) -> object:
    """Render one result the way the single-query CLI paths do."""
    if isinstance(query, WhereQuery):
        return [
            {
                "instance": r.instance_index,
                "edge": list(r.edge),
                "ndist": r.ndist,
                "probability": r.probability,
            }
            for r in result
        ]
    if isinstance(query, WhenQuery):
        return [
            {
                "instance": r.instance_index,
                "time": r.time,
                "probability": r.probability,
            }
            for r in result
        ]
    return list(result)


# ----------------------------------------------------------------------
# single-archive batch engine
# ----------------------------------------------------------------------
class BatchQueryEngine:
    """Run many queries against one archive, sharing decoded spans."""

    def __init__(
        self,
        network,
        archive,
        index: StIUIndex,
        *,
        cache: DecodeSpanCache | None = None,
    ) -> None:
        self.processor = UTCQQueryProcessor(
            network, archive, index, cache=cache
        )

    @property
    def counters(self):
        return self.processor.counters

    def run(self, queries: Sequence[Query]) -> list:
        """Answer every query; results align with the submission order.

        A where/when query naming a trajectory the archive does not hold
        returns ``[]`` (serving semantics — one bad id must not poison a
        batch).  A when query on a held trajectory naming an edge the
        network does not hold refuses the batch with
        :class:`~repro.query.queries.UnknownEdgeError` (raised by
        ``UTCQQueryProcessor.when``).  Any other ``KeyError`` — an index
        listing an id the archive cannot resolve — is a defect and
        propagates.
        """
        slots: dict[Query, list[int]] = {}
        for position, query in enumerate(queries):
            if not isinstance(query, (WhereQuery, WhenQuery, RangeQuery)):
                raise QueryEngineError(
                    f"not a query spec: {query!r} (position {position})"
                )
            slots.setdefault(query, []).append(position)
        results: list = [None] * len(queries)
        for query in sorted(slots, key=self._execution_key):
            answer = self._execute(query)
            for position in slots[query]:
                results[position] = answer
        obs_metrics.counter(
            "repro_engine_queries_total", labels={"engine": "batch"}
        ).inc(len(queries))
        return results

    @staticmethod
    def _execution_key(query: Query) -> tuple:
        # trajectory-directed queries grouped per trajectory; range
        # queries grouped by query time so interval candidate sets and
        # Lemma-4 cell masses stay hot in the processor's memos
        if isinstance(query, WhereQuery):
            return (0, query.trajectory_id, query.t)
        if isinstance(query, WhenQuery):
            return (1, query.trajectory_id, query.edge, query.relative_distance)
        return (2, query.t, query.rect.min_x, query.rect.min_y)

    def _execute(self, query: Query):
        processor = self.processor
        if isinstance(query, RangeQuery):
            return processor.range(query.rect, query.t, query.alpha)
        try:
            if isinstance(query, WhereQuery):
                return processor.where(
                    query.trajectory_id, query.t, query.alpha
                )
            return processor.when(
                query.trajectory_id,
                query.edge,
                query.relative_distance,
                query.alpha,
            )
        except KeyError:
            try:
                processor.record(query.trajectory_id)
            except KeyError:
                return []  # the archive does not hold this id
            raise


# ----------------------------------------------------------------------
# shard-parallel engine
# ----------------------------------------------------------------------
def build_network_from_provenance(provenance: dict[str, str]):
    from ..network.generators import dataset_network
    from ..trajectories.datasets import profile as dataset_profile

    profile_name = provenance.get("profile")
    seed = provenance.get("dataset_seed")
    scale = provenance.get("network_scale")
    if profile_name is None or seed is None:
        raise QueryEngineError(
            "shard carries no dataset provenance; pass an explicit "
            "network to ShardedQueryEngine"
        )
    if scale is None:
        scale = dataset_profile(profile_name).network_scale
    return dataset_network(profile_name, scale=int(scale), seed=int(seed))


def _network_of_shard(path):
    """The network a shard's own provenance describes."""
    with FileBackedArchive.open(path) as probe:
        return build_network_from_provenance(probe.provenance)


def _open_shard_engine(path, network) -> BatchQueryEngine:
    if network is None:
        raise QueryEngineError("network must be resolved before opening")
    index = StIUIndex.over_file(network, path)
    return BatchQueryEngine(network, index.archive, index)


# worker-global state, installed by the pool initializer: shard engines
# (archive + sidecar index + decode cache) persist across batches
_worker_config: dict | None = None
_worker_engines: dict[str, BatchQueryEngine] = {}


def _init_query_worker(config: dict) -> None:
    global _worker_config
    _worker_config = config
    _worker_engines.clear()


def _shard_engine_for(path: str) -> BatchQueryEngine:
    assert _worker_config is not None
    engine = _worker_engines.get(path)
    if engine is None:
        network = _worker_config["network"]
        if network is None:
            network = _network_of_shard(path)
        engine = _open_shard_engine(path, network)
        _worker_engines[path] = engine
    return engine


def _run_shard_batch(task: tuple):
    """One shard sub-batch; the answers leave the worker as codec bytes
    (:func:`repro.query.transport.encode_answers`).

    A traced task (the tuple's third field) returns ``{"answers":
    <bytes>, "span": {...}}`` instead: the worker opens its own trace
    root (spans cannot cross a process boundary live) and piggybacks
    the finished tree on the result; the parent grafts it under the
    request's tree and derives the IPC overhead from its own observed
    round-trip time.
    """
    path, queries, traced = task
    if not traced:
        return encode_answers(_shard_engine_for(path).run(queries))
    with obs_trace.worker_trace(
        "worker", shard=os.path.basename(path)
    ) as span:
        with obs_trace.trace_span("worker.open"):
            engine = _shard_engine_for(path)
        with obs_trace.trace_span("worker.run", queries=len(queries)):
            answers = engine.run(queries)
        with obs_trace.trace_span("worker.encode"):
            payload = encode_answers(answers)
    return {"answers": payload, "span": span.to_dict()}


def _ping_worker(payload: object) -> tuple[int, object]:
    """Health-check task: proves a worker can pull work and answer."""
    return os.getpid(), payload


class ShardWorkerPool:
    """A restartable process pool of warm shard workers.

    Wraps :class:`concurrent.futures.ProcessPoolExecutor` (whose broken
    state is *observable* — a dead worker raises ``BrokenProcessPool``
    instead of wedging the batch the way ``multiprocessing.Pool`` can)
    and adds the lifecycle a supervisor needs:

    * :meth:`submit` hands one shard sub-batch to the pool and returns
      the future;
    * the workers are forked at construction, before the owning process
      has opened any shard: forked later, every idle worker would carry
      a copy of the parent's open shards and in-process engine;
    * :meth:`restart` tears the executor down and builds a fresh one —
      new workers re-run the initializer and lazily reload their
      shards' archives and ``.stiu`` sidecars on first touch (a warm
      reload: the sidecar makes reopening cheap);
    * :meth:`ping` round-trips a no-op task, the health check;
    * :meth:`worker_pids` exposes the live worker processes so tests
      and chaos harnesses can kill one mid-query.

    Thread-safe: submits may race a restart; the losers get a future
    that raises ``BrokenProcessPool`` and retry against the new
    generation.
    """

    def __init__(self, config: dict, *, workers: int) -> None:
        if workers < 1:
            raise QueryEngineError(f"workers must be >= 1, got {workers}")
        self._config = config
        self._workers = workers
        self._context = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._closed = False
        self.generation = 0
        self._executor = self._spawn()
        try:
            # the executor forks on first submit: one ping forks them now
            self.ping(timeout=POOL_START_TIMEOUT)
        except BaseException:
            self.close()
            raise

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=self._context,
            initializer=_init_query_worker,
            initargs=(self._config,),
        )

    def decode(self, payload) -> list:
        """One task result (codec bytes) back to its answer list; raises
        :class:`~repro.query.transport.TransportError` on a blob that
        does not decode cleanly.  Part of the pool duck-type: a
        stand-in (chaos proxy, test wrapper) must forward this."""
        return decode_answers_blob(payload)

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """True when the current executor has lost a worker process."""
        with self._lock:
            return (
                not self._closed and self._executor._broken is not False
            )

    def submit(
        self, path: str, specs: Sequence[Query], *, traced: bool = False
    ) -> Future:
        """Hand one shard sub-batch to the pool.

        The future resolves to the answers' codec bytes (turn them
        back into results with :meth:`decode`).  With ``traced=True``
        the worker also records its span tree and the future resolves
        to ``{"answers": <bytes>, "span": {...}}`` instead.
        """
        return self.submit_call(
            _run_shard_batch, (str(path), list(specs), traced)
        )

    def submit_call(self, fn, payload) -> Future:
        """Generic submission seam (used by pings and chaos wrappers)."""
        with self._lock:
            if self._closed:
                raise EngineClosedError("worker pool is closed")
            executor = self._executor
        return executor.submit(fn, payload)

    def ping(self, *, timeout: float, payload: object = None):
        """Round-trip a no-op through one worker; raises on a sick pool."""
        return self.submit_call(_ping_worker, payload).result(timeout)

    def worker_pids(self) -> list[int]:
        """Best effort: pids of the current worker processes."""
        with self._lock:
            if self._closed:
                return []
            processes = self._executor._processes
        return [
            process.pid
            for process in list(processes.values())
            if process.pid is not None
        ]

    @staticmethod
    def _reap(executor) -> None:
        """SIGKILL an abandoned executor's worker processes.

        ``shutdown(wait=False)`` only *asks* workers to exit: the
        executor's manager thread withholds the exit sentinels while
        any submitted item is unfinished, so a single wedged worker
        (e.g. one that forked while another thread held a lock) parks
        the manager in ``poll()`` forever — and interpreter exit then
        hangs joining that manager thread.  Killing the workers is
        deterministic: their death wakes the manager, which fails the
        leftover futures with ``BrokenProcessPool``, reaps the corpses,
        and exits.  Workers are stateless by design, so nothing of
        value dies with them.  Must run *before* ``shutdown()``, which
        drops the executor's ``_processes`` reference even with
        ``wait=False``.
        """
        processes = getattr(executor, "_processes", None)
        for process in list((processes or {}).values()):
            try:
                process.kill()
            except Exception:  # already dead or never fully spawned
                pass

    def restart(self) -> int:
        """Replace the executor; returns the new generation number.

        The old executor is shut down without waiting: a genuinely
        wedged worker must not block the respawn.  Pending futures on
        the old generation fail fast (broken) so their callers can
        retry here.
        """
        with self._lock:
            if self._closed:
                raise EngineClosedError("worker pool is closed")
            old = self._executor
            self.generation += 1
            generation = self.generation
            self._executor = self._spawn()
        self._reap(old)
        old.shutdown(wait=False, cancel_futures=True)
        obs_metrics.counter(
            "repro_pool_restarts_total",
            help="Worker-pool respawns (new generation of processes)",
        ).inc()
        _log.warning(
            "pool.restart", generation=generation, workers=self._workers
        )
        return generation

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
        self._reap(executor)
        executor.shutdown(wait=False, cancel_futures=True)


@dataclass
class BatchPlan:
    """A batch resolved into per-shard work, before any execution.

    ``slots`` maps each distinct spec to its submission positions;
    ``tasks`` maps each shard path to the distinct specs it must
    answer; ``answers`` pre-resolves specs that need no shard at all
    (unknown trajectory ids); ``range_specs`` lists the specs whose
    per-shard id lists must be unioned at merge time.
    """

    slots: dict = field(default_factory=dict)
    tasks: dict = field(default_factory=dict)
    answers: dict = field(default_factory=dict)
    range_specs: list = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(len(positions) for positions in self.slots.values())

    @property
    def executions(self) -> int:
        """Shard executions the plan costs: one per (shard, distinct
        spec).  Unknown ids are in no task and cost nothing; a range
        spec counts once per shard."""
        return sum(len(specs) for specs in self.tasks.values())


class ShardedQueryEngine:
    """Batch queries over many archive files with a process pool.

    The pool (and each worker's open shards, indexes, and decode
    caches) persists across :meth:`run` calls, so a long-lived server
    pays the spawn and index-load cost once.  :meth:`routes_to_pool`
    decides per batch whether the pool or the calling thread answers.
    A pool task's answers come back through the executor's own result
    pipe as one ``bytes`` object in the answer codec
    (:mod:`repro.query.transport`, the bytes the wire protocol sends
    too), not as a pickled object graph.  Use as a context manager or
    call :meth:`close`.

    ``network`` may be shared by every shard (the usual case: shards of
    one dataset); when ``None`` each worker rebuilds it from the
    shard's provenance, exactly like ``repro query`` does, and this
    process from the first shard it opens.

    Fault surface: a worker process dying mid-batch raises
    :class:`WorkerPoolBroken` from :meth:`run`; the engine stays usable
    — :meth:`restart_pool` respawns the workers (warm ``.stiu`` sidecar
    reloads) and the batch can be retried.  :mod:`repro.serve` wraps
    exactly these seams (:meth:`plan` / :meth:`merge` /
    :meth:`run_pooled` / :meth:`decode_answers` /
    :meth:`run_in_process` / :meth:`run_local` /
    :meth:`drop_local_engine` and the :attr:`pool`) into a supervised
    always-on service.

    In process there is one engine: a :class:`BatchQueryEngine` over
    the union of the shards this process has open (what
    :class:`~repro.stream.live.LiveArchive` does for stream segments).
    A shard is opened, sidecar first, by the first plan that involves
    it, and the union is then rebuilt over the open shards — dict
    unions of their temporal layers; the union's spatial rows are
    derived from the union archive, an interval at a time, as queries
    first need them.
    """

    def __init__(
        self,
        shard_paths: Sequence,
        *,
        network=None,
        workers: int | None = None,
        pool: ShardWorkerPool | None = None,
    ) -> None:
        if not shard_paths:
            raise QueryEngineError("at least one shard path is required")
        self.shard_paths = [str(path) for path in shard_paths]
        if len(set(self.shard_paths)) != len(self.shard_paths):
            raise QueryEngineError("duplicate shard paths")
        self.network = network
        self._config = {"network": network}
        self._route = self._build_routing(self.shard_paths)
        if workers is None:
            workers = min(len(self.shard_paths), os.cpu_count() or 1)
        self.workers = max(1, workers)
        self._closed = False
        # open shards (path -> index over its FileBackedArchive) and the
        # one engine over their union; None until built, and again after
        # a shard was dropped
        self._parts: dict[str, StIUIndex] = {}
        self._union: BatchQueryEngine | None = None
        self._union_cache = self._new_union_cache()
        self.transport_fallbacks = obs_metrics.counter(
            "repro_transport_fallbacks_total",
            help="Shard tasks re-executed locally after a transport error",
        )
        # runs pool-routed shard tasks (run_pooled); threads start on
        # first use, so an engine that never routes to the pool has none
        self._dispatch = ThreadPoolExecutor(
            max_workers=DISPATCH_WINDOW, thread_name_prefix="repro-dispatch"
        )
        if pool is not None:
            self.pool: ShardWorkerPool | None = pool
        elif self.workers == 1:
            self.pool = None
        else:
            self.pool = ShardWorkerPool(self._config, workers=self.workers)

    @staticmethod
    def _build_routing(shard_paths: list[str]) -> dict[int, str]:
        """trajectory id -> shard path, from the directory headers only."""
        from ..io.format import read_header

        route: dict[int, str] = {}
        for path in shard_paths:
            with open(path, "rb") as stream:
                header = read_header(stream)
            for entry in header.directory:
                if entry.trajectory_id in route:
                    raise QueryEngineError(
                        f"trajectory {entry.trajectory_id} appears in "
                        f"both {route[entry.trajectory_id]} and {path}"
                    )
                route[entry.trajectory_id] = path
        return route

    def shard_for(self, trajectory_id: int) -> str | None:
        """Which shard holds ``trajectory_id`` (None: not in any)."""
        return self._route.get(trajectory_id)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the pool and every locally opened shard.  Idempotent:
        a second close is a no-op, never an error."""
        if self._closed:
            return
        self._closed = True
        # wait=False: a dispatch thread may be blocked on a pool future
        # that only resolves once the pool below is torn down
        self._dispatch.shutdown(wait=False, cancel_futures=True)
        if self.pool is not None:
            self.pool.close()
        for path in list(self._parts):
            self.drop_local_engine(path)

    def restart_pool(self) -> None:
        """Respawn the worker processes after a :class:`WorkerPoolBroken`."""
        if self._closed:
            raise EngineClosedError("engine is closed")
        if self.pool is not None:
            self.pool.restart()

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except Exception:
            # never mask an in-flight exception with a teardown failure
            if exc_type is None:
                raise

    # ------------------------------------------------------------------
    # planning + merging (shared with repro.serve)
    # ------------------------------------------------------------------
    def plan(self, queries: Sequence[Query], *, gate=None) -> BatchPlan:
        """Resolve a batch into per-shard tasks without executing it.

        Duplicate queries are collapsed here — each distinct spec is
        shipped to (and answered by) each involved shard exactly once
        per batch.  ``gate`` (when given) is called with every shard
        path a spec would need, so a quarantined shard refuses its
        queries (the serving tier's contract: no answers from behind a
        quarantine).
        """
        plan = BatchPlan()
        for position, query in enumerate(queries):
            if not isinstance(query, (WhereQuery, WhenQuery, RangeQuery)):
                raise QueryEngineError(
                    f"not a query spec: {query!r} (position {position})"
                )
            plan.slots.setdefault(query, []).append(position)
        for spec in plan.slots:
            if isinstance(spec, RangeQuery):
                involved = self.shard_paths
            else:
                path = self._route.get(spec.trajectory_id)
                if path is None:
                    plan.answers[spec] = []  # unknown trajectory: empty
                    continue
                involved = (path,)
            if gate is not None:
                for path in involved:
                    gate(path)
            if isinstance(spec, RangeQuery):
                plan.range_specs.append(spec)
            for path in involved:
                plan.tasks.setdefault(path, []).append(spec)
        return plan

    def merge(self, plan: BatchPlan, task_results) -> list:
        """Assemble submission-ordered results from per-shard answers.

        ``task_results`` yields ``(specs, shard_answers)`` pairs, one
        per executed task; range answers are unioned across shards.
        """
        answers = dict(plan.answers)
        partial_ranges: dict[Query, set[int]] = {
            spec: set() for spec in plan.range_specs
        }
        for specs, shard_answers in task_results:
            for spec, answer in zip(specs, shard_answers):
                if isinstance(spec, RangeQuery):
                    partial_ranges[spec].update(answer)
                else:
                    answers[spec] = answer
        for spec, union in partial_ranges.items():
            answers[spec] = sorted(union)

        results: list = [None] * plan.total
        for spec, positions in plan.slots.items():
            answer = answers[spec]
            for position in positions:
                results[position] = answer
        return results

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, queries: Sequence[Query]) -> list:
        """Answer every query; results align with the submission order.

        When the caller has a trace open (:func:`repro.obs.trace.
        start_trace`), the run contributes ``plan`` / ``merge`` spans
        and, between them, one ``local`` span (in process) or one
        ``shard:*`` span per pool task — with the worker-side span trees
        grafted back across the process boundary and their IPC overhead
        quantified.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        with obs_trace.trace_span("plan", queries=len(queries)):
            plan = self.plan(queries)
        if self.routes_to_pool(plan):
            try:
                task_results, _ = self.run_pooled(
                    sorted(plan.tasks.items()), self._ask_pool, self.run_local
                )
            except BrokenProcessPool as error:
                raise WorkerPoolBroken(
                    f"a shard worker died mid-batch: {error}; call "
                    f"restart_pool() and retry"
                ) from error
        else:
            task_results = self.run_in_process(plan)
        obs_metrics.counter(
            "repro_engine_queries_total", labels={"engine": "sharded"}
        ).inc(len(queries))
        with obs_trace.trace_span("merge", tasks=len(task_results)):
            return self.merge(plan, task_results)

    def routes_to_pool(
        self, plan: BatchPlan, *, breaker_open: bool = False
    ) -> bool:
        """The one routing rule: is ``plan`` big enough to split?

        The pool's fixed cost per request (thread hops, pickled specs
        out, encoded answers back) is repaid only by a plan with at least
        :data:`POOL_MIN_EXECUTIONS` shard executions over at least two
        shards; every other plan is answered faster by
        :meth:`run_in_process` on the calling thread.  ``breaker_open``
        is the serving tier's circuit breaker refusing the pool.
        """
        return (
            self.pool is not None
            and not breaker_open
            and len(plan.tasks) >= 2
            and plan.executions >= POOL_MIN_EXECUTIONS
        )

    def run_pooled(
        self, items, answer, fallback, *, window: int = DISPATCH_WINDOW
    ) -> tuple[list, bool]:
        """Run a plan's shard tasks ``[(path, specs), ...]`` on the pool:
        ``(task_results, degraded)`` for :meth:`merge`.

        ``answer(path, specs)`` runs on the engine's dispatch threads,
        at most ``window`` tasks at once, so shard round trips overlap.
        It returns the task's answers, or ``None`` when the pool could
        not answer; ``fallback(path, specs)`` then answers on this, the
        collecting, thread, so the in-process side stays single-threaded
        (``degraded`` says one did).  Results are collected in task
        order.  After the first error no new task starts; the running
        ones are collected, then the error is raised.

        With a trace open each task runs under its own ``shard:<file>``
        root (contextvars do not cross threads) carrying ``path``,
        ``t0_offset_seconds`` — how long after the first submission it
        started; near-zero offsets across shards are the proof of
        overlap — and ``mode`` (``batch`` when it fell back); the roots
        are grafted onto the caller's span in task order.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        parent = obs_trace.current_span()
        t0 = time.perf_counter()

        def run_task(path, specs):
            if parent is None:
                return answer(path, specs), None
            with obs_trace.start_trace(
                f"shard:{os.path.basename(path)}", path=str(path)
            ) as span:
                span.set(
                    "t0_offset_seconds", round(time.perf_counter() - t0, 6)
                )
                return answer(path, specs), span

        pending: deque = deque()
        cursor = 0
        task_results = []
        degraded = False
        error: Exception | None = None
        while pending or cursor < len(items):
            while cursor < len(items) and len(pending) < window:
                path, specs = items[cursor]
                cursor += 1
                pending.append(
                    (path, specs, self._dispatch.submit(run_task, path, specs))
                )
            path, specs, future = pending.popleft()
            try:
                answers, span = future.result()
                if error is not None:
                    continue  # collected only: the request fails anyway
                fell_back = answers is None
                if fell_back:
                    with obs_trace.within(span):
                        answers = fallback(path, specs)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                error = error or exc
                cursor = len(items)  # start no new task
                continue
            degraded |= fell_back
            if span is not None:
                span.set("mode", MODE_BATCH if fell_back else MODE_SHARDED)
                parent.children.append(span)
            task_results.append((specs, answers))
        if error is not None:
            raise error
        return task_results, degraded

    def _ask_pool(self, path: str, specs) -> list | None:
        """One shard task straight to the pool (no supervision): submit,
        graft the worker's span under this task's, decode."""
        traced = obs_trace.is_tracing()
        submitted = time.perf_counter()
        payload = self.pool.submit(path, specs, traced=traced).result()
        if traced:
            obs_trace.attach_child(
                payload["span"],
                roundtrip_seconds=time.perf_counter() - submitted,
            )
            payload = payload["answers"]
        return self.decode_answers(path, payload)

    def decode_answers(self, path: str, payload) -> list | None:
        """A pool task's answer bytes back to its answers; ``None`` —
        counted in :attr:`transport_fallbacks` — when they do not decode
        and the task must be answered in process instead."""
        try:
            return self.pool.decode(payload)
        except TransportError as error:
            self.transport_fallbacks.inc()
            _log.warning(
                "shard.transport_fallback", path=path, error=str(error)
            )
            return None

    def run_in_process(self, plan: BatchPlan) -> list:
        """Answer a whole plan on the calling thread: **one** run of the
        union engine over the plan's distinct specs that are not
        unknown, so a range spec executes once however many shards it
        spans.  Returns :meth:`merge`'s ``task_results``
        (a single task).

        Where every plan :meth:`routes_to_pool` keeps off the pool runs
        (all of them when ``workers == 1``).  Not thread-safe: callers
        sharing an engine serialise (the serving tier's local lock).
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        specs = [spec for spec in plan.slots if spec not in plan.answers]
        if not specs:
            return []
        with obs_trace.trace_span(
            "local", shards=len(plan.tasks), specs=len(specs)
        ):
            return [(specs, self._union_engine(plan.tasks).run(specs))]

    def run_local(self, path: str, specs: Sequence[Query]) -> list:
        """Execute one shard task in process: the fallback for a pool
        task the pool could not answer.

        Answered by the same union engine as :meth:`run_in_process`:
        directed specs as they are, a range answer filtered to the ids
        routed to ``path`` — what that shard alone would have returned,
        so :meth:`merge`'s union over the shard tasks stays exact.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        path = str(path)
        route = self._route
        return [
            [tid for tid in answer if route[tid] == path]
            if isinstance(spec, RangeQuery)
            else answer
            for spec, answer in zip(
                specs, self._union_engine((path,)).run(specs)
            )
        ]

    def drop_local_engine(self, path: str) -> None:
        """Close one locally opened shard (quarantine, re-admission, or
        a union that raised) and invalidate the union; the other shards
        stay open.  The next plan that involves ``path`` reopens it from
        the file, and the rebuilt union starts with an empty decode-span
        cache — records and spans decoded from the dropped file must not
        outlive it."""
        part = self._parts.pop(str(path), None)
        if part is None:
            return
        self._union = None
        self._union_cache = self._new_union_cache()
        if not part.archive.closed:
            part.archive.close()

    def _new_union_cache(self) -> DecodeSpanCache:
        """One decode-span cache for the union, with the budget the
        shards had when each brought its own: the configured budget
        (``REPRO_DECODE_CACHE_BYTES``) per shard."""
        return DecodeSpanCache(
            budget_bytes=len(self.shard_paths) * configured_budget_bytes()
        )

    def _union_engine(self, paths) -> BatchQueryEngine:
        """The one in-process engine, after opening those of ``paths``
        not yet open.  Only ``paths`` are opened: a request never
        reopens a shard somebody else's request got quarantined."""
        for path in paths:
            if path in self._parts:
                continue
            if self.network is None:
                self.network = _network_of_shard(path)
            self._parts[path] = StIUIndex.over_file(self.network, path)
            self._union = None  # extended: re-merge, decode cache kept
        if self._union is None:
            parts = [self._parts[path] for path in sorted(self._parts)]
            archive = UnionArchive([part.archive for part in parts])
            self._union = BatchQueryEngine(
                self.network,
                archive,
                StIUIndex.merged(self.network, archive, parts),
                cache=self._union_cache,
            )
        return self._union
