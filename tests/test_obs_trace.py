"""Span trees: nesting, serialization, and cross-process propagation.

The last test class is the one the tentpole hangs on: a traced request
through a *real* :class:`~repro.query.engine.ShardWorkerPool` must come
back with worker-side spans grafted into the parent's tree, each
stamped with the worker's pid and the parent-observed IPC overhead —
and tracing must not change the answers.
"""

import os
import time

import pytest

from repro.obs.trace import (
    Span,
    attach_child,
    current_span,
    ipc_breakdown,
    is_tracing,
    render_tree,
    start_trace,
    trace_span,
    worker_trace,
)


# ----------------------------------------------------------------------
# in-process span mechanics
# ----------------------------------------------------------------------
def test_spans_nest_in_stack_order():
    with start_trace("request", client="t") as root:
        with trace_span("plan"):
            pass
        with trace_span("shard") as shard:
            with trace_span("decode"):
                time.sleep(0.001)
            shard.set("path", "x.utcq")
    assert [child.name for child in root.children] == ["plan", "shard"]
    shard = root.children[1]
    assert shard.attrs["path"] == "x.utcq"
    assert shard.children[0].name == "decode"
    # timing flows upward: a parent's wall covers its children's
    assert root.wall >= shard.wall >= shard.children[0].wall > 0.0


def test_trace_span_is_noop_without_an_open_trace():
    assert not is_tracing()
    with trace_span("orphan") as span:
        span.set("ignored", 1)
        assert not is_tracing()
    assert current_span() is None
    # and attach_child drops the document rather than grafting blind
    assert attach_child({"name": "worker", "wall": 0.1}) is None


def test_to_dict_round_trips():
    with start_trace("request", queries=4) as root:
        with trace_span("plan"):
            pass
    clone = Span.from_dict(root.to_dict())
    assert clone.name == "request"
    assert clone.attrs == {"queries": 4}
    assert clone.wall == root.wall
    assert [child.name for child in clone.children] == ["plan"]


def test_attach_child_stamps_ipc_overhead():
    with worker_trace("worker") as inner:
        time.sleep(0.002)
    document = inner.to_dict()
    assert document["attrs"]["pid"] == os.getpid()
    with start_trace("request") as root:
        grafted = attach_child(document, roundtrip_seconds=inner.wall + 0.005)
        assert grafted is root.children[0]
    assert grafted.attrs["ipc_seconds"] == pytest.approx(0.005)
    # a roundtrip reported shorter than the worker's wall clamps to 0
    with start_trace("request"):
        clamped = attach_child(document, roundtrip_seconds=0.0)
    assert clamped.attrs["ipc_seconds"] == 0.0


def test_find_and_render():
    with start_trace("request") as root:
        with trace_span("shard", path="a"):
            with trace_span("decode"):
                pass
        with trace_span("shard", path="b"):
            pass
    assert root.find("decode") is not None
    assert root.find("missing") is None
    assert [span.attrs["path"] for span in root.find_all("shard")] == [
        "a", "b",
    ]
    text = render_tree(root)
    assert "request" in text and "├─ shard" in text and "└─ shard" in text


def test_ipc_breakdown_aggregates_worker_spans():
    root = Span("request")
    root.wall = 0.100
    plan = Span("plan")
    plan.wall = 0.005
    merge = Span("merge")
    merge.wall = 0.003
    for wall, ipc in ((0.020, 0.010), (0.030, 0.015)):
        call = Span("pool.call")
        worker = Span("worker", {"ipc_seconds": ipc})
        worker.wall = wall
        call.children.append(worker)
        root.children.append(call)
    root.children += [plan, merge]
    breakdown = ipc_breakdown(root)
    assert breakdown["worker_calls"] == 2
    assert breakdown["worker_seconds"] == pytest.approx(0.050)
    assert breakdown["ipc_seconds"] == pytest.approx(0.025)
    assert breakdown["plan_seconds"] == pytest.approx(0.005)
    assert breakdown["merge_seconds"] == pytest.approx(0.003)
    assert breakdown["ipc_share"] == pytest.approx(0.25)


# ----------------------------------------------------------------------
# cross-process propagation through a real worker pool
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_world(tmp_path_factory):
    from repro.core.archive import CompressedArchive
    from repro.core.compressor import compress_dataset
    from repro.query import StIUIndex, save_index
    from repro.trajectories.datasets import load_dataset

    network, trajectories = load_dataset("CD", 18, seed=31, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    root = tmp_path_factory.mktemp("obs-trace")
    shard_paths = []
    total = len(archive.trajectories)
    for shard in range(2):
        lo = shard * total // 2
        hi = (shard + 1) * total // 2
        part = CompressedArchive(
            params=archive.params,
            trajectories=archive.trajectories[lo:hi],
        )
        path = root / f"shard-{shard}.utcq"
        part.save(path)
        save_index(StIUIndex(network, part), path)
        shard_paths.append(path)
    return network, trajectories, shard_paths


def _queries(network, trajectories, count=12):
    from repro.query import WhereQuery
    from repro.workloads.harness import build_query_workload

    workload = build_query_workload(
        network, trajectories, count=count, seed=3
    )
    return [WhereQuery(*args) for args in workload.where_queries]


def _pool_queries(sharded_world):
    """A request the engine splits across its workers (a small one is
    answered in process and has no worker spans to graft)."""
    from test_query_engine import pool_sized_queries

    return pool_sized_queries(*sharded_world, seed=3)


def test_traced_sharded_run_grafts_worker_spans(sharded_world):
    from repro.query import ShardedQueryEngine

    network, trajectories, shard_paths = sharded_world
    queries = _pool_queries(sharded_world)
    with ShardedQueryEngine(
        shard_paths, network=network, workers=2
    ) as engine:
        baseline = engine.run(queries)
        with start_trace("request") as root:
            traced = engine.run(queries)
        # tracing is an observer: identical answers
        assert traced == baseline

        workers = [
            span
            for span in root.find_all("worker")
            if "ipc_seconds" in span.attrs
        ]
        shard_spans = [
            child
            for child in root.children
            if child.name.startswith("shard:")
        ]
        assert workers, "no worker spans came back across the pool"
        assert len(workers) == len(shard_spans)
        for span in shard_spans:
            assert span.attrs["mode"] == "sharded"
            assert span.attrs["t0_offset_seconds"] >= 0.0
            assert span.attrs["path"].endswith(span.name[len("shard:"):])
        for span in workers:
            # genuinely another process, with its own decode stages
            assert span.attrs["pid"] != os.getpid()
            assert span.attrs["ipc_seconds"] >= 0.0
            assert span.attrs["roundtrip_seconds"] >= span.wall
            assert span.find("worker.run") is not None
        breakdown = ipc_breakdown(root)
        assert breakdown["worker_calls"] == len(workers)
        assert breakdown["total_seconds"] > 0.0

        # untraced runs pay no span plumbing and return the plain shape
        assert engine.run(queries) == baseline


def test_untraced_sharded_run_builds_no_tree(sharded_world):
    from repro.query import ShardedQueryEngine

    network, trajectories, shard_paths = sharded_world
    queries = _queries(network, trajectories, count=6)
    with ShardedQueryEngine(
        shard_paths, network=network, workers=2
    ) as engine:
        engine.run(queries)
    assert current_span() is None


def test_service_returns_trace_on_request(sharded_world):
    from repro.serve import QueryService

    network, trajectories, shard_paths = sharded_world
    queries = _pool_queries(sharded_world)
    service = QueryService(shard_paths, network=network, workers=2)
    try:
        plain = service.submit_many(queries, client="t")
        assert plain.ok and plain.trace is None
        traced = service.submit_many(queries, client="t", trace=True)
        assert traced.ok
        assert traced.results == plain.results
        root = Span.from_dict(traced.trace)
        assert root.name == "request"
        assert root.attrs["mode"] == "sharded"
        assert root.find("plan") is not None
        assert root.find("merge") is not None
        workers = [
            span
            for span in root.find_all("worker")
            if "ipc_seconds" in span.attrs
        ]
        assert workers
        assert all(span.attrs["pid"] != os.getpid() for span in workers)
    finally:
        service.close()
