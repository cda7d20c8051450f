"""Span-based request tracing, across threads and worker processes.

A *span* is one timed stage of a request: name, wall time, CPU time,
free-form attributes, child spans.  A request traced end to end yields
a span tree::

    request (12.1ms wall)
    ├─ plan (0.1ms)
    ├─ shard:/data/shard-0.utcq (9.8ms)
    │  └─ pool.call (9.7ms, ipc_seconds=0.0062)
    │     └─ worker (3.5ms, pid=4242)
    │        └─ worker.run (3.4ms)
    └─ merge (0.2ms)

which is exactly the instrument ROADMAP item 1 needs: parent-side
plan/merge time, worker-side decode time, and the difference between a
pool call's wall time and its worker span's wall time — the IPC
serialize/queue/deserialize overhead — all attributed, per request.

Usage::

    with start_trace("request") as root:      # opens a trace
        with trace_span("plan"):              # nested stage
            ...
    render_tree(root)                         # or root.to_dict()

:func:`trace_span` is free when no trace is open: it yields a no-op
span without allocating a real one, so library code can be
instrumented unconditionally and untraced requests pay almost nothing.

Cross-process propagation does not try to share state: a worker opens
its *own* root span (:func:`start_trace` in the worker), returns
``span.to_dict()`` piggybacked on the task result, and the parent
grafts it into the live tree with :func:`attach_child` — which also
stamps ``ipc_seconds`` (parent-observed round trip minus worker wall
time) onto the grafted span when the caller measured the round trip.

Context is tracked with :mod:`contextvars`, so spans nest correctly
per thread and survive into code the request fans out to.
"""

from __future__ import annotations

import contextvars
import os
import time
from contextlib import contextmanager

_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_span", default=None
)


class Span:
    """One timed stage; builds a tree through ``children``."""

    __slots__ = ("name", "attrs", "children", "wall", "cpu", "_t0", "_c0")

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.attrs: dict = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.wall: float = 0.0
        self.cpu: float = 0.0
        self._t0: float | None = None
        self._c0: float | None = None

    def start(self) -> "Span":
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def finish(self) -> "Span":
        if self._t0 is not None:
            self.wall = time.perf_counter() - self._t0
            self.cpu = time.process_time() - self._c0
            self._t0 = None
        return self

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    # ------------------------------------------------------------------
    # (de)serialization — how spans cross the process boundary
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        document = {
            "name": self.name,
            "wall": self.wall,
            "cpu": self.cpu,
        }
        if self.attrs:
            document["attrs"] = dict(self.attrs)
        if self.children:
            document["children"] = [child.to_dict() for child in self.children]
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "Span":
        span = cls(document["name"], document.get("attrs"))
        span.wall = float(document.get("wall", 0.0))
        span.cpu = float(document.get("cpu", 0.0))
        span.children = [
            cls.from_dict(child) for child in document.get("children", ())
        ]
        return span

    # ------------------------------------------------------------------
    # tree queries (used by tests, docs tooling, `repro obs trace`)
    # ------------------------------------------------------------------
    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> "list[Span]":
        spans = [self] if self.name == name else []
        for child in self.children:
            spans.extend(child.find_all(name))
        return spans

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall={self.wall:.6f}, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """What :func:`trace_span` yields when no trace is open."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    @property
    def attrs(self) -> dict:
        return {}

    @property
    def children(self) -> list:
        return []


_NULL_SPAN = _NullSpan()


def current_span() -> Span | None:
    """The innermost live span of this context, or None (not tracing)."""
    return _current_span.get()


def is_tracing() -> bool:
    return _current_span.get() is not None


@contextmanager
def start_trace(name: str, **attrs):
    """Open a root span regardless of context; yields the live Span.

    The root is the handle the caller keeps: after the ``with`` block it
    holds the finished tree (``to_dict()`` / :func:`render_tree`).
    """
    span = Span(name, attrs)
    token = _current_span.set(span)
    span.start()
    try:
        yield span
    finally:
        span.finish()
        _current_span.reset(token)


@contextmanager
def within(span: Span | None):
    """Make ``span`` the current span for the block without starting
    or finishing it (None: leave the context alone) — how the two
    halves of one request, which may run on two threads, hang their
    stages under one root."""
    if span is None:
        yield
        return
    token = _current_span.set(span)
    try:
        yield
    finally:
        _current_span.reset(token)


@contextmanager
def trace_span(name: str, **attrs):
    """One nested stage — a no-op unless a trace is open.

    On exit the span is attached to its parent, so the tree assembles
    itself in stack order.
    """
    parent = _current_span.get()
    if parent is None:
        yield _NULL_SPAN
        return
    span = Span(name, attrs)
    token = _current_span.set(span)
    span.start()
    try:
        yield span
    finally:
        span.finish()
        _current_span.reset(token)
        parent.children.append(span)


def attach_child(
    document: dict, *, roundtrip_seconds: float | None = None
) -> Span | None:
    """Graft a worker-produced span dict under the current span.

    ``roundtrip_seconds`` is the parent-observed submit-to-result wall
    time; the difference between it and the worker span's own wall time
    is the IPC overhead (pickle out + queue + pickle back), stamped on
    the grafted span as ``ipc_seconds``.  Returns the grafted Span, or
    None when not tracing (the dict is dropped).
    """
    parent = _current_span.get()
    if parent is None or document is None:
        return None
    span = Span.from_dict(document)
    if roundtrip_seconds is not None:
        span.set("roundtrip_seconds", roundtrip_seconds)
        span.set("ipc_seconds", max(0.0, roundtrip_seconds - span.wall))
    parent.children.append(span)
    return span


@contextmanager
def worker_trace(name: str, **attrs):
    """Worker-process side of propagation: a root span that stamps its
    pid, for piggybacking on the task result as ``span.to_dict()``."""
    with start_trace(name, **attrs) as span:
        span.set("pid", os.getpid())
        yield span


def render_tree(span: Span, *, min_wall: float = 0.0) -> str:
    """Human-readable span tree (the ``repro obs trace`` output)."""
    lines: list[str] = []

    def visit(node: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            connector, child_prefix = "", ""
        else:
            connector = prefix + ("└─ " if is_last else "├─ ")
            child_prefix = prefix + ("   " if is_last else "│  ")
        attrs = ", ".join(
            f"{key}={_format_attr(value)}"
            for key, value in sorted(node.attrs.items())
        )
        lines.append(
            f"{connector}{node.name}  "
            f"wall={node.wall * 1000:.2f}ms cpu={node.cpu * 1000:.2f}ms"
            + (f"  [{attrs}]" if attrs else "")
        )
        visible = [c for c in node.children if c.wall >= min_wall]
        for position, child in enumerate(visible):
            visit(child, child_prefix, position == len(visible) - 1, False)

    visit(span, "", True, True)
    return "\n".join(lines)


def _format_attr(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def ipc_breakdown(root: Span) -> dict:
    """Aggregate the IPC accounting of one traced request.

    Sums worker-side wall time and parent-observed IPC overhead across
    every grafted worker span in the tree, plus the plan/merge stages —
    the numbers ``docs/observability.md`` quantifies the sharded-path
    gap with.
    """
    workers = [
        span
        for span in _walk(root)
        if "ipc_seconds" in span.attrs
    ]
    worker_wall = sum(span.wall for span in workers)
    ipc = sum(span.attrs["ipc_seconds"] for span in workers)
    plan = sum(span.wall for span in root.find_all("plan"))
    merge = sum(span.wall for span in root.find_all("merge"))
    total = root.wall
    return {
        "total_seconds": total,
        "plan_seconds": plan,
        "merge_seconds": merge,
        "worker_seconds": worker_wall,
        "ipc_seconds": ipc,
        "worker_calls": len(workers),
        "ipc_share": (ipc / total) if total > 0 else 0.0,
    }


def _walk(span: Span):
    yield span
    for child in span.children:
        yield from _walk(child)
