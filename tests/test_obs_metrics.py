"""The metrics registry: instruments, concurrency, export, collectors.

Everything runs against fresh :class:`MetricsRegistry` instances, not
the process-wide default, so these tests neither see nor disturb the
counters the instrumented subsystems record into during other tests.
"""

import gc
import json
import threading

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
    snapshot_delta,
)


# ----------------------------------------------------------------------
# instrument basics
# ----------------------------------------------------------------------
def test_counter_monotonic_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_events_total")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 5


def test_gauge_goes_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("repro_test_in_flight")
    gauge.set(7)
    gauge.dec(2)
    gauge.inc()
    assert gauge.value == 6


def test_instruments_are_idempotent_per_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("repro_test_total", labels={"kind": "x"})
    b = registry.counter("repro_test_total", labels={"kind": "x"})
    c = registry.counter("repro_test_total", labels={"kind": "y"})
    assert a is b
    assert a is not c
    a.inc()
    assert b.value == 1
    assert c.value == 0


def test_kind_mismatch_is_an_error():
    registry = MetricsRegistry()
    registry.counter("repro_test_total")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("repro_test_total")


# ----------------------------------------------------------------------
# concurrency: no lost increments, no lost observations
# ----------------------------------------------------------------------
def test_counter_hammer_loses_no_increments():
    registry = MetricsRegistry()
    threads, per_thread = 8, 10_000
    barrier = threading.Barrier(threads)

    def hammer():
        # re-resolving through the registry each time also hammers the
        # idempotent instrument table, not just the counter's own lock
        counter = registry.counter("repro_test_hammer_total")
        barrier.wait()
        for _ in range(per_thread):
            counter.inc()

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert registry.counter("repro_test_hammer_total").value == (
        threads * per_thread
    )


def test_histogram_hammer_loses_no_observations():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_test_latency_seconds")
    threads, per_thread = 8, 2_000
    barrier = threading.Barrier(threads)

    def hammer(which: int):
        barrier.wait()
        for i in range(per_thread):
            histogram.observe((which * per_thread + i) % 97 + 0.5)

    workers = [
        threading.Thread(target=hammer, args=(which,))
        for which in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert histogram.count == threads * per_thread
    assert histogram.sum == pytest.approx(
        sum((i % 97 + 0.5) for i in range(threads * per_thread))
    )


# ----------------------------------------------------------------------
# histogram quantiles
# ----------------------------------------------------------------------
def test_histogram_quantile_within_one_bucket():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_test_latency_seconds")
    for value in range(1, 1001):
        histogram.observe(float(value))
    # growth=2.0: the estimate is the bucket's upper bound, so it is
    # never below the true quantile and never more than 2x above it
    for fraction, true_value in ((0.5, 500.0), (0.99, 990.0)):
        estimate = histogram.quantile(fraction)
        assert true_value <= estimate <= 2.0 * true_value
    # the cap: never report past the observed maximum
    assert histogram.quantile(1.0) == 1000.0


def test_histogram_underflow_and_empty():
    registry = MetricsRegistry()
    histogram = registry.histogram("repro_test_latency_seconds")
    assert histogram.quantile(0.5) == 0.0
    histogram.observe(0.0)
    histogram.observe(-3.0)
    assert histogram.quantile(0.5) == 0.0
    assert histogram.count == 2


# ----------------------------------------------------------------------
# export: snapshot, Prometheus text, deltas
# ----------------------------------------------------------------------
def _build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_test_requests_total").inc(42)
    registry.counter(
        "repro_test_rejected_total", labels={"reason": "overloaded"}
    ).inc(3)
    registry.gauge("repro_test_in_flight").set(2)
    histogram = registry.histogram("repro_test_latency_seconds")
    for value in (0.001, 0.004, 0.5):
        histogram.observe(value)
    return registry


def test_snapshot_is_json_ready():
    snapshot = _build_registry().snapshot()
    assert snapshot["format"] == "repro-metrics"
    reparsed = json.loads(json.dumps(snapshot))
    metrics = reparsed["metrics"]
    assert metrics["repro_test_requests_total"]["value"] == 42
    assert (
        metrics['repro_test_rejected_total{reason="overloaded"}']["value"]
        == 3
    )
    assert metrics["repro_test_latency_seconds"]["count"] == 3


def test_prometheus_round_trip():
    registry = _build_registry()
    text = registry.to_prometheus()
    assert "# TYPE repro_test_requests_total counter" in text
    samples = parse_prometheus(text)
    assert samples["repro_test_requests_total"] == 42
    assert samples['repro_test_rejected_total{reason="overloaded"}'] == 3
    # histogram explodes into cumulative buckets + sum + count
    assert samples["repro_test_latency_seconds_count"] == 3
    assert samples["repro_test_latency_seconds_sum"] == pytest.approx(0.505)
    assert samples['repro_test_latency_seconds_bucket{le="+Inf"}'] == 3


def test_snapshot_delta_reports_only_the_window():
    registry = _build_registry()
    before = registry.snapshot()
    registry.counter("repro_test_requests_total").inc(8)
    registry.gauge("repro_test_in_flight").set(5)
    registry.histogram("repro_test_latency_seconds").observe(0.002)
    after = registry.snapshot()
    delta = snapshot_delta(after, before)["metrics"]
    assert delta["repro_test_requests_total"]["value"] == 8
    # unchanged counters drop out of the delta entirely
    assert 'repro_test_rejected_total{reason="overloaded"}' not in delta
    # gauges are point-in-time: current value, not a difference
    assert delta["repro_test_in_flight"]["value"] == 5
    assert delta["repro_test_latency_seconds"]["count"] == 1
    # the delta is itself a renderable snapshot
    assert "repro_test_requests_total 8" in render_prometheus(
        snapshot_delta(after, before)
    )


# ----------------------------------------------------------------------
# weak-ref collectors (the DecodeSpanCache pattern)
# ----------------------------------------------------------------------
class _FakeCache:
    def __init__(self, hits: int) -> None:
        self.hits = hits

    def collect_metrics(self):
        yield (
            "counter",
            "repro_test_collected_hits_total",
            {"section": "times"},
            {"value": self.hits},
        )


def test_collectors_sum_and_die_with_their_owner():
    registry = MetricsRegistry()
    first, second = _FakeCache(10), _FakeCache(5)
    registry.register_collector(first)
    registry.register_collector(second)
    key = 'repro_test_collected_hits_total{section="times"}'
    assert registry.snapshot()["metrics"][key]["value"] == 15
    del second
    gc.collect()
    assert registry.snapshot()["metrics"][key]["value"] == 10


def test_decode_cache_reports_consistent_stats():
    # the real collector: DecodeSpanCache exposes hits/misses/evictions
    # per section under one lock, and scrapes into any registry
    from types import SimpleNamespace

    from repro.core.decoder import DecodeSpanCache, TrajectoryBlock

    def block():
        record = SimpleNamespace(trajectory_id=1, instances=[])
        return TrajectoryBlock(record, [10, 20, 30])

    cache = DecodeSpanCache(budget_bytes=4096, register=False)
    cache.block_for(1, block)
    stats = cache.stats()
    # ledger/layers.py reads the four span sections by name
    for section in ("records", "times", "references", "instances", "chainages"):
        entry = stats[section]
        assert set(entry) == {"hits", "misses", "evictions", "resident", "bytes"}
    assert stats["times"]["resident"] == 1
    assert 0 < stats["times"]["bytes"] == cache.resident_bytes <= 4096
    registry = MetricsRegistry()
    registry.register_collector(cache)
    metrics = registry.snapshot()["metrics"]
    assert 'repro_decode_cache_hits_total{section="times"}' in metrics
    # a scrape answers "is the cache full, and with what?"
    assert metrics['repro_decode_cache_bytes{section="times"}']["value"] == (
        stats["times"]["bytes"]
    )
    assert metrics['repro_decode_cache_bytes{section="records"}']["value"] == 0
    assert metrics["repro_decode_cache_budget_bytes"]["value"] == 4096
    # with two caches alive, counters are their sum and a gauge is the
    # one registered last
    second = DecodeSpanCache(budget_bytes=1000, register=False)
    second.block_for(1, block)
    registry.register_collector(second)
    metrics = registry.snapshot()["metrics"]
    assert metrics['repro_decode_cache_misses_total{section="times"}'][
        "value"
    ] == 2
    assert metrics["repro_decode_cache_budget_bytes"]["value"] == 1000
