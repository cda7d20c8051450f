"""A dependency-free metrics registry: counters, gauges, histograms.

The one place every subsystem's counts land — the serving tier's
request, supervisor and admission events, the stream tier's sidecar
loads, the decode-span cache's hits and misses — and the one export
surface for all of them:

* :class:`Counter` — monotonically increasing; ``inc()`` is a single
  lock-protected add, safe under free threading.
* :class:`Gauge` — a point-in-time value; ``set()``/``inc()``/``dec()``.
* :class:`Histogram` — log-bucketed observations (bucket *k* holds
  values in ``(growth**(k-1), growth**k]``), tracking count/sum/min/max
  and answering quantile queries to within one bucket's relative error.
* :class:`MetricsRegistry` — a thread-safe instrument table keyed by
  ``(name, labels)``.  ``instrument(...)`` calls are idempotent: two
  subsystems asking for the same counter share it.
* :class:`CounterTally` — a per-instance *view* over shared counters
  (:class:`~repro.serve.service.ServiceStats`, ``SupervisorStats``,
  ``AdmissionStats``): an event is written once, to the registry
  counter, and ``snapshot()`` is that counter minus its value when the
  tally was built.  A service built after earlier traffic starts at 0
  while a scrape keeps the process totals; two tallies alive at once
  over the same counters share their events (nothing in ``src/``,
  ``ledger/`` or ``benchmarks/`` runs two services side by side).

Export comes in two shapes: :meth:`MetricsRegistry.snapshot` (plain
dicts, JSON-ready; :func:`snapshot_delta` subtracts two of them) and
:meth:`MetricsRegistry.to_prometheus` (the text exposition format, so
a scrape endpoint or ``--metrics-out`` file is one call away).

Components with hot private counters (the decode-span cache) register
as *collectors* instead of paying a registry lock per event: the
registry holds a weak reference and asks the object for its metrics at
snapshot time only.

Instrument naming follows the Prometheus conventions documented in
``docs/observability.md``: ``<subsystem>_<what>_<unit>``, counters
suffixed ``_total``, label values for enumerable dimensions.
"""

from __future__ import annotations

import json
import math
import threading
import weakref

Labels = tuple[tuple[str, str], ...]


def _labels_key(labels: dict | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_text(labels: Labels) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + body + "}"


class Instrument:
    """Common identity of every registered metric."""

    kind = "instrument"

    def __init__(self, name: str, labels: Labels, help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()

    @property
    def full_name(self) -> str:
        return self.name + _labels_text(self.labels)


class Counter(Instrument):
    """Monotonic event count.  ``inc`` never accepts a negative amount."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def export(self) -> dict:
        return {"value": self.value}


class CounterTally:
    """Named registry counters, read as the events since construction.

    ``bump`` is the single write an event costs (the counter's own
    lock); ``get`` / ``snapshot`` subtract the baseline taken here.
    """

    def __init__(self, counters: dict[str, Counter]) -> None:
        self._counters = counters
        self._baseline = {
            name: counter.value for name, counter in counters.items()
        }

    def bump(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def get(self, name: str) -> int:
        return int(self._counters[name].value - self._baseline[name])

    def snapshot(self) -> dict:
        return {name: self.get(name) for name in self._counters}


class Gauge(Instrument):
    """A value that goes both ways: in-flight requests, open segments."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def export(self) -> dict:
        return {"value": self.value}


class Histogram(Instrument):
    """Log-bucketed distribution of positive-ish observations.

    Bucket *k* (an integer, possibly negative) holds observations in
    ``(growth**(k-1), growth**k]``; zero and negatives land in a
    dedicated underflow bucket.  With the default ``growth`` of 2 a
    quantile estimate is within 2x of the true value — plenty to tell a
    4 ms p50 from a 400 ms p99, at O(log(range)) memory with no bound
    configuration at all (latencies from nanoseconds to hours fit).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        help: str = "",
        *,
        growth: float = 2.0,
    ) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        super().__init__(name, labels, help)
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _bucket_index(self, value: float) -> int:
        if value <= 0:
            return -(2**31)  # underflow bucket
        return math.ceil(math.log(value) / self._log_growth - 1e-12)

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        with self._lock:
            self._buckets[index] = self._buckets.get(index, 0) + 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the ``fraction`` quantile.

        Exact to within one bucket (a factor of ``growth``); returns
        0.0 for an empty histogram.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = fraction * self._count
            seen = 0
            for index in sorted(self._buckets):
                seen += self._buckets[index]
                if seen >= target:
                    if index == -(2**31):
                        return 0.0
                    # never report past the true maximum
                    return min(self.growth**index, self._max)
            return self._max

    def export(self) -> dict:
        with self._lock:
            buckets = {
                ("0" if index == -(2**31) else repr(self.growth**index)):
                    count
                for index, count in sorted(self._buckets.items())
            }
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "buckets": buckets,
            }


class MetricsRegistry:
    """Thread-safe table of instruments plus weak-ref collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, Labels], Instrument] = {}
        self._collectors: list = []  # weakrefs to collect_metrics owners

    # ------------------------------------------------------------------
    # instrument factories (idempotent per (name, labels))
    # ------------------------------------------------------------------
    def _instrument(self, cls, name, labels, help, **kwargs) -> Instrument:
        key = (name, _labels_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            instrument = cls(name, key[1], help, **kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(
        self, name: str, *, labels: dict | None = None, help: str = ""
    ) -> Counter:
        return self._instrument(Counter, name, labels, help)

    def gauge(
        self, name: str, *, labels: dict | None = None, help: str = ""
    ) -> Gauge:
        return self._instrument(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        *,
        labels: dict | None = None,
        help: str = "",
        growth: float = 2.0,
    ) -> Histogram:
        return self._instrument(Histogram, name, labels, help, growth=growth)

    # ------------------------------------------------------------------
    # collectors
    # ------------------------------------------------------------------
    def register_collector(self, owner) -> None:
        """Track ``owner`` weakly; at snapshot time its
        ``collect_metrics()`` must yield ``(kind, name, labels, export)``
        tuples (``kind`` in counter/gauge, ``export`` the instrument
        export dict).  Lets hot-path components keep private counters
        and still show up in every scrape."""
        with self._lock:
            self._collectors.append(weakref.ref(owner))

    def _collected(self) -> list[tuple[str, str, Labels, dict]]:
        with self._lock:
            refs = list(self._collectors)
        alive, rows = [], []
        for ref in refs:
            owner = ref()
            if owner is None:
                continue
            alive.append(ref)
            for kind, name, labels, export in owner.collect_metrics():
                rows.append((kind, name, _labels_key(labels), export))
        with self._lock:
            self._collectors = alive
        return rows

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every instrument (and collector metric) as plain JSON-able
        dicts, keyed by ``name{label="value",...}``."""
        with self._lock:
            instruments = list(self._instruments.values())
        metrics: dict[str, dict] = {}
        for instrument in instruments:
            metrics[instrument.full_name] = {
                "kind": instrument.kind,
                **instrument.export(),
            }
        for kind, name, labels, export in self._collected():
            full = name + _labels_text(labels)
            entry = {"kind": kind, **export}
            previous = metrics.get(full)
            if previous is not None and previous["kind"] == kind == "counter":
                # several live collector owners may report the same
                # metric (e.g. every decode cache in the process):
                # a counter scrape is their sum
                entry["value"] += previous["value"]
            metrics[full] = entry
        return {"format": "repro-metrics", "version": 1, "metrics": metrics}

    def to_prometheus(self) -> str:
        """The text exposition format (``# TYPE`` lines included)."""
        return render_prometheus(self.snapshot())

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def render_prometheus(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text."""
    lines: list[str] = []
    typed: set[str] = set()
    for full_name, entry in sorted(snapshot.get("metrics", {}).items()):
        bare = full_name.split("{", 1)[0]
        kind = entry.get("kind", "gauge")
        if bare not in typed:
            typed.add(bare)
            lines.append(
                f"# TYPE {bare} "
                f"{'counter' if kind == 'counter' else 'gauge' if kind == 'gauge' else 'histogram'}"
            )
        if kind == "histogram":
            label_text = ""
            if "{" in full_name:
                label_text = full_name[full_name.index("{"):]
            inner = label_text[1:-1] if label_text else ""
            cumulative = 0
            for upper, count in entry.get("buckets", {}).items():
                cumulative += count
                le = f'le="{upper}"'
                labels = f"{{{inner + ',' if inner else ''}{le}}}"
                lines.append(f"{bare}_bucket{labels} {cumulative}")
            le = 'le="+Inf"'
            labels = f"{{{inner + ',' if inner else ''}{le}}}"
            lines.append(f"{bare}_bucket{labels} {entry.get('count', 0)}")
            lines.append(f"{bare}_sum{label_text} {_num(entry.get('sum', 0.0))}")
            lines.append(f"{bare}_count{label_text} {entry.get('count', 0)}")
        else:
            lines.append(f"{full_name} {_num(entry.get('value', 0.0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _num(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def parse_prometheus(text: str) -> dict[str, float]:
    """Inverse of :func:`render_prometheus` for plain samples (tests and
    ``repro obs dump``): ``{name{labels}: value}``, comments skipped."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


def snapshot_delta(current: dict, previous: dict) -> dict:
    """What changed between two :meth:`MetricsRegistry.snapshot` dicts.

    Counters and histograms subtract (new instruments keep their full
    value); gauges always report the current value.  The result is a
    valid snapshot dict itself, so it renders to Prometheus text or
    JSON like any other — this is how a bench reports only its own run
    even on a registry shared with earlier work in the process.
    """
    before = previous.get("metrics", {})
    metrics: dict[str, dict] = {}
    for full_name, entry in current.get("metrics", {}).items():
        old = before.get(full_name)
        kind = entry.get("kind")
        if old is None or old.get("kind") != kind or kind == "gauge":
            metrics[full_name] = dict(entry)
            continue
        if kind == "counter":
            delta = entry["value"] - old["value"]
            if delta:
                metrics[full_name] = {"kind": kind, "value": delta}
            continue
        # histogram: subtract counts bucket-wise; min/max are not
        # recoverable for the window, so they are dropped
        buckets = {}
        for upper, count in entry.get("buckets", {}).items():
            remaining = count - old.get("buckets", {}).get(upper, 0)
            if remaining:
                buckets[upper] = remaining
        count = entry.get("count", 0) - old.get("count", 0)
        if count or buckets:
            metrics[full_name] = {
                "kind": kind,
                "count": count,
                "sum": entry.get("sum", 0.0) - old.get("sum", 0.0),
                "min": None,
                "max": None,
                "buckets": buckets,
            }
    return {"format": "repro-metrics", "version": 1, "metrics": metrics}


# ----------------------------------------------------------------------
# the process-wide default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem records into."""
    return _default_registry


def counter(name: str, *, labels: dict | None = None, help: str = "") -> Counter:
    return _default_registry.counter(name, labels=labels, help=help)


def gauge(name: str, *, labels: dict | None = None, help: str = "") -> Gauge:
    return _default_registry.gauge(name, labels=labels, help=help)


def histogram(
    name: str,
    *,
    labels: dict | None = None,
    help: str = "",
    growth: float = 2.0,
) -> Histogram:
    return _default_registry.histogram(
        name, labels=labels, help=help, growth=growth
    )
