"""Zipf-aware hot-query cache in front of the decode layer.

Real request streams are skewed: a handful of popular queries (hot
trajectories, hot regions) dominate the traffic the way popular
locations dominate real movement data (PRESS serves exactly such
mixes).  :class:`HotTrajectoryCache` exploits that skew *above* the
span layer: a hit returns the fully decoded, already-merged answer of
a previous request without touching
:class:`~repro.core.decoder.DecodeSpanCache`, the StIU index, or a
worker process at all — for the sharded engine that also means zero
IPC for the hit.

Admission is frequency-gated (TinyLFU-style) instead of
admit-on-every-miss:

* every lookup feeds a :class:`CountMinSketch` — a few bytes per
  counter, no per-key state, and periodic halving so popularity ages
  out instead of accumulating forever;
* an answer is only **admitted** once its estimated frequency reaches
  :data:`ADMISSION_THRESHOLD` (a one-hit wonder never displaces
  anything);
* at capacity a challenger must beat the LRU victim's estimated
  frequency to evict it — scans of cold queries wash over the cache
  without flushing the hot set.

Keys are the frozen query dataclasses
(:class:`~repro.query.engine.WhereQuery` etc.), so equal queries are
equal keys by construction.  Values are whatever the engine's merge
produced; archives are immutable while serving, so a cached answer is
oracle-identical by definition.  The owner (the sharded engine /
service) is responsible for calling :meth:`clear` whenever that
immutability assumption resets — shard quarantine and re-admission.

Thread-safe; hit/miss/admission/eviction counters export through the
:mod:`repro.obs` registry like every other cache in the codebase.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict

from ..config import env_int
from ..obs import metrics as obs_metrics

#: distinct sentinel: a cached empty answer is a hit, not a miss
MISS = object()

#: lookups a key needs before its answer may be cached
ADMISSION_THRESHOLD = 2

_HASH_MASK = (1 << 64) - 1
_MIX = 0x9E3779B97F4A7C15


def resolve_hotcache_entries(explicit: int | None = None) -> int:
    """Capacity resolution: explicit argument > ``REPRO_HOTCACHE`` > 0.

    0 disables the tier — the default, because a result cache sits
    above the corruption detection (see ``docs/architecture.md``)
    and turning it on is a per-deployment decision.
    """
    if explicit is not None:
        return max(0, int(explicit))
    return env_int("REPRO_HOTCACHE", 0, minimum=0)


class CountMinSketch:
    """Fixed-memory frequency estimator with periodic aging.

    ``depth`` seeded hash rows of ``width`` 32-bit counters; an
    estimate is the minimum across rows (over-counts only, never
    under-counts).  After ``sample_size`` increments every counter is
    halved, so the sketch tracks *recent* popularity — the TinyLFU
    reset that keeps yesterday's hot keys from squatting forever.
    """

    def __init__(
        self, *, width: int = 2048, depth: int = 4,
        sample_size: int = 32768, seed: int = 7,
    ) -> None:
        if width < 16:
            raise ValueError(f"width must be >= 16, got {width}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        self.sample_size = max(width, sample_size)
        self._rows = [array("I", bytes(4 * width)) for _ in range(depth)]
        self._seeds = [
            ((seed + row * 0x51ED2701) * _MIX + 0xB5) & _HASH_MASK
            for row in range(depth)
        ]
        self.increments = 0
        self.ages = 0

    def _indexes(self, key) -> list[int]:
        base = hash(key) & _HASH_MASK
        indexes = []
        for row_seed in self._seeds:
            mixed = ((base ^ row_seed) * _MIX) & _HASH_MASK
            mixed ^= mixed >> 29
            indexes.append(mixed % self.width)
        return indexes

    def add(self, key) -> int:
        """Count one occurrence; returns the new estimate."""
        estimate = _HASH_MASK
        for row, index in zip(self._rows, self._indexes(key)):
            if row[index] < 0xFFFFFFFF:
                row[index] += 1
            estimate = min(estimate, row[index])
        self.increments += 1
        if self.increments >= self.sample_size:
            self._age()
        return estimate

    def estimate(self, key) -> int:
        return min(
            row[index]
            for row, index in zip(self._rows, self._indexes(key))
        )

    def _age(self) -> None:
        for row in self._rows:
            for index in range(self.width):
                row[index] >>= 1
        self.increments //= 2
        self.ages += 1


class HotTrajectoryCache:
    """Frequency-admitted LRU of fully decoded query answers."""

    def __init__(self, capacity: int = 4096, *, register: bool = True) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # four counters and eight aging samples per cached entry
        self.sketch = CountMinSketch(
            width=max(256, 4 * capacity),
            sample_size=max(256, 8 * capacity),
        )
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.rejections = 0
        self.evictions = 0
        if register:
            obs_metrics.get_registry().register_collector(self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key):
        """The cached answer for ``key``, or :data:`MISS`.

        Every lookup — hit or miss — feeds the frequency sketch; the
        miss that comes back as an :meth:`offer` is judged on the
        popularity the lookups established.
        """
        with self._lock:
            self.sketch.add(key)
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def offer(self, key, value) -> bool:
        """Propose a computed answer for caching; True when admitted."""
        with self._lock:
            if key in self._entries:
                self._entries[key] = value
                self._entries.move_to_end(key)
                return True
            frequency = self.sketch.estimate(key)
            if frequency < ADMISSION_THRESHOLD:
                self.rejections += 1
                return False
            if len(self._entries) >= self.capacity:
                victim = next(iter(self._entries))
                if frequency <= self.sketch.estimate(victim):
                    self.rejections += 1
                    return False
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = value
            self.admissions += 1
            return True

    def clear(self) -> None:
        """Drop every cached answer (shard quarantine / re-admission).

        The frequency sketch survives: popularity is still true after
        an invalidation, so the hot set re-admits on first re-offer.
        """
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "admissions": self.admissions,
                "rejections": self.rejections,
                "evictions": self.evictions,
                "resident": len(self._entries),
                "capacity": self.capacity,
                "sketch_ages": self.sketch.ages,
            }

    def collect_metrics(self):
        """Registry-collector view (weak-ref scrape-time pull, so the
        lookup hot path never touches a registry lock)."""
        counts = self.stats()
        for event in ("hits", "misses", "admissions", "rejections",
                      "evictions"):
            yield (
                "counter", f"repro_hotcache_{event}_total", None,
                {"value": float(counts[event])},
            )
        yield (
            "gauge", "repro_hotcache_resident", None,
            {"value": float(counts["resident"])},
        )
