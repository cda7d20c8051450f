"""Zipf-aware hot-answer cache: sketch, admission policy, engine tier.

The design pins:

* the count-min sketch only ever over-counts, and ages so yesterday's
  popularity decays;
* admission is frequency-gated — a one-hit wonder never enters, a
  cold scan never flushes the hot set;
* ``clear()`` drops answers but keeps popularity, so the hot set
  re-admits on the first re-offer after an invalidation;
* with the tier on, the engine's answers are bit-identical to a run
  without it — the cache changes cost, never results.
"""

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.query import StIUIndex, ShardedQueryEngine, save_index
from repro.query.hotcache import (
    MISS,
    CountMinSketch,
    HotTrajectoryCache,
    resolve_hotcache_entries,
)
from repro.trajectories.datasets import load_dataset

from test_query_engine import make_queries, pool_sized_queries


class TestResolveEntries:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOTCACHE", raising=False)
        assert resolve_hotcache_entries() == 0

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOTCACHE", "128")
        assert resolve_hotcache_entries() == 128

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOTCACHE", "128")
        assert resolve_hotcache_entries(16) == 16

    def test_garbage_env_raises(self, monkeypatch):
        from repro.config import ConfigError

        monkeypatch.setenv("REPRO_HOTCACHE", "many")
        with pytest.raises(ConfigError, match="REPRO_HOTCACHE"):
            resolve_hotcache_entries()


class TestCountMinSketch:
    def test_never_undercounts(self):
        sketch = CountMinSketch(width=64, depth=4, sample_size=10**6)
        for key in range(100):
            for _ in range(key % 5 + 1):
                sketch.add(key)
        for key in range(100):
            assert sketch.estimate(key) >= key % 5 + 1

    def test_unseen_key_estimates_near_zero(self):
        sketch = CountMinSketch(width=2048, depth=4)
        sketch.add("hot")
        assert sketch.estimate("never-seen") <= 1

    def test_aging_halves_counts(self):
        sketch = CountMinSketch(width=16, depth=2, sample_size=16)
        for _ in range(12):
            sketch.add("hot")
        before = sketch.estimate("hot")
        for i in range(16):
            sketch.add(("filler", i))
        assert sketch.ages >= 1
        assert sketch.estimate("hot") < before

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            CountMinSketch(width=1)
        with pytest.raises(ValueError):
            CountMinSketch(depth=0)


class TestAdmissionPolicy:
    def make(self, capacity=4):
        return HotTrajectoryCache(capacity, register=False)

    def test_one_hit_wonder_is_rejected(self):
        cache = self.make()
        assert cache.get("q") is MISS
        assert not cache.offer("q", ["answer"])
        assert cache.get("q") is MISS
        assert cache.stats()["rejections"] == 1

    def test_second_touch_admits(self):
        cache = self.make()
        cache.get("q")
        cache.get("q")
        assert cache.offer("q", ["answer"])
        assert cache.get("q") == ["answer"]
        assert cache.stats()["hits"] == 1

    def test_cached_empty_answer_is_a_hit_not_a_miss(self):
        cache = self.make()
        cache.get("q")
        cache.get("q")
        cache.offer("q", [])
        assert cache.get("q") == []
        assert cache.get("q") is not MISS

    def test_cold_scan_cannot_flush_the_hot_set(self):
        cache = self.make(capacity=2)
        for key in ("hot1", "hot2"):
            for _ in range(10):
                cache.get(key)
            assert cache.offer(key, [key])
        # a stream of once-seen keys: none admitted, nothing evicted
        for i in range(50):
            key = ("cold", i)
            cache.get(key)
            cache.get(key)  # meets the threshold, but...
            cache.offer(key, [key])  # ...must beat the LRU victim
        assert cache.get("hot1") == ["hot1"]
        assert cache.get("hot2") == ["hot2"]
        assert cache.stats()["evictions"] == 0

    def test_hotter_challenger_evicts_the_lru_victim(self):
        cache = self.make(capacity=1)
        cache.get("old")
        cache.get("old")
        cache.offer("old", ["old"])
        for _ in range(8):
            cache.get("new")
        assert cache.offer("new", ["new"])
        assert cache.stats()["evictions"] == 1
        assert cache.get("old") is MISS
        assert cache.get("new") == ["new"]

    def test_clear_drops_answers_but_keeps_popularity(self):
        cache = self.make()
        for _ in range(5):
            cache.get("q")
        cache.offer("q", ["answer"])
        cache.clear()
        assert len(cache) == 0
        assert cache.get("q") is MISS
        # popularity survived: the very next offer re-admits
        assert cache.offer("q", ["answer"])
        assert cache.get("q") == ["answer"]

    def test_metrics_collector_shape(self):
        cache = self.make()
        cache.get("q")
        names = {name for _, name, _, _ in cache.collect_metrics()}
        assert "repro_hotcache_hits_total" in names
        assert "repro_hotcache_resident" in names


# ----------------------------------------------------------------------
# the engine tier
# ----------------------------------------------------------------------
SHARDS = 2


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("CD", 16, seed=31, network_scale=9)


@pytest.fixture(scope="module")
def sharded_world(dataset, tmp_path_factory):
    network, trajectories = dataset
    archive = compress_dataset(network, trajectories, default_interval=10)
    root = tmp_path_factory.mktemp("hotcache")
    shard_paths = []
    total = len(archive.trajectories)
    for shard in range(SHARDS):
        lo = shard * total // SHARDS
        hi = (shard + 1) * total // SHARDS
        part = CompressedArchive(
            params=archive.params, trajectories=archive.trajectories[lo:hi]
        )
        path = root / f"shard-{shard}.utcq"
        part.save(path)
        save_index(StIUIndex(network, part), path)
        shard_paths.append(path)
    queries = make_queries(network, trajectories, count=8, seed=17)
    return network, shard_paths, queries


class TestEngineHotcache:
    def test_off_by_default(self, sharded_world, monkeypatch):
        monkeypatch.delenv("REPRO_HOTCACHE", raising=False)
        network, shard_paths, _ = sharded_world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as engine:
            assert engine.hotcache is None

    def test_cached_answers_are_oracle_identical(self, sharded_world):
        network, shard_paths, queries = sharded_world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as oracle:
            expected = oracle.run(queries)
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1, hotcache_entries=64
        ) as engine:
            # run 1 establishes popularity, run 2 admits, run 3 hits
            for _ in range(3):
                assert engine.run(queries) == expected
            stats = engine.hotcache.stats()
            assert stats["admissions"] > 0
            assert stats["hits"] > 0

    def test_hits_skip_the_worker_pool_entirely(self, dataset, sharded_world):
        network, shard_paths, _ = sharded_world
        # big enough to be routed to the pool, in a cache that holds it
        queries = pool_sized_queries(*dataset, shard_paths, seed=17)

        class CountingPool:
            """Duck-typed stand-in counting shard submissions."""

            def __init__(self, inner):
                self.inner = inner
                self.submits = 0

            def submit(self, path, specs, **kwargs):
                self.submits += 1
                return self.inner.submit(path, specs, **kwargs)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        with ShardedQueryEngine(
            shard_paths, network=network, workers=2, hotcache_entries=1024
        ) as engine:
            counting = CountingPool(engine.pool)
            engine.pool = counting
            first = engine.run(queries)
            engine.run(queries)
            before = counting.submits
            assert before == 2 * SHARDS  # both runs went to the pool
            assert engine.run(queries) == first
            assert counting.submits == before  # all answers from cache

    def test_clear_hotcache_forces_recompute(self, sharded_world):
        network, shard_paths, queries = sharded_world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1, hotcache_entries=64
        ) as engine:
            for _ in range(3):
                expected = engine.run(queries)
            engine.clear_hotcache()
            assert len(engine.hotcache) == 0
            assert engine.run(queries) == expected
