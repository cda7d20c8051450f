"""Concurrent readers against one ``FileBackedArchive``.

The archive serves record reads with positional ``pread`` calls, so a
single shared handle has no seek cursor to race on; the parsed records
live in the query layer's decode cache, whose LRU is guarded by a lock.
These tests hammer one archive through one such cache from a thread
pool — with a budget big enough to hold everything and with a
pathologically tiny one that forces constant eviction and re-reads —
and require every returned record to be identical to a serially-loaded
reference.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.compressor import compress_dataset
from repro.core.decoder import DecodeSpanCache
from repro.io.format import write_archive
from repro.io.reader import ArchiveClosedError, FileBackedArchive
from repro.trajectories.datasets import load_dataset

THREADS = 8
ROUNDS = 60


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    network, trajectories = load_dataset("CD", 20, seed=13, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    path = tmp_path_factory.mktemp("concurrency") / "archive.utcq"
    write_archive(archive, path)
    return path


@pytest.fixture(scope="module")
def reference(archive_path):
    with FileBackedArchive.open(archive_path) as archive:
        return {
            trajectory_id: archive.trajectory(trajectory_id)
            for trajectory_id in archive.trajectory_ids()
        }


def _records_equal(a, b):
    return (
        a.trajectory_id == b.trajectory_id
        and a.time_payload == b.time_payload
        and a.time_payload_bits == b.time_payload_bits
        and a.point_count == b.point_count
        and len(a.instances) == len(b.instances)
        and all(
            x.payload == y.payload and x.payload_bits == y.payload_bits
            for x, y in zip(a.instances, b.instances)
        )
    )


def _cache_holding(records, reference):
    """A decode cache with room for about ``records`` parsed records."""
    probe = DecodeSpanCache(register=False)
    for trajectory_id, record in reference.items():
        probe.record_for(trajectory_id, lambda: record)
    per_record = probe.resident_bytes // len(reference)
    return DecodeSpanCache(budget_bytes=records * per_record, register=False)


def _fetch(cache, archive, trajectory_id):
    return cache.record_for(
        trajectory_id, lambda: archive.trajectory(trajectory_id)
    )


@pytest.mark.parametrize("records", [1000, 2])
def test_thread_pool_hammer(archive_path, reference, records):
    ids = sorted(reference)
    cache = _cache_holding(records, reference)
    with FileBackedArchive.open(archive_path) as archive:

        def worker(seed):
            rng = random.Random(seed)
            bad = 0
            for _ in range(ROUNDS):
                trajectory_id = rng.choice(ids)
                loaded = _fetch(cache, archive, trajectory_id)
                if not _records_equal(loaded, reference[trajectory_id]):
                    bad += 1
            return bad

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            corrupt = sum(pool.map(worker, range(THREADS)))
    assert corrupt == 0
    stats = cache.stats()["records"]
    assert stats["hits"] + stats["misses"] == THREADS * ROUNDS
    assert cache.resident_bytes <= cache.budget_bytes
    if records == 2:
        assert stats["evictions"] > 0


@pytest.mark.parametrize("records", [1000, 2])
def test_time_span_and_trajectory_mixed_across_threads(
    archive_path, reference, records
):
    """The span table is filled by both calls; whatever the interleaving,
    every span equals the single-threaded one and no record is damaged."""
    ids = sorted(reference)
    spans = {i: (reference[i].start_time, reference[i].end_time) for i in ids}
    cache = _cache_holding(records, reference)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with FileBackedArchive.open(archive_path) as archive:

            def worker(seed):
                rng = random.Random(seed)
                bad = 0
                for _ in range(ROUNDS):
                    trajectory_id = rng.choice(ids)
                    if rng.random() < 0.5:
                        bad += archive.time_span(trajectory_id) != spans[
                            trajectory_id
                        ]
                    else:
                        bad += not _records_equal(
                            _fetch(cache, archive, trajectory_id),
                            reference[trajectory_id],
                        )
                return bad

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                wrong = sum(pool.map(worker, range(THREADS)))
            assert {i: archive.time_span(i) for i in ids} == spans
    finally:
        sys.setswitchinterval(interval)
    assert wrong == 0


def test_concurrent_iteration_and_random_access(archive_path, reference):
    ids = sorted(reference)
    cache = _cache_holding(3, reference)
    with FileBackedArchive.open(archive_path) as archive:

        def iterate(_):
            return sum(1 for _ in archive.trajectories)

        def poke(seed):
            rng = random.Random(seed)
            for _ in range(ROUNDS):
                _fetch(cache, archive, rng.choice(ids))
            return len(ids)

        with ThreadPoolExecutor(max_workers=6) as pool:
            counts = list(pool.map(iterate, range(3)))
            counts += list(pool.map(poke, range(3)))
    assert all(count == len(ids) for count in counts)


def test_closed_archive_raises_for_all_threads(archive_path, reference):
    ids = sorted(reference)
    archive = FileBackedArchive.open(archive_path)
    archive.close()

    def read(_):
        try:
            archive.trajectory(ids[0])
        except ArchiveClosedError:
            return True
        return False

    with ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(read, range(8)))
    assert all(outcomes)
