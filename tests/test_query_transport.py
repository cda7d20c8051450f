"""Pool result transport: the answer codec, and the pool over it.

The pins, in order of blast radius:

* the binary answer codec round-trips every result shape bit-exactly
  (``struct`` doubles are lossless), refuses anything else, and raises
  :class:`TransportError` for any blob that is not exactly one encoded
  answer list — truncated, or with bytes left over;
* the sharded engine's pool, whose workers return that codec's bytes
  through the executor's own pipe, produces oracle-identical answers,
  also across a worker crash and a pool restart;
* close() and restart() never wait on a wedged worker.
"""

import os

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.query import StIUIndex, ShardedQueryEngine, save_index
from repro.query.queries import WhenResult, WhereResult
from repro.query.transport import (
    TransportError,
    UnencodableAnswers,
    decode_answers_blob,
    encode_answers,
)
from repro.trajectories.datasets import load_dataset

from test_query_engine import pool_sized_queries


# ----------------------------------------------------------------------
# answer codec
# ----------------------------------------------------------------------
WHERE = [
    WhereResult(7, 0, (3, 9), 0.1, 0.5),
    WhereResult(7, 1, (-2, 11), 0.9999999999999999, 1e-300),
]
WHEN = [WhenResult(4, 2, 1234.5678, 0.25)]
RANGE = [1, 5, 9, 2**40]


class TestAnswerCodec:
    def test_round_trip_every_shape(self):
        answers = [WHERE, WHEN, RANGE, []]
        assert decode_answers_blob(encode_answers(answers)) == answers

    def test_floats_are_bit_exact(self):
        value = 0.1 + 0.2  # famously not 0.3
        blob = encode_answers([[WhereResult(1, 0, (0, 1), value, value)]])
        (decoded,) = decode_answers_blob(blob)[0:1]
        assert decoded[0].ndist == value
        assert decoded[0].probability == value

    def test_empty_batch(self):
        assert decode_answers_blob(encode_answers([])) == []

    def test_unencodable_shapes_are_refused(self):
        with pytest.raises(UnencodableAnswers):
            encode_answers([["a string answer"]])
        with pytest.raises(UnencodableAnswers):
            encode_answers(["not-a-list"])
        with pytest.raises(UnencodableAnswers):
            encode_answers([[{"dict": 1}]])

    def test_truncated_blob_is_typed(self):
        blob = encode_answers([WHERE])
        with pytest.raises(TransportError):
            decode_answers_blob(blob[: len(blob) - 4])

    def test_trailing_bytes_are_typed(self):
        blob = encode_answers([RANGE])
        with pytest.raises(TransportError, match="trailing"):
            decode_answers_blob(blob + b"junk")
        with pytest.raises(TransportError, match="trailing"):
            decode_answers_blob(memoryview(blob + b"\x00"))

    def test_decodes_from_memoryview(self):
        blob = encode_answers([RANGE])
        assert decode_answers_blob(memoryview(blob)) == [RANGE]


# ----------------------------------------------------------------------
# the engine over real worker processes
# ----------------------------------------------------------------------
SHARDS = 2


class RecordingPool:
    """Forwarding pool stand-in that notes, parent side, the type of
    every task payload handed to ``decode``."""

    def __init__(self, inner):
        self.inner = inner
        self.types = []

    def decode(self, payload):
        self.types.append(type(payload))
        return self.inner.decode(payload)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture(scope="module")
def sharded_world(tmp_path_factory):
    network, trajectories = load_dataset("CD", 16, seed=29, network_scale=9)
    archive = compress_dataset(network, trajectories, default_interval=10)
    root = tmp_path_factory.mktemp("transport")
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
    # past POOL_MIN_EXECUTIONS: a smaller request never leaves the
    # calling process, and everything below is about the pool's plane
    queries = pool_sized_queries(network, trajectories, shard_paths, seed=13)
    return network, shard_paths, queries


class TestEngineTransports:
    def test_pool_matches_single_process_oracle(self, sharded_world):
        network, shard_paths, queries = sharded_world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as oracle:
            expected = oracle.run(queries)
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            engine.pool = recording = RecordingPool(engine.pool)
            assert engine.run(queries) == expected
            assert engine.run(queries) == expected
            # every task came back as codec bytes, one per shard task
            assert recording.types == [bytes] * (2 * SHARDS)

    def test_worker_crash_then_restart_sweeps_and_recovers(
        self, sharded_world
    ):
        import signal
        import time

        from repro.query.engine import WorkerPoolBroken

        network, shard_paths, queries = sharded_world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            expected = engine.run(queries)
            os.kill(engine.pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    engine.run(queries)
                except WorkerPoolBroken:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("killed worker never surfaced")
            engine.restart_pool()
            assert engine.run(queries) == expected
            assert engine.pool.generation >= 1


# ----------------------------------------------------------------------
# abandoned executors must die even with a wedged worker
# ----------------------------------------------------------------------
def _wedge_worker(seconds):
    """Stand-in for a worker stuck mid-item (e.g. on a lock copied
    locked at fork): sleeps far past any test timeout."""
    import time

    time.sleep(seconds)
    return seconds


def _dead_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


def _assert_workers_die(pids, *, timeout=10.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(_dead_or_zombie(pid) for pid in pids):
            return
        time.sleep(0.05)
    alive = [pid for pid in pids if not _dead_or_zombie(pid)]
    pytest.fail(f"worker processes survived teardown: {alive}")


class TestPoolTeardown:
    """``shutdown(wait=False)`` only asks: the executor's manager
    thread withholds exit sentinels while any item is unfinished, so a
    wedged worker would keep the manager alive and hang interpreter
    exit on its atexit join.  close() and restart() therefore SIGKILL
    the abandoned generation outright."""

    def test_close_kills_workers_stuck_on_an_item(self, sharded_world):
        import time
        from concurrent.futures import wait as futures_wait

        network, shard_paths, queries = sharded_world
        engine = ShardedQueryEngine(shard_paths, network=network, workers=2)
        engine.run(queries)  # workers spawned and warm
        pids = engine.pool.worker_pids()
        assert pids
        future = engine.pool.submit_call(_wedge_worker, 600.0)
        time.sleep(0.3)  # let a worker pick the item up
        started = time.monotonic()
        engine.close()
        assert time.monotonic() - started < 5.0  # close never waits
        _assert_workers_die(pids)
        # the wedged item's future resolves (broken), it never hangs
        done, _ = futures_wait([future], timeout=10.0)
        assert future in done

    def test_restart_kills_previous_generation(self, sharded_world):
        import time

        network, shard_paths, queries = sharded_world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            expected = engine.run(queries)
            old_pids = engine.pool.worker_pids()
            assert old_pids
            engine.pool.submit_call(_wedge_worker, 600.0)
            time.sleep(0.3)
            engine.restart_pool()
            _assert_workers_die(old_pids)
            # the respawned generation still answers correctly
            assert engine.run(queries) == expected
