"""Shared-memory result transport: codec, slab protocol, lifecycle.

The pins, in order of blast radius:

* the binary answer codec round-trips every result shape bit-exactly
  (``struct`` doubles are lossless) and refuses anything else;
* a descriptor is only ever trusted after full validation — stale
  generation, forged offsets, overwritten entries, and torn writes all
  raise :class:`TransportError`, never return wrong answers;
* the parent owns slab lifecycle: ``close()`` and generation
  invalidation leave ``/dev/shm`` empty, including slabs of workers
  that died without answering;
* the sharded engine produces oracle-identical answers whether a
  task's answers come back as a slab descriptor or — no slab, or an
  answer larger than the slab — inline.
"""

import os

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.query import StIUIndex, ShardedQueryEngine, save_index
from repro.query.queries import WhenResult, WhereResult
from repro.query import transport as query_transport
from repro.query.engine import DISPATCH_WINDOW
from repro.query.transport import (
    SLAB_KEEP,
    TAG_INLINE,
    TAG_SHM,
    SlabReaderPool,
    SlabWriter,
    TransportError,
    UnencodableAnswers,
    decode_answers_blob,
    decode_payload,
    encode_answers,
    list_arena_slabs,
    new_arena_id,
    slab_name,
    tag_descriptor,
    tag_inline,
)
from repro.serve.chaos import tear_slab_entry
from repro.trajectories.datasets import load_dataset

from test_query_engine import pool_sized_queries

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory is not file-backed here",
)


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

    def test_decodes_from_memoryview(self):
        blob = encode_answers([RANGE])
        assert decode_answers_blob(memoryview(blob)) == [RANGE]


# ----------------------------------------------------------------------
# slab writer + reader validation
# ----------------------------------------------------------------------
@pytest.fixture
def arena():
    arena = new_arena_id()
    yield arena
    for name in list_arena_slabs(arena):
        from repro.query.transport import unlink_slab

        unlink_slab(name)


def make_pair(arena, *, generation=0, size=256 * 1024, keep=4):
    writer = SlabWriter(arena, generation=generation, size=size, keep=keep)
    reader = SlabReaderPool(arena, generation=generation)
    return writer, reader


class TestSlabProtocol:
    def test_write_then_decode_round_trips(self, arena):
        writer, reader = make_pair(arena)
        try:
            answers = [WHERE, WHEN, RANGE, []]
            descriptor = writer.write(encode_answers(answers))
            assert descriptor is not None
            assert descriptor["slab"] == writer.name
            assert reader.decode(descriptor) == answers
        finally:
            writer.close()
            reader.close()

    def test_many_writes_each_descriptor_valid(self, arena):
        writer, reader = make_pair(arena)
        try:
            descriptors = []
            for i in range(writer.keep):
                descriptors.append(writer.write(encode_answers([[i]])))
            for i, descriptor in enumerate(descriptors):
                assert reader.decode(descriptor) == [[i]]
        finally:
            writer.close()
            reader.close()

    def test_torn_write_fails_crc(self, arena):
        writer, reader = make_pair(arena)
        try:
            descriptor = writer.write(encode_answers([RANGE]))
            tear_slab_entry(writer, descriptor)
            with pytest.raises(TransportError, match="CRC|torn"):
                reader.decode(descriptor)
        finally:
            writer.close()
            reader.close()

    def test_stale_generation_is_rejected(self, arena):
        writer = SlabWriter(arena, generation=0, size=256 * 1024)
        reader = SlabReaderPool(arena, generation=1)
        try:
            descriptor = writer.write(encode_answers([RANGE]))
            with pytest.raises(TransportError, match="stale"):
                reader.decode(descriptor)
        finally:
            writer.close()
            reader.close()

    def test_forged_offset_is_rejected(self, arena):
        writer, reader = make_pair(arena)
        try:
            descriptor = writer.write(encode_answers([RANGE]))
            forged = {**descriptor, "offset": writer.size + 64}
            with pytest.raises(TransportError, match="bounds"):
                reader.decode(forged)
            shifted = {**descriptor, "offset": descriptor["offset"] + 8}
            with pytest.raises(TransportError):
                reader.decode(shifted)
        finally:
            writer.close()
            reader.close()

    def test_overwritten_entry_is_detected(self, arena):
        # tiny slab, tiny keep: old entries get overwritten quickly
        writer, reader = make_pair(arena, size=64 * 1024, keep=1)
        try:
            stale = writer.write(encode_answers([RANGE]))
            blob = encode_answers([list(range(4000))])
            for _ in range(40):  # wrap the slab several times over
                assert writer.write(blob) is not None
            with pytest.raises(TransportError):
                reader.decode(stale)
        finally:
            writer.close()
            reader.close()

    def test_protected_tail_is_never_overwritten(self, arena):
        writer, reader = make_pair(arena, size=64 * 1024, keep=8)
        try:
            blob = encode_answers([list(range(500))])
            window = []
            for i in range(200):
                descriptor = writer.write(blob)
                assert descriptor is not None
                window.append(descriptor)
                window = window[-writer.keep :]
                # the most recent ``keep`` descriptors always validate
                for held in window:
                    reader.decode(held)
        finally:
            writer.close()
            reader.close()

    def test_oversized_payload_refused_not_torn(self, arena):
        writer, reader = make_pair(arena, size=64 * 1024)
        try:
            assert writer.write(b"x" * (128 * 1024)) is None
        finally:
            writer.close()
            reader.close()

    def test_malformed_descriptor_is_typed(self, arena):
        _, reader = make_pair(arena)
        try:
            with pytest.raises(TransportError):
                reader.decode({"slab": "x"})
            with pytest.raises(TransportError):
                reader.decode(None)
        finally:
            reader.close()

    def test_missing_slab_is_typed(self, arena):
        _, reader = make_pair(arena)
        try:
            with pytest.raises(TransportError, match="gone"):
                reader.decode(
                    {
                        "slab": slab_name(arena, 0, 999999),
                        "offset": 0,
                        "length": 8,
                        "generation": 0,
                        "seq": 0,
                        "crc": 0,
                    }
                )
        finally:
            reader.close()


class TestPayloadTagging:
    def test_plain_payload_passes_through(self):
        assert decode_payload([[1, 2]], None) == [[1, 2]]

    def test_inline_tag_unwraps(self):
        assert decode_payload(tag_inline([WHERE]), None) == [WHERE]

    def test_descriptor_without_reader_is_typed(self):
        with pytest.raises(TransportError, match="no slab reader"):
            decode_payload(tag_descriptor({"slab": "x"}), None)


# ----------------------------------------------------------------------
# lifecycle: /dev/shm hygiene under close, crash, and respawn
# ----------------------------------------------------------------------
class TestSlabLifecycle:
    def test_close_unlinks_every_slab(self, arena):
        writer, reader = make_pair(arena)
        descriptor = writer.write(encode_answers([RANGE]))
        reader.decode(descriptor)  # reader is attached now
        writer.close()
        assert list_arena_slabs(arena)  # alive until the parent sweeps
        reader.close()
        assert list_arena_slabs(arena) == []

    def test_close_sweeps_slabs_never_decoded(self, arena):
        # a worker that crashed before answering once: the parent never
        # attached its slab, the /dev/shm scan still reclaims it
        writer = SlabWriter(arena, generation=0, size=256 * 1024)
        writer.write(encode_answers([RANGE]))
        writer.close()
        reader = SlabReaderPool(arena, generation=0)
        assert reader.close() == 1
        assert list_arena_slabs(arena) == []

    def test_invalidate_sweeps_dead_generations_only(self, arena):
        old = SlabWriter(arena, generation=0, size=256 * 1024)
        live = SlabWriter(arena, generation=1, size=256 * 1024)
        reader = SlabReaderPool(arena, generation=0)
        try:
            stale = old.write(encode_answers([RANGE]))
            reader.decode(stale)
            assert reader.invalidate(new_generation=1) == 1
            assert list_arena_slabs(arena) == [live.name]
            # the stale descriptor can never validate again
            with pytest.raises(TransportError, match="stale"):
                reader.decode(stale)
            fresh = live.write(encode_answers([RANGE]))
            assert reader.decode(fresh) == [RANGE]
        finally:
            old.close()
            live.close()
            assert reader.close() == 1
            assert list_arena_slabs(arena) == []


# ----------------------------------------------------------------------
# the engine over real worker processes: descriptors and inline payloads
# ----------------------------------------------------------------------
SHARDS = 2


class RecordingPool:
    """Forwarding pool stand-in that notes, parent side, the tag of
    every task payload handed to ``decode``."""

    def __init__(self, inner):
        self.inner = inner
        self.tags = []

    def decode(self, payload):
        self.tags.append(payload[0])
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
    def test_both_transports_match_single_process_oracle(
        self, sharded_world, monkeypatch
    ):
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
            assert set(recording.tags) == {TAG_SHM}

        # a host where no slab can be created: the patch is in place
        # before the pool forks, so every worker falls back to inline
        def no_shared_memory(self, *args, **kwargs):
            raise OSError("no shared memory on this host")

        monkeypatch.setattr(SlabWriter, "__init__", no_shared_memory)
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            engine.pool = recording = RecordingPool(engine.pool)
            arena = engine.pool.transport_arena
            assert engine.run(queries) == expected
            assert list_arena_slabs(arena) == []
            assert engine.run(queries) == expected
            assert set(recording.tags) == {TAG_INLINE}
        assert list_arena_slabs(arena) == []

    def test_answer_larger_than_the_slab_rides_inline(
        self, sharded_world, monkeypatch
    ):
        network, shard_paths, queries = sharded_world
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as oracle:
            expected = oracle.run(queries)
            blob_sizes = sorted(
                len(encode_answers(oracle.run_local(path, specs)))
                for path, specs in oracle.plan(queries).tasks.items()
            )
        assert blob_sizes[0] < blob_sizes[-1]  # the fixture's shards differ
        # room for every shard's answers but the largest, by one byte
        monkeypatch.setattr(
            query_transport,
            "SLAB_BYTES",
            query_transport._HEADER.size + blob_sizes[-1] - 1,
        )
        with ShardedQueryEngine(
            shard_paths, network=network, workers=2
        ) as engine:
            engine.pool = recording = RecordingPool(engine.pool)
            arena = engine.pool.transport_arena
            assert engine.run(queries) == expected
            assert engine.run(queries) == expected
            assert {TAG_SHM, TAG_INLINE} <= set(recording.tags)
        assert list_arena_slabs(arena) == []

    def test_hedged_window_fits_inside_the_protected_tail(self):
        # a worker may be handed, before the parent reads any of them,
        # one task per dispatch slot plus one hedge each; none of those
        # descriptors may point at bytes the writer is free to reuse
        assert 2 * DISPATCH_WINDOW < SLAB_KEEP

    def test_engine_close_leaves_no_shm_residue(self, sharded_world):
        network, shard_paths, queries = sharded_world
        engine = ShardedQueryEngine(shard_paths, network=network, workers=2)
        arena = engine.pool.transport_arena
        engine.run(queries)
        assert list_arena_slabs(arena)  # workers materialised slabs
        engine.close()
        assert list_arena_slabs(arena) == []

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
            arena = engine.pool.transport_arena
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
            generation = engine.pool.generation
            assert generation >= 1
            # every surviving slab belongs to the live generation
            for name in list_arena_slabs(arena):
                assert f"-g{generation}-" in name
        assert list_arena_slabs(arena) == []


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
