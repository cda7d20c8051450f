"""Acceptance: queries over a file-backed archive match the in-memory path."""

import gc
import io
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StIUIndex, UTCQQueryProcessor
from repro.core import compress_dataset
from repro.core.archive import CompressedArchive
from repro.core.decoder import DecodeSpanCache
from repro.io import (
    ArchiveClosedError,
    CorruptArchiveError,
    FileBackedArchive,
    read_header,
    write_archive,
)
from repro.network.grid import Rect
from repro.query import (
    BatchQueryEngine,
    BruteForceOracle,
    RangeQuery,
    save_index,
)
from repro.stream import AppendableArchiveWriter, LiveArchive
from repro.stream.compaction import SizeTieredPolicy, drain_compactions
from repro.trajectories.datasets import CD, load_dataset


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    network, trajectories = load_dataset("CD", 20, seed=21, network_scale=12)
    archive = compress_dataset(
        network, trajectories, default_interval=CD.default_interval
    )
    path = tmp_path_factory.mktemp("archives") / "cd.utcq"
    write_archive(archive, path)
    return network, trajectories, archive, path


@pytest.fixture(scope="module")
def processors(setup):
    network, trajectories, archive, path = setup
    memory_index = StIUIndex(network, archive)
    memory = UTCQQueryProcessor(network, archive, memory_index)
    lazy = FileBackedArchive.open(path)
    file_index = StIUIndex(network, lazy)
    # a few trajectories' worth of records and spans, no more
    file_backed = UTCQQueryProcessor(
        network, lazy, file_index, cache=DecodeSpanCache(budget_bytes=16384)
    )
    yield memory, file_backed, trajectories
    lazy.close()


def test_over_file_classmethod(setup):
    network, _, archive, path = setup
    index = StIUIndex.over_file(network, path)
    try:
        assert isinstance(index.archive, FileBackedArchive)
        memory_index = StIUIndex(network, archive)
        assert index.temporal.keys() == memory_index.temporal.keys()
        assert index.size_bytes() == memory_index.size_bytes()
    finally:
        index.archive.close()


def test_where_matches_in_memory(processors):
    memory, file_backed, trajectories = processors
    for trajectory in trajectories[:8]:
        t = (trajectory.start_time + trajectory.end_time) // 2
        expected = memory.where(trajectory.trajectory_id, t, alpha=0.1)
        actual = file_backed.where(trajectory.trajectory_id, t, alpha=0.1)
        assert actual == expected
        assert expected, f"empty where result for {trajectory.trajectory_id}"


def test_when_matches_in_memory(processors):
    memory, file_backed, trajectories = processors
    answered = 0
    for trajectory in trajectories[:8]:
        t = (trajectory.start_time + trajectory.end_time) // 2
        for location in memory.where(trajectory.trajectory_id, t, alpha=0.1):
            expected = memory.when(
                trajectory.trajectory_id, location.edge, 0.5, alpha=0.1
            )
            actual = file_backed.when(
                trajectory.trajectory_id, location.edge, 0.5, alpha=0.1
            )
            assert actual == expected
            answered += len(expected)
            break
    assert answered > 0


def test_range_matches_in_memory(setup, processors):
    network, _, _, _ = setup
    memory, file_backed, trajectories = processors
    box = network.bounding_box()
    rect = Rect(box.min_x, box.min_y, box.max_x, box.max_y)
    t = trajectories[0].times[len(trajectories[0].times) // 2]
    expected = memory.range(rect, t, alpha=0.2)
    actual = file_backed.range(rect, t, alpha=0.2)
    assert actual == expected
    assert expected, "whole-network range query returned nothing"


def test_lazy_cache_stays_bounded(processors):
    _, file_backed, trajectories = processors
    for trajectory in trajectories:
        t = (trajectory.start_time + trajectory.end_time) // 2
        file_backed.where(trajectory.trajectory_id, t, alpha=0.5)
    cache = file_backed.cache
    assert cache.resident_bytes <= cache.budget_bytes
    # queries hold records in their trajectory blocks, and those leave
    assert cache.stats()["times"]["evictions"] > 0
    # the reader itself keeps nothing: every read parses afresh
    first = trajectories[0].trajectory_id
    archive = file_backed.archive
    assert archive.trajectory(first) is not archive.trajectory(first)


def test_file_backed_build_keeps_no_record(setup, monkeypatch):
    """A StIU build over a file holds one parsed record at a time: once
    it is done, nothing — reader or index — keeps any of them."""
    import repro.io.reader as reader_module

    network, _, archive, path = setup
    parsed = []
    real_decode = reader_module.decode_trajectory_record

    def tracked(*args):
        trajectory = real_decode(*args)
        parsed.append(weakref.ref(trajectory))
        return trajectory

    monkeypatch.setattr(reader_module, "decode_trajectory_record", tracked)
    with FileBackedArchive.open(path) as lazy:
        index = StIUIndex(network, lazy)
        gc.collect()
        assert len(parsed) == archive.trajectory_count
        assert all(ref() is None for ref in parsed)
        assert index.size_bytes() == StIUIndex(network, archive).size_bytes()


def test_lifecycle_hygiene(setup):
    """Regression: double close and use-after-close raise a clear
    ArchiveClosedError, not a cryptic I/O failure."""
    from repro.io import ArchiveClosedError

    _, _, _, path = setup
    archive = FileBackedArchive.open(path)
    first_id = archive.trajectory_ids()[0]
    archive.trajectory(first_id)
    assert not archive.closed
    archive.close()
    assert archive.closed
    with pytest.raises(ArchiveClosedError, match="closed"):
        archive.trajectory(first_id)
    with pytest.raises(ArchiveClosedError, match="closed"):
        list(archive.trajectories)
    with pytest.raises(ArchiveClosedError, match="already closed"):
        archive.close()


def test_context_manager_tolerates_inner_close(setup):
    """Closing inside a with-block must not make __exit__ blow up."""
    _, _, _, path = setup
    with FileBackedArchive.open(path) as archive:
        archive.close()
    assert archive.closed


# ----------------------------------------------------------------------
# time_span: the header-only accessor range() prunes on
# ----------------------------------------------------------------------
def _spans(archive, ids):
    return {i: archive.time_span(i) for i in ids}


def test_time_span_agrees_with_trajectory_on_every_archive_kind(
    setup, tmp_path, monkeypatch
):
    import repro.io.reader as reader_module

    network, trajectories, archive, path = setup
    ids = [t.trajectory_id for t in archive.trajectories]
    expected = {
        t.trajectory_id: (t.start_time, t.end_time)
        for t in archive.trajectories
    }
    assert _spans(archive, ids) == expected

    parses = []
    real_decode = reader_module.decode_trajectory_record
    monkeypatch.setattr(
        reader_module,
        "decode_trajectory_record",
        lambda *args: parses.append(1) or real_decode(*args),
    )
    with FileBackedArchive.open(path) as lazy:
        assert _spans(lazy, ids) == expected
        # answered without a single full record parse
        assert parses == []
        assert all(
            lazy.time_span(i)
            == (lazy.trajectory(i).start_time, lazy.trajectory(i).end_time)
            for i in ids
        )

    # streams without a file descriptor take the seek+read path
    stream = io.BytesIO(path.read_bytes())
    with FileBackedArchive(stream, read_header(stream)) as in_memory_file:
        assert _spans(in_memory_file, ids) == expected

    directory = tmp_path / "fleet"
    with AppendableArchiveWriter(
        directory,
        network,
        default_interval=CD.default_interval,
        segment_max_trajectories=3,
    ) as writer:
        for trajectory in trajectories:
            writer.append(trajectory)
    with LiveArchive(directory) as live:
        live_expected = {
            i: (live.trajectory(i).start_time, live.trajectory(i).end_time)
            for i in live.trajectory_ids()
        }
        assert sorted(live_expected) == sorted(ids)
        segments_before = live.segment_count
        assert _spans(live, ids) == live_expected
        drain_compactions(
            directory, policy=SizeTieredPolicy(min_merge=2), network=network
        )
        live.refresh()
        assert live.segment_count < segments_before
        assert _spans(live, ids) == live_expected
        with pytest.raises(KeyError):
            live.time_span(max(ids) + 1)


def test_time_span_checks_the_record_like_a_full_load(setup, tmp_path):
    """A flipped byte anywhere in a record must not silently mis-prune:
    the header-only read runs the same CRC check as ``trajectory()``."""
    _, _, _, path = setup
    data = path.read_bytes()
    with FileBackedArchive.open(path) as clean:
        entry = clean.header.directory[3]
    bad = tmp_path / "flipped.utcq"
    for offset in range(entry.offset, entry.offset + entry.length):
        damaged = bytearray(data)
        damaged[offset] ^= 0x40
        bad.write_bytes(bytes(damaged))
        with FileBackedArchive.open(bad) as archive:
            with pytest.raises(CorruptArchiveError):
                archive.time_span(entry.trajectory_id)
            # the neighbours are untouched
            archive.time_span(clean.header.directory[2].trajectory_id)


def test_time_span_lifecycle_and_unknown_ids(setup, tmp_path):
    network, trajectories, archive, path = setup
    lazy = FileBackedArchive.open(path)
    first_id = lazy.trajectory_ids()[0]
    lazy.time_span(first_id)
    with pytest.raises(KeyError):
        lazy.time_span(10**9)
    lazy.close()
    with pytest.raises(ArchiveClosedError, match="closed"):
        lazy.time_span(first_id)  # memoised, and still refused

    # an index that names trajectories the archive lacks is a defect,
    # not an unknown id in a query: the range raises, it is not
    # answered [] (the engine's KeyError contract covers where/when
    # naming an id the archive does not hold, and nothing else)
    half = tmp_path / "half.utcq"
    write_archive(
        CompressedArchive(
            params=archive.params, trajectories=archive.trajectories[:10]
        ),
        half,
    )
    box = network.bounding_box()
    rect = Rect(box.min_x, box.min_y, box.max_x, box.max_y)
    t = trajectories[-1].start_time
    with FileBackedArchive.open(half) as partial:
        engine = BatchQueryEngine(network, partial, StIUIndex(network, archive))
        with pytest.raises(KeyError):
            engine.run([RangeQuery(rect, t, 0.0)])


# ----------------------------------------------------------------------
# the mechanism, as an exact count
# ----------------------------------------------------------------------
def test_range_parses_only_survivors_alive_at_t(setup, monkeypatch):
    """One full record parse per Lemma-4 survivor that is alive at the
    query time — not one per survivor."""
    import repro.io.reader as reader_module

    network, trajectories, archive, path = setup
    save_index(StIUIndex(network, archive), path)
    index = StIUIndex.over_file(network, path)
    assert index.loaded_from_sidecar  # opening parsed no record
    # the spatial rows are the index's own parses, derived up front:
    # what is counted below is the processor's
    index.spatial.intervals()
    index.archive.close()

    parses = []
    real_decode = reader_module.decode_trajectory_record
    monkeypatch.setattr(
        reader_module,
        "decode_trajectory_record",
        lambda *args: parses.append(1) or real_decode(*args),
    )
    box = network.bounding_box()
    rect = Rect(box.min_x, box.min_y, box.max_x, box.max_y)
    survivors = alive = 0
    for trajectory in trajectories:
        t = (trajectory.start_time + trajectory.end_time) // 2
        with FileBackedArchive.open(path) as cold:
            processor = UTCQQueryProcessor(network, cold, index)
            processor.range(rect, t, alpha=0.2)
            counters = processor.counters
            in_interval = len(index.trajectories_in_interval(t))
            query_survivors = in_interval - counters.trajectories_pruned
            survivors += query_survivors
            alive += query_survivors - counters.trajectories_time_pruned
            # one block, holding the parsed record, per survivor alive
            assert processor.cache.stats()["times"]["resident"] == (
                query_survivors - counters.trajectories_time_pruned
            )
    assert len(parses) == alive
    assert 0 < alive < survivors


# ----------------------------------------------------------------------
# differential: file-backed == in-memory, both bounded by brute force
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def differential(setup, processors):
    network, trajectories, archive, _ = setup
    memory, file_backed, _ = processors
    oracle = BruteForceOracle(network, trajectories)
    # PDDP moves a decoded position by at most eta_distance of an edge
    # length along its path, and each probability by eta_probability
    margin = archive.params.eta_distance * max(
        network.edge_length(*edge.key) for edge in network.edges()
    ) + 1e-6
    slack = archive.params.eta_probability * max(
        len(t.instances) for t in trajectories
    ) + 1e-9
    return network, trajectories, memory, file_backed, oracle, margin, slack


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_range_file_backed_equals_in_memory_within_brute_bounds(
    differential, data
):
    network, trajectories, memory, file_backed, oracle, margin, slack = (
        differential
    )
    box = network.bounding_box()
    xs = sorted(
        data.draw(st.floats(box.min_x - 50, box.max_x + 50)) for _ in "ab"
    )
    ys = sorted(
        data.draw(st.floats(box.min_y - 50, box.max_y + 50)) for _ in "ab"
    )
    rect = Rect(xs[0], ys[0], xs[1], ys[1])
    trajectory = trajectories[
        data.draw(st.integers(0, len(trajectories) - 1))
    ]
    # the span bounds are inclusive: probe them exactly, and one past
    t = data.draw(
        st.sampled_from(
            [
                trajectory.start_time,
                trajectory.end_time,
                trajectory.start_time - 1,
                trajectory.end_time + 1,
                (trajectory.start_time + trajectory.end_time) // 2,
            ]
        )
    )
    alpha = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))

    answer = file_backed.range(rect, t, alpha)
    assert answer == memory.range(rect, t, alpha)
    if alpha <= 0:
        # every trajectory alive at t, wherever it is
        assert answer == oracle.range(rect, t, 0.0)
        return
    grown = Rect(
        rect.min_x - margin,
        rect.min_y - margin,
        rect.max_x + margin,
        rect.max_y + margin,
    )
    certain = set()
    if min(rect.max_x - rect.min_x, rect.max_y - rect.min_y) >= 2 * margin:
        shrunk = Rect(
            rect.min_x + margin,
            rect.min_y + margin,
            rect.max_x - margin,
            rect.max_y - margin,
        )
        certain = set(oracle.range(shrunk, t, alpha + slack))
    assert certain <= set(answer) <= set(oracle.range(grown, t, alpha - slack))
