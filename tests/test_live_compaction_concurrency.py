"""Concurrent queries against a live archive under active compaction.

Extends the ``test_reader_concurrency`` hammer pattern one layer up:
a thread pool refreshes a shared :class:`LiveArchive` and answers
``where`` queries while the main thread keeps ingesting and a
:class:`CompactionDaemon` merges segments underneath — every answer
must match a serially-computed reference, whatever snapshot each
worker happened to see.  Query processors built on an older snapshot
must keep answering after a refresh retired its readers, and the
retired readers must be released by the refresh after that.
"""

import os
import random
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.io import ArchiveClosedError, UnionArchive
from repro.io.format import read_archive
from repro.network.generators import grid_network
from repro.query import StIUIndex, save_index
from repro.stream import (
    AppendableArchiveWriter,
    CompactionDaemon,
    LiveArchive,
    SizeTieredPolicy,
    drain_compactions,
)
from repro.trajectories.generators import GenerationConfig, generate_dataset
from repro.trajectories.model import (
    MappedLocation,
    TrajectoryInstance,
    UncertainTrajectory,
)

THREADS = 6
TRIPS = 36


@pytest.fixture(scope="module")
def network():
    return grid_network(4, 4, spacing=100.0)


def _trip(network, trajectory_id):
    edges = [(e.start, e.end) for e in network.edges()]
    key = edges[trajectory_id % len(edges)]
    instance = TrajectoryInstance(
        path=[key],
        locations=[MappedLocation(key, 0.0), MappedLocation(key, 1.0)],
        probability=1.0,
    )
    t0 = trajectory_id * 50
    return UncertainTrajectory(trajectory_id, [instance], [t0, t0 + 40])


def _mid(trajectory_id):
    return trajectory_id * 50 + 20


@pytest.fixture(scope="module")
def trips(network):
    return [_trip(network, i) for i in range(TRIPS)]


def _writer(directory, network, segment_max=2):
    return AppendableArchiveWriter(
        directory,
        network,
        default_interval=10,
        segment_max_trajectories=segment_max,
    )


@pytest.fixture(scope="module")
def reference(network, trips, tmp_path_factory):
    """Per-trajectory ``where`` answers from a never-compacted run."""
    directory = tmp_path_factory.mktemp("reference") / "fleet"
    with _writer(directory, network, segment_max=4) as writer:
        for trip in trips:
            writer.append(trip)
    with LiveArchive(directory) as live:
        processor = live.query_processor(network)
        return {
            trip.trajectory_id: processor.where(
                trip.trajectory_id, _mid(trip.trajectory_id), alpha=0.1
            )
            for trip in trips
        }


def test_queries_stay_pinned_during_active_compaction(
    network, trips, reference, tmp_path
):
    directory = tmp_path / "fleet"
    writer = _writer(directory, network)
    for trip in trips[:4]:
        writer.append(trip)
    live = LiveArchive(directory)
    daemon = CompactionDaemon(
        writer,
        policy=SizeTieredPolicy(min_merge=2, max_merge=4),
        interval=0.01,
    )
    stop = threading.Event()
    mismatches = []

    def hammer(seed):
        rng = random.Random(seed)
        checked = 0
        while not stop.is_set() or checked == 0:
            live.refresh()
            processor = live.query_processor(network)
            ids = live.trajectory_ids()
            for trajectory_id in rng.sample(ids, min(5, len(ids))):
                answer = processor.where(
                    trajectory_id, _mid(trajectory_id), alpha=0.1
                )
                if answer != reference[trajectory_id]:
                    mismatches.append((trajectory_id, answer))
                checked += 1
        return checked

    with daemon:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(hammer, seed) for seed in range(THREADS)]
            for trip in trips[4:]:
                writer.append(trip)
                daemon.notify()
                time.sleep(0.002)
            writer.close()
            daemon.notify()
            stop.set()
            checks = [future.result(timeout=120) for future in futures]
    # daemon context exit drains remaining merges

    assert mismatches == []
    assert sum(checks) > 0
    assert daemon.stats.merges > 0, "compaction never ran during the hammer"

    # post-quiescence: the merged view answers identically, assembled
    # purely from sidecars (never a record-decoding index rebuild)
    live.refresh()
    assert live.trajectory_count == TRIPS
    processor = live.query_processor(network)
    for trip in trips:
        assert processor.where(
            trip.trajectory_id, _mid(trip.trajectory_id), alpha=0.1
        ) == reference[trip.trajectory_id]
    assert live.sidecar_misses == 0
    live.close()


def test_processor_on_retired_snapshot_keeps_answering(
    network, trips, reference, tmp_path
):
    """A query processor built before a compaction must stay usable
    after refresh() replaced its segments — its records come through
    the archive, which serves them from the current snapshot."""
    directory = tmp_path / "fleet"
    with _writer(directory, network) as writer:
        for trip in trips[:8]:
            writer.append(trip)
    live = LiveArchive(directory)
    before = live.query_processor(network)
    segments_before = live.segment_count

    merges = drain_compactions(
        directory, policy=SizeTieredPolicy(min_merge=2, max_merge=8),
        network=network,
    ).merges
    assert merges > 0
    live.refresh()
    assert live.segment_count < segments_before
    assert live.retired_count > 0

    after = live.query_processor(network)
    for trip in trips[:8]:
        expected = reference[trip.trajectory_id]
        t = _mid(trip.trajectory_id)
        assert before.where(trip.trajectory_id, t, alpha=0.1) == expected
        assert after.where(trip.trajectory_id, t, alpha=0.1) == expected
    live.close()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts fds through /proc"
)
def test_retired_readers_are_released_across_many_merges(
    network, trips, reference, tmp_path
):
    """A long-lived live archive must not keep one open reader per
    merged-away segment: the readers one refresh retires are closed by
    the next, while a processor built before a refresh keeps answering."""
    directory = tmp_path / "fleet"
    writer = _writer(directory, network)
    # merges run inline, sharing the writer's store
    daemon = CompactionDaemon(
        writer, policy=SizeTieredPolicy(min_merge=2, max_merge=2)
    )
    baseline = _open_fds()
    live = LiveArchive(directory)
    merges = 0
    retired_total = 0
    previously_retired = []
    for start in range(0, TRIPS, 2):
        for trip in trips[start:start + 2]:
            writer.append(trip)
        merges += daemon.run_once()
        processor = live.query_processor(network)
        before = set(live.segment_levels())
        live.refresh()
        retired_now = len(before - set(live.segment_levels()))
        retired_total += retired_now
        # only the readers this refresh retired are still held ...
        assert live.retired_count == retired_now
        # ... the ones the previous refresh retired are closed ...
        assert all(reader.closed for reader in previously_retired)
        previously_retired = list(live._retired)
        # ... and every open fd is a current or just-retired segment
        assert _open_fds() - baseline <= (
            live.segment_count + live.retired_count
        )
        for trip in trips[:start]:  # what the processor's snapshot held
            t = _mid(trip.trajectory_id)
            assert processor.where(trip.trajectory_id, t, alpha=0.1) == (
                reference[trip.trajectory_id]
            )
    writer.close()
    assert merges >= 10
    assert retired_total > 2 * max(live.segment_count, 1)
    live.close()
    assert _open_fds() == baseline


@pytest.mark.parametrize("method", ["trajectory", "time_span"])
def test_a_read_outliving_two_refreshes_answers_from_the_new_snapshot(
    network, trips, tmp_path, monkeypatch, method
):
    """A reader retired by one refresh is closed by the next; a call
    still running on it then reads from the snapshot that replaced it
    instead of failing."""
    directory = tmp_path / "fleet"
    writer = _writer(directory, network)
    daemon = CompactionDaemon(
        writer, policy=SizeTieredPolicy(min_merge=2, max_merge=8)
    )
    for trip in trips[:8]:
        writer.append(trip)
    live = LiveArchive(directory)
    target = trips[0].trajectory_id
    expected = (trips[0].start_time, trips[0].end_time)
    real = getattr(UnionArchive, method)
    outlived = []

    def read(union, trajectory_id):
        if not outlived:  # the first call: two refreshes land under it
            outlived.append(union)
            assert daemon.run_once() > 0
            live.refresh()
            live.refresh()
            gone = set(union.readers) - set(live._union.readers)
            assert gone and all(reader.closed for reader in gone)
        return real(union, trajectory_id)

    monkeypatch.setattr(UnionArchive, method, read)
    answer = getattr(live, method)(target)
    if method == "trajectory":
        answer = (answer.start_time, answer.end_time)
    assert answer == expected
    assert len(outlived) == 1
    writer.close()
    live.close()
    with pytest.raises(ArchiveClosedError):
        getattr(live, method)(target)


def test_sidecars_written_concurrently_equal_solitary_builds(tmp_path):
    """A writer thread seals while the daemon thread merges, both
    building StIU indexes over the one edge table their network shares;
    every sidecar left on disk must be byte-equal to an index built
    alone, on a network (and table) of its own."""
    shared = grid_network(4, 4, spacing=100.0)
    config = GenerationConfig(
        default_interval=10,
        deviation_fractions=(0.6, 0.2, 0.2, 0.0, 0.0),
        mean_instances=4.0,
        max_instances=8,
        mean_edges=6.0,
        max_edges=12,
    )
    routed = generate_dataset(shared, config, TRIPS, seed=9)
    directory = tmp_path / "fleet"
    writer = _writer(directory, shared)
    daemon = CompactionDaemon(
        writer,
        policy=SizeTieredPolicy(min_merge=2, max_merge=4),
        interval=0.001,
    )
    errors = []

    def ingest():
        try:
            for trip in routed:
                writer.append(trip)
                daemon.notify()
            writer.close()
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    with daemon:
        thread = threading.Thread(target=ingest)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert errors == []
    assert daemon.stats.merges > 0, "compaction never ran beside the writer"

    alone = grid_network(4, 4, spacing=100.0)
    store = writer.store
    segments = store.segments()
    assert sum(info.trajectory_count for info in segments) == TRIPS
    for info in segments:
        copy = tmp_path / info.name
        shutil.copyfile(store.segment_path(info.name), copy)
        solitary = save_index(StIUIndex(alone, read_archive(copy)), copy)
        assert (
            store.sidecar_path(info.name).read_bytes() == solitary.read_bytes()
        ), info.name
