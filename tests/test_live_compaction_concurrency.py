"""Concurrent queries against a live archive under active compaction.

Extends the ``test_reader_concurrency`` hammer pattern one layer up:
a thread pool refreshes a shared :class:`LiveArchive` and answers
``where`` queries while the main thread keeps ingesting and a
:class:`CompactionDaemon` merges segments underneath — every answer
must match a serially-computed reference, whatever snapshot each
worker happened to see.  Readers retired by a refresh must keep
serving query processors built on the older snapshot.
"""

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

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
    after refresh() replaced its segments — the retired readers are
    kept open until the archive closes."""
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
        path = store.segment_path(info.name)
        solitary = save_index(
            StIUIndex(alone, read_archive(path)),
            path,
            sidecar_path=tmp_path / "solitary.stiu",
        )
        assert (
            store.sidecar_path(info.name).read_bytes() == solitary.read_bytes()
        ), info.name
