"""Persistence tests for the ``.stiu`` StIU index sidecar.

Covers the round trip (a sidecar-loaded index is structurally identical
to a fresh build and answers queries identically), the spatial rows
derived on first use (only what a query reads, once, whatever the
threads), staleness detection (rewritten archive, truncated/corrupt
sidecar, parameter mismatch, and version bump all force a rebuild), and
the write-at-compress-time integrations (``save_archive_with_index``,
stream ``compact``).
"""

import struct
import sys
import threading

import pytest

from repro.core.compressor import compress_dataset
from repro.io import FileBackedArchive
from repro.network.grid import Rect
from repro.pipeline.batch import save_archive_with_index
from repro.query import sidecar
from repro.query.stiu import StIUIndex
from repro.trajectories.datasets import load_dataset
from repro.workloads.harness import build_query_workload

from test_stiu_golden import spatial_rows


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    network, trajectories = load_dataset("CD", 25, seed=19, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    path = tmp_path_factory.mktemp("sidecar") / "archive.utcq"
    archive.save(path)
    return network, trajectories, archive, path


def build_index(network, path):
    """A fresh build over the file, whatever sidecar sits beside it."""
    return StIUIndex(network, FileBackedArchive.open(path))


def persist_sidecar(network, path):
    """Build the index of the archive at ``path`` and save its sidecar."""
    index = build_index(network, path)
    try:
        sidecar.save_index(index, path)
    finally:
        index.archive.close()


def assert_same_index(a: StIUIndex, b: StIUIndex) -> None:
    assert a.temporal == b.temporal
    assert a._trajectory_starts == b._trajectory_starts
    assert list(spatial_rows(a.spatial)) == list(spatial_rows(b.spatial))


class TestRoundTrip:
    def test_loaded_index_is_structurally_identical(self, world):
        network, _, _, path = world
        persist_sidecar(network, path)
        loaded = StIUIndex.over_file(network, path)
        rebuilt = build_index(network, path)
        try:
            assert loaded.loaded_from_sidecar
            assert not rebuilt.loaded_from_sidecar
            assert_same_index(loaded, rebuilt)
        finally:
            loaded.archive.close()
            rebuilt.archive.close()

    def test_loaded_index_answers_queries_identically(self, world):
        from repro.query.queries import UTCQQueryProcessor

        network, trajectories, _, path = world
        workload = build_query_workload(
            network, trajectories, count=25, seed=3
        )
        loaded = StIUIndex.over_file(network, path)
        rebuilt = build_index(network, path)
        try:
            assert loaded.loaded_from_sidecar
            warm = UTCQQueryProcessor(network, loaded.archive, loaded)
            cold = UTCQQueryProcessor(network, rebuilt.archive, rebuilt)
            for trajectory_id, t, alpha in workload.where_queries:
                assert warm.where(trajectory_id, t, alpha) == cold.where(
                    trajectory_id, t, alpha
                )
            for trajectory_id, edge, rd, alpha in workload.when_queries:
                assert warm.when(
                    trajectory_id, edge, rd, alpha
                ) == cold.when(trajectory_id, edge, rd, alpha)
            for region, t, alpha in workload.range_queries:
                assert warm.range(region, t, alpha) == cold.range(
                    region, t, alpha
                )
        finally:
            loaded.archive.close()
            rebuilt.archive.close()

    def test_spatial_section_is_lazy(self, world):
        """The sidecar holds no spatial row, and the open derives none:
        the first spatial access derives them from the records."""
        network, _, archive, path = world
        loaded = StIUIndex.over_file(network, path)
        try:
            assert loaded.loaded_from_sidecar
            assert len(loaded.spatial.trajectory_ids) == 0
            loaded.spatial.intervals()
            assert sorted(loaded.spatial.trajectory_ids) == sorted(
                t.trajectory_id for t in archive.trajectories
            )
        finally:
            loaded.archive.close()


def derived_blocks(index) -> list[int]:
    """The ids whose spatial blocks ``index`` has derived, in order."""
    return list(index.spatial.trajectory_ids)


class TestDerivedOnFirstUse:
    def test_the_first_range_derives_the_blocks_active_in_its_interval(
        self, world
    ):
        from repro.query.queries import UTCQQueryProcessor

        network, _, archive, path = world
        persist_sidecar(network, path)
        box = network.bounding_box()
        rect = Rect(box.min_x, box.min_y, box.max_x, box.max_y)
        trajectory = archive.trajectories[0]
        t = (trajectory.start_time + trajectory.end_time) // 2
        index = StIUIndex.over_file(network, path)
        try:
            active = index.trajectories_in_interval(t)
            assert 0 < len(active) < archive.trajectory_count
            UTCQQueryProcessor(network, index.archive, index).range(
                rect, t, 0.5
            )
            assert sorted(derived_blocks(index)) == list(active)
            assert list(index.spatial._intervals) == [index.interval_of(t)]
        finally:
            index.archive.close()

    def test_a_when_derives_one_block(self, world):
        from repro.query.queries import UTCQQueryProcessor

        network, trajectories, _, path = world
        persist_sidecar(network, path)
        trajectory = trajectories[3]
        edge = trajectory.best_instance().path[0]
        index = StIUIndex.over_file(network, path)
        try:
            processor = UTCQQueryProcessor(network, index.archive, index)
            assert processor.when(trajectory.trajectory_id, edge, 0.5, 0.1)
            assert derived_blocks(index) == [trajectory.trajectory_id]
            assert not index.spatial._intervals
        finally:
            index.archive.close()

    def test_threads_racing_on_first_access_get_identical_rows(self, world):
        """Blocks and intervals are derived once, under the layer's
        lock: every thread sees the rows one thread alone derives."""
        network, _, archive, path = world
        expected = list(spatial_rows(StIUIndex(network, archive).spatial))
        index = build_index(network, path)
        start = threading.Barrier(4, timeout=60)
        seen = []

        def race(order) -> None:
            start.wait()
            for trajectory in order:
                index.spatial.block_of(trajectory.trajectory_id)
            seen.append(list(spatial_rows(index.spatial)))

        orders = [
            archive.trajectories,
            archive.trajectories[::-1],
            archive.trajectories[1::2] + archive.trajectories[::2],
            [],  # straight to the intervals
        ]
        threads = [threading.Thread(target=race, args=(o,)) for o in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the derive
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert seen == [expected] * len(orders)
            blocks = derived_blocks(index)
            assert sorted(blocks) == sorted(set(blocks))  # each once
        finally:
            sys.setswitchinterval(interval)
            index.archive.close()


class TestStaleness:
    def test_missing_sidecar_falls_back_to_build(self, world, tmp_path):
        network, _, archive, _ = world
        path = tmp_path / "fresh.utcq"
        archive.save(path)
        index = StIUIndex.over_file(network, path)
        try:
            assert not index.loaded_from_sidecar
        finally:
            index.archive.close()

    def test_write_sidecar_on_build(self, world, tmp_path):
        network, _, archive, _ = world
        path = tmp_path / "fresh.utcq"
        archive.save(path)
        persist_sidecar(network, path)
        assert sidecar.sidecar_path_for(path).exists()
        warm = StIUIndex.over_file(network, path)
        try:
            assert warm.loaded_from_sidecar
        finally:
            warm.archive.close()

    def test_rewritten_archive_invalidates_sidecar(self, world, tmp_path):
        network, trajectories, archive, _ = world
        path = tmp_path / "mutating.utcq"
        archive.save(path)
        persist_sidecar(network, path)
        # rewrite the archive with fewer trajectories: same path, new bytes
        smaller = compress_dataset(
            network, trajectories[:10], default_interval=10
        )
        smaller.save(path)
        stale = StIUIndex.over_file(network, path)
        try:
            assert not stale.loaded_from_sidecar
        finally:
            stale.archive.close()

    def test_same_size_rewrite_detected_by_sha(self, world, tmp_path):
        network, _, archive, _ = world
        path = tmp_path / "flipped.utcq"
        archive.save(path)
        persist_sidecar(network, path)
        # flip one payload byte without changing the file size
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert sidecar.load_index(
            network,
            _DummyArchive(archive.trajectory_count),
            path,
        ) is None

    def test_parameter_mismatch_forces_rebuild(self, world, tmp_path):
        network, _, archive, _ = world
        path = tmp_path / "params.utcq"
        archive.save(path)
        persist_sidecar(network, path)
        other_grid = StIUIndex.over_file(
            network, path, grid_cells_per_side=16
        )
        other_partition = StIUIndex.over_file(
            network, path, time_partition_seconds=900
        )
        try:
            assert not other_grid.loaded_from_sidecar
            assert not other_partition.loaded_from_sidecar
        finally:
            other_grid.archive.close()
            other_partition.archive.close()

    def test_version_bump_rejected(self, world, tmp_path):
        network, _, archive, _ = world
        path = tmp_path / "versioned.utcq"
        archive.save(path)
        persist_sidecar(network, path)
        sidecar_path = sidecar.sidecar_path_for(path)
        data = bytearray(sidecar_path.read_bytes())
        struct.pack_into("<H", data, 8, sidecar.VERSION + 1)
        sidecar_path.write_bytes(bytes(data))
        with pytest.raises(sidecar.SidecarFormatError):
            sidecar.read_sidecar(sidecar_path)
        rebuilt = StIUIndex.over_file(network, path)
        try:
            assert not rebuilt.loaded_from_sidecar
        finally:
            rebuilt.archive.close()

    def test_truncated_sidecar_rejected(self, world, tmp_path):
        network, _, archive, _ = world
        path = tmp_path / "truncated.utcq"
        archive.save(path)
        persist_sidecar(network, path)
        sidecar_path = sidecar.sidecar_path_for(path)
        data = sidecar_path.read_bytes()
        sidecar_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(sidecar.SidecarFormatError):
            sidecar.read_sidecar(sidecar_path)
        rebuilt = StIUIndex.over_file(network, path)
        try:
            assert not rebuilt.loaded_from_sidecar
        finally:
            rebuilt.archive.close()


class _DummyArchive:
    def __init__(self, trajectory_count):
        self.trajectory_count = trajectory_count


class TestWriteIntegrations:
    def test_save_archive_with_index(self, world, tmp_path):
        network, _, archive, _ = world
        path = tmp_path / "pipeline.utcq"
        size, sidecar_path = save_archive_with_index(archive, path, network)
        assert size == path.stat().st_size
        assert sidecar_path.exists()
        warm = StIUIndex.over_file(network, path)
        try:
            assert warm.loaded_from_sidecar
        finally:
            warm.archive.close()

    def test_compact_writes_sidecar(self, tmp_path):
        from repro.stream import AppendableArchiveWriter, compact
        from repro.trajectories.datasets import load_dataset

        network, trajectories = load_dataset(
            "CD", 8, seed=29, network_scale=12
        )
        directory = tmp_path / "stream"
        with AppendableArchiveWriter(
            directory, network, default_interval=10,
            segment_max_trajectories=3,
        ) as writer:
            for trajectory in trajectories:
                writer.append(trajectory)
        output = tmp_path / "compacted.utcq"
        compact(directory, output, network=network)
        assert sidecar.sidecar_path_for(output).exists()
        warm = StIUIndex.over_file(network, output)
        try:
            assert warm.loaded_from_sidecar
        finally:
            warm.archive.close()
