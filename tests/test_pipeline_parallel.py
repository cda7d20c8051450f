"""Parallel batch compression: determinism, sharding, reporting."""

import pytest

from repro.core import UTCQCompressor, compress_dataset
from repro.io.format import encode_trajectory_record, write_archive
from repro.pipeline import compress_parallel, make_shards
from repro.trajectories.datasets import CD, load_dataset


@pytest.fixture(scope="module")
def cd_data():
    return load_dataset("CD", 30, seed=21, network_scale=12)


@pytest.fixture(scope="module")
def serial_archive(cd_data):
    network, trajectories = cd_data
    return compress_dataset(
        network, trajectories, default_interval=CD.default_interval
    )


class TestSharding:
    def test_shards_cover_input_in_order(self, cd_data):
        _, trajectories = cd_data
        shards = make_shards(trajectories, 7)
        flattened = [t for shard in shards for t in shard]
        assert flattened == trajectories
        assert all(len(shard) <= 7 for shard in shards)

    def test_bad_shard_size(self, cd_data):
        _, trajectories = cd_data
        with pytest.raises(ValueError):
            make_shards(trajectories, 0)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parallel_matches_serial_byte_for_byte(
        self, cd_data, serial_archive, tmp_path, workers
    ):
        network, trajectories = cd_data
        parallel, report = compress_parallel(
            network,
            trajectories,
            default_interval=CD.default_interval,
            workers=workers,
            shard_size=4,
        )
        assert report.workers == workers
        serial_path = tmp_path / "serial.utcq"
        parallel_path = tmp_path / "parallel.utcq"
        write_archive(serial_archive, serial_path)
        write_archive(parallel, parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_order_independent_rng(self, cd_data):
        """Compressing a reversed dataset yields identical per-trajectory
        payloads — the property parallel sharding relies on."""
        network, trajectories = cd_data
        compressor = UTCQCompressor(
            network=network, default_interval=CD.default_interval
        )
        forward = compressor.compress(trajectories)
        backward = compressor.compress(list(reversed(trajectories)))
        by_id = {t.trajectory_id: t for t in backward.trajectories}
        for trajectory in forward.trajectories:
            assert encode_trajectory_record(
                trajectory, forward.params
            ) == encode_trajectory_record(
                by_id[trajectory.trajectory_id], backward.params
            )


class TestReporting:
    def test_progress_and_report(self, cd_data):
        network, trajectories = cd_data
        seen = []
        archive, report = compress_parallel(
            network,
            trajectories,
            default_interval=CD.default_interval,
            workers=2,
            shard_size=8,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (len(trajectories), len(trajectories))
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)
        assert report.trajectory_count == len(trajectories)
        assert report.instance_count == archive.instance_count
        assert report.shard_count == len(make_shards(trajectories, 8))
        assert report.stats.compressed.total == archive.stats.compressed.total
        assert report.elapsed_seconds >= 0
        assert report.trajectories_per_second > 0

    def test_serial_fallback_reports_single_worker(self, cd_data):
        network, trajectories = cd_data
        _, report = compress_parallel(
            network,
            trajectories[:3],
            default_interval=CD.default_interval,
            workers=1,
        )
        assert report.workers == 1
        assert report.shard_count == 1

    def test_compressor_options_forwarded(self, cd_data, tmp_path):
        network, trajectories = cd_data
        parallel, _ = compress_parallel(
            network,
            trajectories,
            default_interval=CD.default_interval,
            workers=2,
            seed=99,
            pivot_count=2,
        )
        serial = compress_dataset(
            network,
            trajectories,
            default_interval=CD.default_interval,
            seed=99,
            pivot_count=2,
        )
        a = tmp_path / "a.utcq"
        b = tmp_path / "b.utcq"
        write_archive(parallel, a)
        write_archive(serial, b)
        assert a.read_bytes() == b.read_bytes()
