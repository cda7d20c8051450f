"""Edge-case tests for the query processor's partial-decompression paths."""

import pytest

from repro.bits.bitio import BitReader
from repro.core import siar
from repro.core.compressor import compress_dataset
from repro.network.grid import Rect
from repro.query import StIUIndex, UTCQQueryProcessor
from repro.query.brute import BruteForceOracle
from repro.trajectories.datasets import load_dataset
from repro.trajectories.model import MappedLocation


@pytest.fixture(scope="module")
def world():
    network, trajectories = load_dataset("HZ", 20, seed=91, network_scale=12)
    archive = compress_dataset(
        network, trajectories, default_interval=20, eta_probability=1 / 2048
    )
    index = StIUIndex(
        network, archive, grid_cells_per_side=16, time_partition_seconds=600
    )
    processor = UTCQQueryProcessor(network, archive, index)
    return network, trajectories, archive, index, processor


class TestMidStreamTimeResume:
    def test_resumed_times_match_full_decode(self, world):
        """decode_from_offset via the temporal tuple equals the suffix of a
        full decode, for every tuple of every trajectory."""
        _, trajectories, archive, index, _ = world
        for compressed in archive.trajectories:
            reader = BitReader(
                compressed.time_payload, compressed.time_payload_bits
            )
            full = siar.decode(
                reader,
                archive.params.default_interval,
                t0_bits=archive.params.t0_bits,
            )
            for entry in index._trajectory_tuples[compressed.trajectory_id]:
                reader = BitReader(
                    compressed.time_payload, compressed.time_payload_bits
                )
                resumed = siar.decode_from_offset(
                    reader,
                    start_time=entry.start,
                    start_index=entry.number,
                    bit_position=entry.bit_position,
                    total_count=compressed.point_count,
                    default_interval=archive.params.default_interval,
                )
                assert resumed == full[entry.number :]

    def test_decode_times_around_brackets_query_time(self, world):
        _, trajectories, archive, _, processor = world
        for compressed in archive.trajectories[:10]:
            t = (compressed.start_time + compressed.end_time) // 2
            times = processor._decode_times_around(compressed, t)
            assert times is not None
            assert times[0] <= t <= times[-1]

    def test_decode_times_around_rejects_outside(self, world):
        _, _, archive, _, processor = world
        compressed = archive.trajectories[0]
        assert (
            processor._decode_times_around(
                compressed, compressed.end_time + 10**6
            )
            is None
        )


class TestInstanceCaching:
    def test_materialize_caches(self, world):
        _, _, archive, _, processor = world
        processor.counters.reset()
        processor.cache.clear()
        trajectory = archive.trajectories[0]
        a = processor._materialize(trajectory, 0)
        decoded_after_first = processor.counters.instances_decoded
        b = processor._materialize(trajectory, 0)
        assert a is b
        assert processor.counters.instances_decoded == decoded_after_first

    def test_reference_cache_shared_across_nonrefs(self, world):
        _, _, archive, _, processor = world
        target = None
        for trajectory in archive.trajectories:
            nonrefs = [
                i for i in trajectory.instances if not i.is_reference
            ]
            if len(nonrefs) >= 2:
                target = trajectory
                break
        if target is None:
            pytest.skip("no trajectory with two non-references")
        processor.cache.clear()
        indices = [
            i
            for i, inst in enumerate(target.instances)
            if not inst.is_reference
        ][:2]
        processor._materialize(target, indices[0])
        decoded = processor.cache.stats()["references"]["misses"]
        processor._materialize(target, indices[1])
        # a shared reference must not be decoded twice
        same_ref = (
            target.instances[indices[0]].reference_ordinal
            == target.instances[indices[1]].reference_ordinal
        )
        if same_ref:
            assert processor.cache.stats()["references"]["misses"] == decoded

    def test_shared_cache_across_processors(self, world):
        """Two processors over the same archive share decoded spans."""
        from repro.core.decoder import DecodeSpanCache
        from repro.query import UTCQQueryProcessor

        network, _, archive, index, _ = world
        cache = DecodeSpanCache()
        first = UTCQQueryProcessor(network, archive, index, cache=cache)
        second = UTCQQueryProcessor(network, archive, index, cache=cache)
        trajectory = archive.trajectories[0]
        a = first._materialize(trajectory, 0)
        b = second._materialize(trajectory, 0)
        assert a is b
        assert second.counters.instances_decoded == 0


class TestCounters:
    def test_where_prunes_low_probability(self, world):
        _, trajectories, archive, _, processor = world
        trajectory = max(trajectories, key=lambda t: t.instance_count)
        if trajectory.instance_count < 3:
            pytest.skip("needs a multi-instance trajectory")
        processor.counters.reset()
        t = (trajectory.start_time + trajectory.end_time) // 2
        processor.where(trajectory.trajectory_id, t, alpha=0.99)
        assert processor.counters.instances_pruned >= 1

    @pytest.mark.parametrize("partition", [60, 1800])
    def test_when_prunes_each_reference_tuple_once(self, world, partition):
        """Lemma 1 prunes a reference set once per tuple of the probe's
        row, however many time intervals the trajectory spans: its
        region tuples do not depend on the interval."""
        network, trajectories, archive, _, _ = world
        index = StIUIndex(
            network,
            archive,
            grid_cells_per_side=16,
            time_partition_seconds=partition,
        )
        processor = UTCQQueryProcessor(network, archive, index)
        trajectory = trajectories[0]
        compressed = archive.trajectory(trajectory.trajectory_id)
        spans = index.interval_of(compressed.end_time) - index.interval_of(
            compressed.start_time
        )
        path = trajectory.best_instance().path
        edge = path[len(path) // 2]
        a, b = network.vertex(edge[0]), network.vertex(edge[1])
        cell = index.grid.cell_of_point((a.x + b.x) / 2, (a.y + b.y) / 2)
        row = index.spatial.row_of(trajectory.trajectory_id, cell)
        assert row is not None
        starts = index.spatial.reference_start
        processor.counters.reset()
        # no instance reaches alpha > 1: every tuple of the row is pruned
        assert processor.when(trajectory.trajectory_id, edge, 0.5, 1.01) == []
        assert processor.counters.instances_pruned == (
            starts[row + 1] - starts[row]
        )
        if partition == 60:
            assert spans > 1  # the case that counted once per interval

    def test_counters_reset(self, world):
        _, _, _, _, processor = world
        processor.counters.instances_decoded = 7
        processor.counters.reset()
        assert processor.counters.instances_decoded == 0


class TestRangeAcrossTimestampGaps:
    """A trajectory alive at ``t`` is a range candidate even when ``t``'s
    time interval holds none of its timestamps (two consecutive
    timestamps further apart than the time partition)."""

    PARTITION = 60

    @pytest.fixture(scope="class")
    def probes(self, world):
        network, trajectories, archive, _, _ = world
        index = StIUIndex(
            network,
            archive,
            grid_cells_per_side=16,
            time_partition_seconds=self.PARTITION,
        )
        processor = UTCQQueryProcessor(network, archive, index)
        oracle = BruteForceOracle(network, trajectories)
        found = []
        for trajectory in trajectories:
            times = trajectory.times
            for t0, t1 in zip(times, times[1:]):
                t = (t0 + t1) // 2
                interval = index.interval_of(t)
                if interval in (index.interval_of(t0), index.interval_of(t1)):
                    continue
                where = oracle.where(trajectory.trajectory_id, t, alpha=0.0)
                best = max(where, key=lambda result: result.probability)
                x, y = MappedLocation(best.edge, best.ndist).position(network)
                region = Rect(x - 50, y - 50, x + 50, y + 50)
                found.append((trajectory.trajectory_id, region, t))
        assert found, "the data has no gap wider than the partition"
        return processor, oracle, found

    @pytest.mark.parametrize("alpha", [0.01, 0.0])
    def test_alive_trajectory_is_found(self, probes, alpha):
        processor, oracle, found = probes
        for trajectory_id, region, t in found:
            assert trajectory_id in oracle.range(region, t, alpha)
            assert trajectory_id in processor.range(region, t, alpha)
