"""Edge-case tests for the query processor's decode paths."""

import copy

import pytest

from repro.bits import BitReader
from repro.core import CorruptPayloadError, decode_trajectory
from repro.core.decoder import read_probability
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


class TestInstanceCaching:
    def test_slot_is_decoded_once(self, world):
        _, _, archive, _, processor = world
        processor.counters.reset()
        processor.cache.clear()
        trajectory_id = archive.trajectories[0].trajectory_id
        a = processor._fill(processor._block(trajectory_id), 0)
        decoded_after_first = processor.counters.instances_decoded
        b = processor._block(trajectory_id).chains[0]
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
        block = processor._block(target.trajectory_id)
        processor._fill(block, indices[0])
        decoded = processor.cache.stats()["references"]["misses"]
        processor._fill(block, indices[1])
        # a shared reference must not be decoded twice
        same_ref = (
            target.instances[indices[0]].reference_ordinal
            == target.instances[indices[1]].reference_ordinal
        )
        if same_ref:
            assert processor.cache.stats()["references"]["misses"] == decoded

    def test_shared_cache_across_processors(self, world):
        """Two processors over the same archive share decoded blocks."""
        from repro.core.decoder import DecodeSpanCache
        from repro.query import UTCQQueryProcessor

        network, _, archive, index, _ = world
        cache = DecodeSpanCache()
        first = UTCQQueryProcessor(network, archive, index, cache=cache)
        second = UTCQQueryProcessor(network, archive, index, cache=cache)
        trajectory_id = archive.trajectories[0].trajectory_id
        a = first._fill(first._block(trajectory_id), 0)
        b = second._block(trajectory_id).chains[0]
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


class TestRangeOverAnUndecodablePayload:
    """A reference payload damaged under a valid CRC (the first bit of
    its ``E`` count, which follows the probability code, flipped before
    the CRCs were computed) is a typed error for
    ``range``, as it is for ``where`` and a full decode: never a
    trajectory silently left out because its damaged ``E`` count derives
    no region rows, and never a bare ``KeyError`` from the derive."""

    def test_range_raises_instead_of_leaving_the_trajectory_out(self, world):
        network, _, archive, _, _ = world
        for trajectory_id in range(len(archive.trajectories)):
            damaged = copy.deepcopy(archive)
            trajectory = damaged.trajectories[trajectory_id]
            reference = trajectory.references()[0]
            reader = BitReader(reference.payload, reference.payload_bits)
            read_probability(reader, damaged.params.eta_probability)
            bit = reader.position
            payload = bytearray(reference.payload)
            payload[bit >> 3] ^= 0x80 >> (bit & 7)
            reference.payload = bytes(payload)
            with pytest.raises(CorruptPayloadError):
                decode_trajectory(network, trajectory, damaged.params)
            index = StIUIndex(
                network,
                damaged,
                grid_cells_per_side=16,
                time_partition_seconds=600,
            )
            processor = UTCQQueryProcessor(network, damaged, index)
            box = index.grid.box
            everywhere = Rect(box.min_x, box.min_y, box.max_x, box.max_y)
            t = (trajectory.start_time + trajectory.end_time) // 2
            for alpha in (0.0, 0.1):
                with pytest.raises(
                    CorruptPayloadError, match="undecodable payload"
                ):
                    processor.range(everywhere, t, alpha=alpha)

    def test_a_damaged_non_reference_answers_or_raises_the_typed_error(
        self, world
    ):
        """A bit flipped in a non-reference payload can name an edge
        number its vertex does not have; the spatial derive reports it
        as the typed error, never a bare ``KeyError``."""
        network, _, archive, _, _ = world
        outcomes = set()
        for trajectory_id, trajectory in enumerate(archive.trajectories[:6]):
            members = [
                k for k, i in enumerate(trajectory.instances)
                if not i.is_reference
            ]
            if not members:
                continue
            bits = trajectory.instances[members[0]].payload_bits
            for bit in range(0, bits, 2):
                damaged = copy.deepcopy(archive)
                instance = damaged.trajectories[trajectory_id].instances[
                    members[0]
                ]
                payload = bytearray(instance.payload)
                payload[bit >> 3] ^= 0x80 >> (bit & 7)
                instance.payload = bytes(payload)
                index = StIUIndex(
                    network,
                    damaged,
                    grid_cells_per_side=16,
                    time_partition_seconds=600,
                )
                processor = UTCQQueryProcessor(network, damaged, index)
                box = index.grid.box
                everywhere = Rect(box.min_x, box.min_y, box.max_x, box.max_y)
                t = (trajectory.start_time + trajectory.end_time) // 2
                try:
                    processor.range(everywhere, t, alpha=0.0)
                except CorruptPayloadError:
                    outcomes.add("typed")
                else:
                    outcomes.add("answered")
        assert outcomes == {"typed", "answered"}
