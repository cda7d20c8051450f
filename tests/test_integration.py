"""Cross-module integration tests: pipelines, engine agreement, and
failure injection on corrupted archives."""

import pytest

from repro.core.archive import CompressedInstance
from repro.core.compressor import compress_dataset
from repro.core.decoder import decode_archive, decode_reference_tuple
from repro.network.grid import Rect
from repro.query import (
    BruteForceOracle,
    StIUIndex,
    UTCQQueryProcessor,
)
from repro.ted import TEDCompressor, TedQueryIndex, decode_ted_trajectory
from repro.trajectories.datasets import load_dataset, profile


@pytest.fixture(scope="module")
def world():
    network, trajectories = load_dataset("CD", 20, seed=81, network_scale=12)
    utcq = compress_dataset(network, trajectories, default_interval=10)
    ted = TEDCompressor(network=network, default_interval=10).compress(
        trajectories
    )
    return network, trajectories, utcq, ted


class TestEnginesDecodeIdentically:
    """UTCQ and TED both decode to the same trajectories (same eta)."""

    def test_paths_agree(self, world):
        network, trajectories, utcq, ted = world
        utcq_decoded = decode_archive(network, utcq)
        for original, u, t in zip(
            trajectories, utcq_decoded, ted.trajectories
        ):
            ted_decoded = decode_ted_trajectory(network, ted, t)
            for orig_inst, u_inst, t_inst in zip(
                original.instances, u.instances, ted_decoded.instances
            ):
                assert u_inst.path == orig_inst.path
                assert t_inst.path == orig_inst.path

    def test_times_agree(self, world):
        network, trajectories, utcq, ted = world
        utcq_decoded = decode_archive(network, utcq)
        for original, u, t in zip(
            trajectories, utcq_decoded, ted.trajectories
        ):
            ted_decoded = decode_ted_trajectory(network, ted, t)
            assert u.times == list(original.times)
            assert ted_decoded.times == list(original.times)

    def test_utcq_strictly_smaller(self, world):
        _, _, utcq, ted = world
        assert utcq.stats.compressed.total < ted.stats.compressed.total
        # identical original-side accounting: both count the same input
        assert utcq.stats.original.edge == ted.stats.original.edge
        assert utcq.stats.original.distance == ted.stats.original.distance
        assert utcq.stats.original.probability == ted.stats.original.probability


class TestQueryEnginesAgree:
    """The two query stacks answer identically on the same workload."""

    def test_where_agreement(self, world):
        network, trajectories, utcq, ted = world
        index = StIUIndex(network, utcq, grid_cells_per_side=16)
        processor = UTCQQueryProcessor(network, utcq, index)
        ted_index = TedQueryIndex(network, ted)
        for trajectory in trajectories[:10]:
            t = (trajectory.start_time + trajectory.end_time) // 2
            got_u = processor.where(trajectory.trajectory_id, t, alpha=0.0)
            got_t = ted_index.where(trajectory.trajectory_id, t, alpha=0.0)
            keys_u = {(r.instance_index, r.edge) for r in got_u}
            keys_t = {(r.instance_index, r.edge) for r in got_t}
            assert keys_u == keys_t

    def test_range_agreement(self, world):
        network, trajectories, utcq, ted = world
        index = StIUIndex(network, utcq, grid_cells_per_side=16)
        processor = UTCQQueryProcessor(network, utcq, index)
        ted_index = TedQueryIndex(network, ted)
        oracle = BruteForceOracle(network, trajectories)
        disagreements = 0
        for trajectory in trajectories[:8]:
            t = (trajectory.start_time + trajectory.end_time) // 2
            instance = trajectory.best_instance()
            x, y = instance.locations[0].position(network)
            region = Rect(x - 200, y - 200, x + 200, y + 200)
            got_u = set(processor.range(region, t, alpha=0.3))
            got_t = set(ted_index.range(region, t, alpha=0.3))
            disagreements += len(got_u ^ got_t)
        assert disagreements <= 1  # borderline PDDP rounding only


class TestFailureInjection:
    """Corrupted archives fail loudly, never silently mis-decode."""

    def _corrupt(self, instance: CompressedInstance) -> CompressedInstance:
        payload = bytearray(instance.payload)
        if not payload:
            pytest.skip("empty payload")
        payload[len(payload) // 2] ^= 0xFF
        return CompressedInstance(
            is_reference=instance.is_reference,
            payload=bytes(payload),
            payload_bits=instance.payload_bits,
            start_vertex=instance.start_vertex,
            reference_ordinal=instance.reference_ordinal,
            probability=instance.probability,
        )

    def test_truncated_reference_payload_raises(self, world):
        network, _, utcq, _ = world
        reference = utcq.trajectories[0].references()[0]
        truncated = CompressedInstance(
            is_reference=True,
            payload=reference.payload[: max(len(reference.payload) // 4, 1)],
            payload_bits=max(reference.payload_bits // 4, 8),
            start_vertex=reference.start_vertex,
            reference_ordinal=reference.reference_ordinal,
            probability=reference.probability,
        )
        with pytest.raises((EOFError, ValueError)):
            decode_reference_tuple(truncated, utcq.params)

    def test_flipped_bits_detected_or_decoded_differently(self, world):
        """A corrupted payload either raises or decodes to different data —
        it must never silently reproduce the original."""
        network, trajectories, utcq, _ = world
        reference = utcq.trajectories[0].references()[0]
        original = decode_reference_tuple(reference, utcq.params)
        corrupted = self._corrupt(reference)
        try:
            decoded = decode_reference_tuple(corrupted, utcq.params)
        except (EOFError, ValueError, KeyError):
            return
        assert (
            decoded.edge_numbers != original.edge_numbers
            or decoded.relative_distances != original.relative_distances
            or decoded.time_flags != original.time_flags
            or decoded.probability != original.probability
        )


class TestFullPipeline:
    def test_mapmatch_compress_index_query(self):
        """raw GPS -> matcher -> compress -> StIU -> query, end to end."""
        from repro.mapmatching import (
            MatcherConfig,
            ProbabilisticMapMatcher,
            synthesize_raw_dataset,
        )
        from repro.network.generators import dataset_network
        from repro.trajectories.datasets import CD

        network = dataset_network("CD", scale=12, seed=5)
        raws = synthesize_raw_dataset(
            network, CD.generation_config(), 10, seed=6, noise_sigma=20.0
        )
        matcher = ProbabilisticMapMatcher(
            network, MatcherConfig(sigma=20.0, search_radius=60.0)
        )
        matched = matcher.match_many(raws)
        assert matched
        archive = compress_dataset(network, matched, default_interval=10)
        index = StIUIndex(network, archive, grid_cells_per_side=16)
        processor = UTCQQueryProcessor(network, archive, index)
        oracle = BruteForceOracle(network, matched)
        for trajectory in matched[:5]:
            t = (trajectory.start_time + trajectory.end_time) // 2
            got = processor.where(trajectory.trajectory_id, t, alpha=0.0)
            expected = oracle.where(trajectory.trajectory_id, t, alpha=0.0)
            assert {r.instance_index for r in got} == {
                r.instance_index for r in expected
            }
