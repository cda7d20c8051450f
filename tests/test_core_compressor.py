"""End-to-end tests: compress -> archive -> decode round trips and sizes."""

import copy

import pytest

from repro.core import (
    CorruptPayloadError,
    UTCQCompressor,
    compress_dataset,
    decode_archive,
    decode_times,
    decode_trajectory,
)
from repro.core.decoder import (
    decode_non_reference_tuple,
    decode_reference_tuple,
    decode_trajectory_tuples,
)
from repro.core.improved_ted import decode_instance, encode_instance
from repro.trajectories.datasets import CD, DK, load_dataset
from repro.trajectories.model import TrajectoryInstance, UncertainTrajectory


@pytest.fixture(scope="module")
def cd_data():
    return load_dataset("CD", 25, seed=21, network_scale=12)


@pytest.fixture(scope="module")
def cd_archive(cd_data):
    network, trajectories = cd_data
    compressor = UTCQCompressor(
        network=network, default_interval=CD.default_interval, pivot_count=1
    )
    return compressor.compress(trajectories)


class TestArchiveStructure:
    def test_counts(self, cd_data, cd_archive):
        _, trajectories = cd_data
        assert cd_archive.trajectory_count == len(trajectories)
        assert cd_archive.instance_count == sum(
            t.instance_count for t in trajectories
        )

    def test_every_trajectory_has_a_reference(self, cd_archive):
        for trajectory in cd_archive.trajectories:
            assert trajectory.reference_count >= 1

    def test_reference_ordinals_are_dense(self, cd_archive):
        for trajectory in cd_archive.trajectories:
            ordinals = sorted(
                i.reference_ordinal for i in trajectory.instances if i.is_reference
            )
            assert ordinals == list(range(len(ordinals)))

    def test_nonrefs_point_at_existing_references(self, cd_archive):
        for trajectory in cd_archive.trajectories:
            for instance in trajectory.instances:
                if not instance.is_reference:
                    trajectory.reference_by_ordinal(instance.reference_ordinal)

    def test_compression_shrinks_data(self, cd_archive):
        assert cd_archive.stats.compressed.total < cd_archive.stats.original.total
        assert cd_archive.stats.total_ratio > 2.0

    def test_stats_sum_over_trajectories(self, cd_archive):
        total = sum(t.stats.compressed.total for t in cd_archive.trajectories)
        assert total == cd_archive.stats.compressed.total

    def test_component_bits_sum_to_total(self, cd_archive):
        bits = cd_archive.stats.compressed
        assert bits.total == (
            bits.time + bits.edge + bits.distance + bits.flags
            + bits.probability + bits.overhead
        )

    def test_trajectory_lookup(self, cd_archive):
        first = cd_archive.trajectories[0]
        assert cd_archive.trajectory(first.trajectory_id) is first
        with pytest.raises(KeyError):
            cd_archive.trajectory(10**9)


class TestRoundTrip:
    def test_times_round_trip_exactly(self, cd_data, cd_archive):
        _, trajectories = cd_data
        for original, compressed in zip(trajectories, cd_archive.trajectories):
            assert decode_times(compressed, cd_archive.params) == list(
                original.times
            )

    def test_paths_round_trip_exactly(self, cd_data, cd_archive):
        network, trajectories = cd_data
        decoded = decode_archive(network, cd_archive)
        for original, restored in zip(trajectories, decoded):
            assert restored.trajectory_id == original.trajectory_id
            assert len(restored.instances) == len(original.instances)
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                assert rest_inst.path == orig_inst.path

    def test_distances_round_trip_within_eta(self, cd_data, cd_archive):
        network, trajectories = cd_data
        eta = cd_archive.params.eta_distance
        decoded = decode_archive(network, cd_archive)
        for original, restored in zip(trajectories, decoded):
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                orig_rd = orig_inst.relative_distances(network)
                rest_rd = rest_inst.relative_distances(network)
                for a, b in zip(orig_rd, rest_rd):
                    assert abs(a - b) <= eta + 1e-9

    def test_probabilities_round_trip_within_eta(self, cd_data, cd_archive):
        network, trajectories = cd_data
        eta = cd_archive.params.eta_probability
        decoded = decode_archive(network, cd_archive)
        for original, restored in zip(trajectories, decoded):
            n = len(original.instances)
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                # decoding renormalizes; allow eta per instance plus slack
                assert abs(
                    rest_inst.probability - orig_inst.probability
                ) <= (n + 1) * eta

    def test_flags_round_trip_exactly(self, cd_data, cd_archive):
        network, trajectories = cd_data
        for original, compressed in zip(trajectories, cd_archive.trajectories):
            tuples = decode_trajectory_tuples(compressed, cd_archive.params)
            for orig_inst, restored_tuple in zip(original.instances, tuples):
                expected = encode_instance(network, orig_inst)
                assert restored_tuple.time_flags == expected.time_flags
                assert restored_tuple.edge_numbers == expected.edge_numbers

    def test_single_instance_decode_matches_full(self, cd_data, cd_archive):
        """One instance decoded alone, touching at most its reference's
        payload (the query processor's granularity), equals its full
        decode; the reference count the trajectory's flags give sizes
        a non-reference's reference index."""
        network, trajectories = cd_data
        params = cd_archive.params
        for compressed in cd_archive.trajectories:
            full = decode_trajectory(network, compressed, params)
            for index, target in enumerate(compressed.instances):
                reference = decode_reference_tuple(
                    compressed.reference_by_ordinal(target.reference_ordinal),
                    params,
                )
                encoded = (
                    reference
                    if target.is_reference
                    else decode_non_reference_tuple(
                        target, reference, params, compressed.reference_count
                    )
                )
                single = decode_instance(network, encoded)
                assert single.path == full.instances[index].path


class TestDecoderValidation:
    def test_reference_decoder_rejects_nonref(self, cd_archive):
        for trajectory in cd_archive.trajectories:
            nonrefs = [i for i in trajectory.instances if not i.is_reference]
            if nonrefs:
                with pytest.raises(ValueError):
                    decode_reference_tuple(nonrefs[0], cd_archive.params)
                return
        pytest.skip("archive has no non-references")

    def test_nonref_decoder_rejects_reference(self, cd_archive):
        trajectory = cd_archive.trajectories[0]
        reference = trajectory.references()[0]
        decoded = decode_reference_tuple(reference, cd_archive.params)
        with pytest.raises(ValueError):
            decode_non_reference_tuple(
                reference, decoded, cd_archive.params, 1
            )


class TestCompressorConfiguration:
    def test_pivot_count_validation(self, cd_data):
        network, _ = cd_data
        with pytest.raises(ValueError):
            UTCQCompressor(network=network, default_interval=10, pivot_count=0)

    def test_interval_validation(self, cd_data):
        network, _ = cd_data
        with pytest.raises(ValueError):
            UTCQCompressor(network=network, default_interval=0)

    def test_compression_is_deterministic(self, cd_data):
        network, trajectories = cd_data
        a = compress_dataset(
            network, trajectories, default_interval=10, seed=5
        )
        b = compress_dataset(
            network, trajectories, default_interval=10, seed=5
        )
        assert a.stats.compressed.total == b.stats.compressed.total
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert ta.time_payload == tb.time_payload
            for ia, ib in zip(ta.instances, tb.instances):
                assert ia.payload == ib.payload

    def test_more_pivots_never_crash_and_keep_losslessness(self, cd_data):
        network, trajectories = cd_data
        archive = compress_dataset(
            network, trajectories[:8], default_interval=10, pivot_count=3
        )
        decoded = decode_archive(network, archive)
        for original, restored in zip(trajectories[:8], decoded):
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                assert rest_inst.path == orig_inst.path

    def test_t0_bits_grow_for_late_timestamps(self, cd_data):
        network, trajectories = cd_data
        shifted = [
            type(t)(
                t.trajectory_id,
                t.instances,
                [x + 2**18 for x in t.times],
            )
            for t in trajectories[:3]
        ]
        compressor = UTCQCompressor(network=network, default_interval=10)
        archive = compressor.compress(shifted)
        assert archive.params.t0_bits > 17
        assert decode_times(
            archive.trajectories[0], archive.params
        ) == list(shifted[0].times)


class TestReferentialBenefit:
    def test_nonrefs_cost_less_than_references(self, cd_archive):
        """The referential representation must pay off on average."""
        ref_bits, ref_count = 0, 0
        nonref_bits, nonref_count = 0, 0
        for trajectory in cd_archive.trajectories:
            for instance in trajectory.instances:
                if instance.is_reference:
                    ref_bits += instance.payload_bits
                    ref_count += 1
                else:
                    nonref_bits += instance.payload_bits
                    nonref_count += 1
        if nonref_count == 0:
            pytest.skip("no non-references selected")
        assert nonref_bits / nonref_count < ref_bits / ref_count

    def test_dk_dataset_compresses(self):
        network, trajectories = load_dataset("DK", 15, seed=4, network_scale=12)
        archive = compress_dataset(
            network, trajectories, default_interval=DK.default_interval
        )
        assert archive.stats.total_ratio > 2.0
        decoded = decode_archive(network, archive)
        for original, restored in zip(trajectories, decoded):
            for orig_inst, rest_inst in zip(
                original.instances, restored.instances
            ):
                assert rest_inst.path == orig_inst.path


def tiny_probability_trajectory():
    """A CD trajectory whose last instance has probability 1/1024, below
    the default eta_p of 1/512 (the matcher's share quantum is 1/1024,
    so a matched trip can carry such an instance)."""
    network, trajectories = load_dataset("CD", 20, seed=1)
    source = next(t for t in trajectories if t.instance_count >= 3)
    tiny = 1 / 1024
    rest = sum(i.probability for i in source.instances[:-1])
    instances = [
        TrajectoryInstance(
            path=list(i.path),
            locations=list(i.locations),
            probability=(
                tiny if index == source.instance_count - 1
                else i.probability * (1 - tiny) / rest
            ),
            location_edge_indices=list(i.location_edge_indices),
        )
        for index, i in enumerate(source.instances)
    ]
    return network, UncertainTrajectory(
        source.trajectory_id, instances, list(source.times)
    )


class TestProbabilityBelowEta:
    def test_archive_with_a_tiny_instance_decodes(self, tmp_path):
        from repro.io.format import read_archive, write_archive

        network, trajectory = tiny_probability_trajectory()
        archive = compress_dataset(
            network, [trajectory], default_interval=CD.default_interval
        )
        eta = archive.params.eta_probability
        stored = [i.probability for i in archive.trajectories[0].instances]
        assert min(stored) > 0
        for original, value in zip(trajectory.instances, stored):
            assert abs(original.probability - value) <= eta
        write_archive(archive, tmp_path / "tiny.utcq")
        (restored,) = decode_archive(network, read_archive(tmp_path / "tiny.utcq"))
        assert restored.instance_count == trajectory.instance_count
        for original, instance in zip(trajectory.instances, restored.instances):
            assert instance.path == original.path


def flipped(trajectory, instance_index: int, bit: int):
    """A copy of ``trajectory`` with one payload bit of one instance
    flipped (``instance_index`` None: the time payload)."""
    trajectory = copy.deepcopy(trajectory)
    if instance_index is None:
        data = bytearray(trajectory.time_payload)
        data[bit >> 3] ^= 0x80 >> (bit & 7)
        trajectory.time_payload = bytes(data)
    else:
        instance = trajectory.instances[instance_index]
        data = bytearray(instance.payload)
        data[bit >> 3] ^= 0x80 >> (bit & 7)
        instance.payload = bytes(data)
    return trajectory


class TestUndecodablePayload:
    def test_every_single_bit_flip_decodes_or_raises_the_typed_error(
        self, cd_data, cd_archive
    ):
        network, _ = cd_data
        params = cd_archive.params
        failures = 0
        for trajectory in cd_archive.trajectories[:3]:
            targets = [(None, trajectory.time_payload_bits)] + [
                (index, instance.payload_bits)
                for index, instance in enumerate(trajectory.instances)
            ]
            for instance_index, bit_count in targets:
                for bit in range(bit_count):
                    damaged = flipped(trajectory, instance_index, bit)
                    try:
                        decode_trajectory(network, damaged, params)
                    except CorruptPayloadError as error:
                        assert isinstance(error, ValueError)
                        failures += 1
        assert failures > 0

    def test_partial_entry_points_raise_the_typed_error(self, cd_archive):
        """A payload cut to one bit ends every reader early."""
        params = cd_archive.params
        trajectory = next(
            t for t in cd_archive.trajectories
            if not all(i.is_reference for i in t.instances)
        )
        reference = decode_reference_tuple(
            trajectory.reference_by_ordinal(0), params
        )
        cut = copy.deepcopy(trajectory)
        cut.time_payload_bits = 1
        for instance in cut.instances:
            instance.payload_bits = 1
        with pytest.raises(CorruptPayloadError):
            decode_times(cut, params)
        non_reference = next(i for i in cut.instances if not i.is_reference)
        with pytest.raises(CorruptPayloadError):
            decode_non_reference_tuple(
                non_reference, reference, params, cut.reference_count
            )
        with pytest.raises(CorruptPayloadError):
            decode_reference_tuple(cut.reference_by_ordinal(0), params)
