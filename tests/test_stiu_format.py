"""Hostile input to the ``.stiu`` version-2 parser, and what its writer
refuses.

A sidecar is a cache: whatever is wrong with it, the answer is the
correct index (loaded, or rebuilt from the archive) — reached through
``SidecarFormatError`` / ``None``, never through another exception and
never through work sized by a damaged count.  The file-level damage is
caught by the header checks and the deflate checksum; the two inflated
sections are attacked directly, as if that checksum had collided.
"""

import struct

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.io import FileBackedArchive
from repro.query import sidecar
from repro.query.stiu import ReferenceTuple, RegionEntry, StIUIndex
from repro.trajectories.datasets import load_dataset

PARTITION = 60  # most trajectories span several intervals


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    network, trajectories = load_dataset("CD", 6, seed=19, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    path = tmp_path_factory.mktemp("stiu-format") / "archive.utcq"
    archive.save(path)
    index = StIUIndex(network, archive, time_partition_seconds=PARTITION)
    sidecar.save_index(index, path)
    return network, archive, path, index


def spans_of(index):
    return {
        trajectory_id: (
            index.interval_of(tuples[0].start),
            index.interval_of(tuples[-1].start),
        )
        for trajectory_id, tuples in index._trajectory_tuples.items()
    }


def load(network, path):
    """``load_index`` with the spatial section forced through its parser
    (no silent rebuild): ``None``, or a fully materialised index."""
    with FileBackedArchive.open(path) as archive:
        index = sidecar.load_index(
            network, archive, path, time_partition_seconds=PARTITION
        )
        if index is not None:
            index._spatial = index._spatial_loader()
            index._spatial_loader = None
        return index


class TestFileDamage:
    def test_round_trip_shares_one_entry_per_trajectory_and_region(self, world):
        network, _, path, built = world
        loaded = load(network, path)
        assert loaded.temporal == built.temporal
        assert loaded.spatial == built.spatial
        for spatial in (built.spatial, loaded.spatial):
            entries = [
                (trajectory_id, region, id(entry))
                for region_map in spatial.values()
                for region, entry_map in region_map.items()
                for trajectory_id, entry in entry_map.items()
            ]
            pairs = {(t, r) for t, r, _ in entries}
            assert len(entries) > 2 * len(pairs)  # many intervals each
            assert len({e for _, _, e in entries}) == len(pairs)

    def test_every_truncation_point_is_a_format_error(self, world, tmp_path):
        network, _, path, _ = world
        data = sidecar.sidecar_path_for(path).read_bytes()
        cut_file = tmp_path / "cut.stiu"
        for cut in range(len(data)):
            cut_file.write_bytes(data[:cut])
            with pytest.raises(sidecar.SidecarFormatError):
                sidecar.read_sidecar(cut_file)

    def test_every_flipped_byte_loads_the_same_index_or_nothing(
        self, world, tmp_path
    ):
        """Header fields, fingerprint, section lengths, deflated bytes:
        a flip anywhere either leaves the index intact (the unused flags
        word) or makes ``load_index`` decline, so the caller rebuilds."""
        network, _, path, built = world
        pristine = sidecar.sidecar_path_for(path).read_bytes()
        target = sidecar.sidecar_path_for(path)
        outcomes = set()
        try:
            for offset in range(len(pristine)):
                for mask in (0x01, 0x80):
                    damaged = bytearray(pristine)
                    damaged[offset] ^= mask
                    target.write_bytes(bytes(damaged))
                    loaded = load(network, path)
                    outcomes.add(loaded is None)
                    if loaded is not None:
                        assert loaded.temporal == built.temporal
                        assert loaded.spatial == built.spatial
        finally:
            target.write_bytes(pristine)
        assert outcomes == {True, False}

    def test_version_1_sidecar_is_rebuilt_not_read(self, world, tmp_path):
        network, _, path, built = world
        target = sidecar.sidecar_path_for(path)
        pristine = target.read_bytes()
        data = bytearray(pristine)
        struct.pack_into("<H", data, 8, 1)
        try:
            target.write_bytes(bytes(data))
            with pytest.raises(
                sidecar.SidecarFormatError, match="unsupported sidecar version 1"
            ):
                sidecar.read_sidecar(target)
            index = StIUIndex.over_file(
                network, path, time_partition_seconds=PARTITION
            )
            try:
                assert not index.loaded_from_sidecar
                assert index.spatial == built.spatial
            finally:
                index.archive.close()
        finally:
            target.write_bytes(pristine)


class TestInflatedSections:
    """Past the deflate checksum: the varint streams themselves."""

    def test_sections_round_trip(self, world):
        _, _, _, index = world
        temporal, per_trajectory = sidecar._decode_temporal(
            sidecar._encode_temporal(index)
        )
        assert temporal == index.temporal
        assert per_trajectory == index._trajectory_tuples
        spatial = sidecar._decode_spatial(
            sidecar._encode_spatial(index), spans_of(index)
        )
        assert spatial == index.spatial

    def test_every_truncation_point_is_a_format_error(self, world):
        _, _, _, index = world
        temporal = sidecar._encode_temporal(index)
        for cut in range(len(temporal)):
            with pytest.raises(sidecar.SidecarFormatError):
                sidecar._decode_temporal(temporal[:cut])
        spatial = sidecar._encode_spatial(index)
        spans = spans_of(index)
        for cut in range(len(spatial)):
            with pytest.raises(sidecar.SidecarFormatError):
                sidecar._decode_spatial(spatial[:cut], spans)
        with pytest.raises(sidecar.SidecarFormatError, match="trailing"):
            sidecar._decode_temporal(temporal + b"\x00")
        with pytest.raises(sidecar.SidecarFormatError, match="trailing"):
            sidecar._decode_spatial(spatial + b"\x00", spans)

    def test_every_flipped_byte_parses_or_is_a_format_error(self, world):
        _, _, _, index = world
        spans = spans_of(index)
        entries = sum(
            len(entry_map)
            for region_map in index.spatial.values()
            for entry_map in region_map.values()
        )
        sections = [
            (sidecar._encode_temporal(index), sidecar._decode_temporal),
            (
                sidecar._encode_spatial(index),
                lambda data: sidecar._decode_spatial(data, spans),
            ),
        ]
        for blob, decode in sections:
            outcomes = set()
            for offset in range(len(blob)):
                for mask in (0x01, 0x80):
                    damaged = bytearray(blob)
                    damaged[offset] ^= mask
                    try:
                        decoded = decode(bytes(damaged))
                    except sidecar.SidecarFormatError:
                        outcomes.add("refused")
                        continue
                    outcomes.add("parsed")
                    if isinstance(decoded, dict):
                        # the temporal spans bound the fan-out: a damaged
                        # interval count cannot multiply the entries
                        assert (
                            sum(
                                len(entry_map)
                                for region_map in decoded.values()
                                for entry_map in region_map.values()
                            )
                            <= entries
                        )
            assert outcomes == {"refused", "parsed"}

    def test_a_span_the_temporal_layer_does_not_know_is_refused(self, world):
        """The one count that sizes work — how many intervals a
        trajectory's entries fan out to — is checked, not trusted."""
        _, _, _, index = world
        spans = spans_of(index)
        blob = sidecar._encode_spatial(index)
        victim = min(spans)
        first, last = spans[victim]
        for wrong in ((first, last + 10**9), (first + 1, last), (0, last)):
            with pytest.raises(sidecar.SidecarFormatError, match="spans"):
                sidecar._decode_spatial(blob, {**spans, victim: wrong})
        with pytest.raises(sidecar.SidecarFormatError, match="spans"):
            sidecar._decode_spatial(
                blob, {t: s for t, s in spans.items() if t != victim}
            )


class TestWriterRefusals:
    """Version 2 stores a trajectory's regions once; an index where that
    would lose something is refused at write, not flattened."""

    def rebuilt(self, world):
        network, archive, _, _ = world
        return StIUIndex(network, archive, time_partition_seconds=PARTITION)

    def multi_interval_entry(self, index):
        for interval in sorted(index.spatial):
            for region, entry_map in index.spatial[interval].items():
                for trajectory_id in entry_map:
                    later = index.spatial.get(interval + 1, {}).get(region, {})
                    if trajectory_id in later:
                        return interval, region, trajectory_id
        raise AssertionError("no trajectory spans two intervals")

    def test_tuples_that_differ_between_intervals(self, world, tmp_path):
        _, _, path, _ = world
        index = self.rebuilt(world)
        interval, region, trajectory_id = self.multi_interval_entry(index)
        entry = index.spatial[interval + 1][region][trajectory_id]
        index.spatial[interval + 1][region][trajectory_id] = RegionEntry(
            entry.references[:-1], entry.non_references
        )
        with pytest.raises(sidecar.SidecarFormatError, match="different tuples"):
            sidecar.save_index(index, path, sidecar_path=tmp_path / "x.stiu")

    def test_an_interval_missing_from_the_span(self, world, tmp_path):
        _, _, path, _ = world
        index = self.rebuilt(world)
        interval, region, trajectory_id = self.multi_interval_entry(index)
        del index.spatial[interval + 1][region][trajectory_id]
        with pytest.raises(sidecar.SidecarFormatError, match="same regions"):
            sidecar.save_index(index, path, sidecar_path=tmp_path / "x.stiu")

    def test_an_aggregate_that_is_not_a_pddp_sum(self, world, tmp_path):
        from repro.io import ArchiveFormatError

        _, _, path, _ = world
        index = self.rebuilt(world)
        interval, region, trajectory_id = self.multi_interval_entry(index)
        entry = index.spatial[interval][region][trajectory_id]
        first = entry.references[0]
        entry.references[0] = ReferenceTuple(
            first.instance_index,
            first.final_vertex,
            first.entry_number,
            first.distance_position,
            float("nan"),
            first.p_max,
        )
        with pytest.raises(ArchiveFormatError, match="exactly"):
            sidecar.save_index(index, path, sidecar_path=tmp_path / "x.stiu")


def test_a_slice_of_a_parsed_archive_needs_its_stats(world):
    """Parsed records carry no stats (the header holds the sum), so an
    archive assembled from them says so instead of reporting zeros."""
    _, archive, path, _ = world
    parsed = CompressedArchive.load(path)
    assert parsed.stats.original == archive.stats.original
    with pytest.raises(ValueError, match="pass stats="):
        CompressedArchive(params=parsed.params, trajectories=parsed.trajectories)
    again = CompressedArchive(
        params=parsed.params,
        trajectories=parsed.trajectories,
        stats=parsed.stats,
    )
    assert again.stats.compressed == archive.stats.compressed
