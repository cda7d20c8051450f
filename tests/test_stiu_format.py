"""Hostile input to the ``.stiu`` version-2 parser, and what its writer
refuses.

A sidecar is a cache: whatever is wrong with it, the answer is the
correct index (loaded, or rebuilt from the archive) — reached through
``SidecarFormatError`` / ``None``, never through another exception and
never through work sized by a damaged count.  The file-level damage is
caught by the header checks and the deflate checksum; the two inflated
sections are attacked directly, as if that checksum had collided.
"""

import shutil
import struct
import tracemalloc

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.io import FileBackedArchive
from repro.query import sidecar
from repro.io.format import write_uvarints
from repro.query.stiu import SpatialLayer, StIUIndex
from repro.trajectories.datasets import load_dataset

from test_stiu_golden import spatial_rows

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


def rows(index_or_layer):
    """The spatial layer's row view, as a list."""
    layer = getattr(index_or_layer, "spatial", index_or_layer)
    return list(spatial_rows(layer))


def section(values) -> bytes:
    out = bytearray()
    write_uvarints(out, values)
    return bytes(out)


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
        """Every interval's CSR points at the trajectory's one region
        row: the tuples are stored once, however many intervals."""
        network, _, path, built = world
        loaded = load(network, path)
        assert loaded.temporal == built.temporal
        assert rows(loaded) == rows(built)
        for layer in (built.spatial, loaded.spatial):
            pointed = [
                (rows_.trajectory_ids[k], rows_.rows[k])
                for rows_ in layer.intervals().values()
                for k in range(len(rows_.rows))
            ]
            assert len(pointed) > 2 * len(layer.cells)  # many intervals each
            assert {row for _, row in pointed} == set(range(len(layer.cells)))
            assert len(set(pointed)) == len(layer.cells)

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
                        assert rows(loaded) == rows(built)
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
                assert rows(index) == rows(built)
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
        assert rows(spatial) == rows(index)

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
        entries = len(rows(index))
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
                    if isinstance(decoded, SpatialLayer):
                        # the temporal spans bound the fan-out: a damaged
                        # interval count cannot multiply the entries
                        assert len(rows(decoded)) <= entries
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


    def test_a_forged_count_is_refused_before_any_work(self):
        """Each count field is checked against the values left in the
        section: 2**30 of anything is refused at once, and the parse
        allocates about what the section itself takes."""
        spans = {7: (3, 3)}
        block = [7, 3, 0]  # id, first interval, extra intervals
        forged = {
            "trajectory": [2**30, 0],
            "region": [1, 0, *block, 2**30],
            "reference": [1, 0, *block, 1, 5, 2**30],
            "non-reference": [1, 0, *block, 1, 5, 0, 2**30],
        }
        for what, values in forged.items():
            data = section(values + [0] * 16)
            tracemalloc.start()
            try:
                with pytest.raises(
                    sidecar.SidecarFormatError, match=f"{what} count"
                ):
                    sidecar._decode_spatial(data, spans)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, what

    def test_a_trajectory_or_region_listed_twice_is_refused(self):
        """One block per trajectory and one row per region in it: a
        section that repeats either (which no writer produces) is
        damage, not a second set of tuples."""
        spans = {7: (3, 3)}
        region = [5, 1, 0, 0, 0, 0, 1, 1, 0]  # cell 5: one reference, no non-ref
        twice = [2, 0, 7, 3, 0, 1, *region, 0, 3, 0, 1, *region]
        with pytest.raises(sidecar.SidecarFormatError, match="listed twice"):
            sidecar._decode_spatial(section(twice), spans)
        again = [0, 1, 0, 0, 0, 0, 1, 1, 0]  # the same cell again
        with pytest.raises(sidecar.SidecarFormatError, match="twice"):
            sidecar._decode_spatial(
                section([1, 0, 7, 3, 0, 2, *region, *again]), spans
            )
        # the well-formed single block parses
        layer = sidecar._decode_spatial(
            section([1, 0, 7, 3, 0, 1, *region]), spans
        )
        assert [(i, c, t) for i, c, t, _ in spatial_rows(layer)] == [(3, 5, 7)]


class TestWriterRefusals:
    """An index holding something version 2 cannot store is refused at
    write, not flattened."""

    def test_an_aggregate_that_is_not_a_pddp_sum(self, world, tmp_path):
        from repro.io import ArchiveFormatError

        network, archive, path, _ = world
        copy = tmp_path / "x.utcq"  # the world's own sidecar stays intact
        shutil.copyfile(path, copy)
        index = StIUIndex(network, archive, time_partition_seconds=PARTITION)
        index.spatial.references[4][0] = float("nan")  # p_total
        with pytest.raises(ArchiveFormatError, match="exactly"):
            sidecar.save_index(index, copy)


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
