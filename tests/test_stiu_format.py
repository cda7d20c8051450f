"""Hostile input to the ``.stiu`` version-4 parser.

A sidecar is a cache: whatever is wrong with it, the answer is the
correct index (loaded, or rebuilt from the archive) — reached through
``SidecarFormatError`` / ``None``, never through another exception and
never through work sized by a damaged count.  The file-level damage is
caught by the header checks and the deflate checksum; the inflated
temporal section is attacked directly, as if that checksum had
collided.  The spatial rows are derived from the archive, so a loaded
index must derive exactly the rows of a built one.
"""

import struct
import tracemalloc
import zlib

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.io import FileBackedArchive
from repro.query import sidecar
from repro.io.format import write_uvarints
from repro.query.stiu import StIUIndex
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


def rows(index_or_layer):
    """The spatial layer's row view, as a list."""
    layer = getattr(index_or_layer, "spatial", index_or_layer)
    return list(spatial_rows(layer))


def section(values) -> bytes:
    out = bytearray()
    write_uvarints(out, values)
    return bytes(out)


def load(network, path):
    """``load_index``: ``None``, or the loaded index with every spatial
    row derived (while its archive is open)."""
    with FileBackedArchive.open(path) as archive:
        index = sidecar.load_index(
            network, archive, path, time_partition_seconds=PARTITION
        )
        if index is not None:
            index.spatial.intervals()
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
                (tid, layer.row_of(tid, cell))
                for rows_ in layer.intervals().values()
                for slot, cell in enumerate(rows_.cells)
                for tid in rows_.trajectory_ids[
                    rows_.cell_start[slot] : rows_.cell_start[slot + 1]
                ]
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


    def test_version_2_sidecar_is_rebuilt_not_read(self, world, tmp_path):
        """Version 2 stored the spatial layer after the temporal section
        (and its length in the header); such a file is refused and the
        index built from the records."""
        network, _, path, built = world
        target = sidecar.sidecar_path_for(path)
        pristine = target.read_bytes()
        document = sidecar.read_sidecar(target)
        temporal = pristine[sidecar._HEADER.size :]
        spatial = zlib.compress(b"\x00\x00")
        fields = [document[name] for name in sidecar._HEADER_FIELDS]
        fields[1] = 2  # version
        header = struct.pack("<8sHHQ32sIIQQQ", *fields, len(spatial))
        try:
            target.write_bytes(header + temporal + spatial)
            with pytest.raises(
                sidecar.SidecarFormatError, match="unsupported sidecar version 2"
            ):
                sidecar.read_sidecar(target)
            assert load(network, path) is None
            index = StIUIndex.over_file(
                network, path, time_partition_seconds=PARTITION
            )
            try:
                assert not index.loaded_from_sidecar
                assert index.temporal == built.temporal
                assert rows(index) == rows(built)
            finally:
                index.archive.close()
        finally:
            target.write_bytes(pristine)

    def test_version_3_sidecar_is_rebuilt_not_read(self, world, tmp_path):
        """Version 3 entries also carried ``t.no`` and ``t.pos``; its
        temporal section, four varints an entry, is refused by version,
        never parsed as two-varint entries, and the index is built from
        the records."""
        network, _, path, built = world
        target = sidecar.sidecar_path_for(path)
        pristine = target.read_bytes()
        values = [len(built.temporal)]
        for interval in sorted(built.temporal):
            entries = built.temporal[interval]
            values += (interval, len(entries))
            previous = 0
            for number, trajectory_id in enumerate(sorted(entries)):
                values += (
                    trajectory_id - previous, entries[trajectory_id], number, 17
                )
                previous = trajectory_id
        blob = zlib.compress(section(values), 6)
        fields = [
            sidecar.read_sidecar(target)[name]
            for name in sidecar._HEADER_FIELDS
        ]
        fields[1] = 3  # version
        fields[-1] = len(blob)
        try:
            target.write_bytes(sidecar._HEADER.pack(*fields) + blob)
            with pytest.raises(
                sidecar.SidecarFormatError, match="unsupported sidecar version 3"
            ):
                sidecar.read_sidecar(target)
            assert load(network, path) is None
            index = StIUIndex.over_file(
                network, path, time_partition_seconds=PARTITION
            )
            try:
                assert not index.loaded_from_sidecar
                assert index.temporal == built.temporal
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
        assert per_trajectory == index._trajectory_starts

    def test_every_truncation_point_is_a_format_error(self, world):
        _, _, _, index = world
        temporal = sidecar._encode_temporal(index)
        for cut in range(len(temporal)):
            with pytest.raises(sidecar.SidecarFormatError):
                sidecar._decode_temporal(temporal[:cut])
        with pytest.raises(sidecar.SidecarFormatError, match="trailing"):
            sidecar._decode_temporal(temporal + b"\x00")

    def test_every_flipped_byte_parses_or_is_a_format_error(self, world):
        _, _, _, index = world
        blob = sidecar._encode_temporal(index)
        tuples = sum(len(entries) for entries in index.temporal.values())
        outcomes = set()
        for offset in range(len(blob)):
            for mask in (0x01, 0x80):
                damaged = bytearray(blob)
                damaged[offset] ^= mask
                try:
                    temporal, _ = sidecar._decode_temporal(bytes(damaged))
                except sidecar.SidecarFormatError:
                    outcomes.add("refused")
                    continue
                outcomes.add("parsed")
                # a damaged count cannot multiply the tuples
                assert sum(map(len, temporal.values())) <= tuples
        assert outcomes == {"refused", "parsed"}

    def test_a_forged_count_is_refused_before_any_work(self):
        """A count field sizes no work: the parse runs off the values
        the section holds, so 2**30 of anything is refused at once and
        allocates about what the section itself takes."""
        forged = {
            "interval": [2**30],
            "entry": [1, 5, 2**30],
        }
        for what, values in forged.items():
            data = section(values + [0] * 16)
            tracemalloc.start()
            try:
                with pytest.raises(sidecar.SidecarFormatError, match="truncated"):
                    sidecar._decode_temporal(data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, what


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
