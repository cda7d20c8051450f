"""Resident bytes of the StIU spatial layer.

The paper's byte model (Fig. 9) prices a spatial tuple at 10–18 bytes;
in memory the layer is columns, one block of rows per trajectory plus a
derived per-interval CSR, so a materialised layer must stay within a
small multiple of that.  An object per tuple (a frozen dataclass inside
a per-(interval, region, trajectory) entry inside three levels of dicts)
took about 500 bytes here.

Measured with ``tracemalloc`` over deriving the whole spatial layer from
the records, both under a built index over the in-memory archive and
under one loaded from its sidecar over the file (which parses each
record it derives from, and keeps none); the temporal layer, the
network's shared grid tables and the file's time-span memo (warmed
first) are outside the measurement.
"""

import gc
import tracemalloc

import pytest

from repro.core.compressor import compress_dataset
from repro.io import FileBackedArchive
from repro.query import StIUIndex, sidecar
from repro.trajectories.datasets import load_dataset

BYTES_PER_TUPLE = 64


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    network, trajectories = load_dataset("CD", 300, seed=7, network_scale=12)
    archive = compress_dataset(network, trajectories, default_interval=10)
    path = tmp_path_factory.mktemp("stiu-memory") / "archive.utcq"
    archive.save(path)
    index = StIUIndex(network, archive)
    sidecar.save_index(index, path)
    return network, index, path


def held_bytes(step) -> int:
    """Bytes still allocated after ``step()`` that were not before."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        step()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before


def tuple_count(layer) -> int:
    """Stored spatial tuples (each once, whatever its interval span)."""
    return len(layer.references[0]) + layer.non_reference_start[-1]


def materialise(index) -> None:
    index.spatial.intervals()


def test_a_built_spatial_layer_holds_a_few_bytes_per_tuple(world):
    network, built, _ = world
    materialise(built)  # the grid's edge and hop tables, warmed
    index = StIUIndex(network, built.archive)
    size = held_bytes(lambda: materialise(index))
    tuples = tuple_count(index.spatial)
    assert tuples == tuple_count(built.spatial)
    assert tuples > 10_000
    assert size <= BYTES_PER_TUPLE * tuples, size / tuples


def test_a_loaded_spatial_layer_holds_a_few_bytes_per_tuple(world):
    network, built, path = world
    materialise(built)
    with FileBackedArchive.open(path) as archive:
        loaded = sidecar.load_index(network, archive, path)
        assert loaded.loaded_from_sidecar
        # a parse memoises the record's time span in the archive: the
        # archive's bytes, not the layer's
        for trajectory_id in archive.trajectory_ids():
            archive.trajectory(trajectory_id)
        size = held_bytes(lambda: materialise(loaded))
        tuples = tuple_count(loaded.spatial)
        assert tuples == tuple_count(built.spatial)
        assert size <= BYTES_PER_TUPLE * tuples, size / tuples
