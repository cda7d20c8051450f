"""The StIU index is pinned: same structures, same ``.stiu`` bytes.

The index builder is free to get faster, not to change what it builds.
Two guards:

* the golden dataset of ``test_golden_archive.py`` must produce the
  ``.stiu`` sidecar bytes (the temporal layer) and the in-memory
  ``temporal`` / ordered ``spatial`` fields a query reads (the spatial
  ones derived from the records) recorded from the builder that still
  kept every field of the paper's tuples, at the default 30-minute time
  partition and at a 60-second one that makes most trajectories span
  several intervals;
* on random small networks and datasets the builder must equal
  :func:`reference_index`, §5.2 spelled out the slow way (full decode,
  every edge rasterised on the spot, linear scans).

``p_total`` is a float sum of PDDP-decoded probabilities — multiples of
one small power of two, so the sum is exact whatever the order, which is
what lets the sidecar store it as a numerator; the reference still sums
in the builder's order.
"""

import hashlib

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bits.bitio import BitReader
from repro.core.archive import reference_index_width
from repro.core.compressor import UTCQCompressor
from repro.core.decoder import (
    decode_times,
    decode_trajectory_tuples,
    read_probability,
)
from repro.core.factors import read_edge_factors
from repro.io.format import write_archive
from repro.network.generators import perturbed_grid_network
from repro.network.grid import GridPartition
from repro.query import StIUIndex, save_index
from repro.query.sidecar import _HEADER, _encode_temporal, read_sidecar
from repro.query.stiu import INFINITE_VERTEX, between
from repro.trajectories.generators import GenerationConfig, generate_dataset

from test_golden_archive import GOLDEN_SHA256, PROVENANCE, golden_setup  # noqa: F401

def spatial_rows(layer):
    """The spatial layer's row view: ``(interval, region, trajectory_id,
    (references, non_references))`` for every (interval, region,
    trajectory), in that key order: ``references`` a tuple of plain
    tuples of the reference columns' values, ``non_references`` the
    count of non-reference tuples."""
    for interval, pairs in sorted(layer.intervals().items()):
        for slot, cell in enumerate(pairs.cells):
            for k in between(pairs.cell_start, slot):
                trajectory_id = pairs.trajectory_ids[k]
                row = layer.row_of(trajectory_id, cell)
                span = between(layer.reference_start, row)
                entry = (
                    tuple(
                        zip(
                            *(
                                column[span.start : span.stop]
                                for column in layer.references
                            )
                        )
                    ),
                    len(between(layer.non_reference_start, row)),
                )
                yield interval, cell, trajectory_id, entry


def spatial_map(index: StIUIndex) -> dict:
    """``{interval: {region: {trajectory_id: (references,
    non_references)}}}`` read off the index's row view."""
    spatial: dict = {}
    for interval, region, trajectory_id, entry in spatial_rows(index.spatial):
        spatial.setdefault(interval, {}).setdefault(region, {})[
            trajectory_id
        ] = entry
    return spatial


# time partition -> (.stiu SHA-256, structure digest).  The structure
# digests are of the fields a query reads, recorded from the builder
# that still kept every field of the paper's tuples (it must not move
# when a field no query reads goes); the .stiu digests are of sidecar
# format v4, which stores the temporal layer's t.start alone.
GOLDEN_INDEX = {
    1800: (
        "a2bff77d53f5a3d65dab0956b935ce222e07dfb9437abb8654c5b387e6bcc6e5",
        "08f9677ffebf784ba5606893d7e405d6d8f85773cbf0533874064f45c307838e",
    ),
    60: (
        "53708a08c43849db1246a3346846286f7d45cd8f994b222608323a6bc02bc7c0",
        "f9a2d73729bf71863898509fca59274e99b08921d246d6b39e0e44fb8d4be5fc",
    ),
}


def structure_digest(index: StIUIndex) -> str:
    """SHA-256 over what a query reads of the index: each temporal
    ``t.start``, and per (interval, region, trajectory) its Lemma 4 mass,
    its reference tuples (``instance``, ``fv.id``, ``p_total``,
    ``p_max``) and its count of non-reference tuples (Fig. 9 multiplies
    it).  Key order, floats by ``repr`` (exact)."""
    digest = hashlib.sha256()
    for interval in sorted(index.temporal):
        for tid in sorted(index.temporal[interval]):
            start = index.temporal[interval][tid]
            digest.update(repr((interval, tid, start)).encode())
    masses = (
        mass
        for _, pairs in sorted(index.spatial.intervals().items())
        for mass in pairs.mass
    )
    for (interval, region, tid, (references, non_references)), mass in zip(
        spatial_rows(index.spatial), masses
    ):
        digest.update(
            repr(
                (interval, region, tid, mass, list(references), non_references)
            ).encode()
        )
    return digest.hexdigest()


def test_golden_index_bytes_are_pinned(golden_setup, tmp_path):  # noqa: F811
    network, _, archive = golden_setup
    path = tmp_path / "golden.utcq"
    write_archive(archive, path, provenance=PROVENANCE)
    # the sidecar embeds the archive's SHA-256, so it is pinned with it
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256
    for partition, (sidecar_sha, structure_sha) in GOLDEN_INDEX.items():
        index = StIUIndex(network, archive, time_partition_seconds=partition)
        assert structure_digest(index) == structure_sha, partition
        sidecar = save_index(index, path)
        digest = hashlib.sha256(sidecar.read_bytes()).hexdigest()
        assert digest == sidecar_sha, (
            f"time partition {partition}: .stiu bytes changed "
            f"({digest} != pinned {sidecar_sha})"
        )


# ----------------------------------------------------------------------
# the mechanism of sidecar formats v3 and v4: only what cannot be
# derived is stored
# ----------------------------------------------------------------------
def test_golden_files_are_smaller_than_their_input(golden_setup, tmp_path):  # noqa: F811
    """Table 8 read off the disk: archive plus sidecar against the
    paper's uncompressed size.  25 trajectories is where the fixed
    headers weigh most; format v1 took 1.50x the raw bytes here, format
    v2 (which stored the spatial layer) 0.9x."""
    network, _, archive = golden_setup
    path = tmp_path / "golden.utcq"
    archive_bytes = write_archive(archive, path, provenance=PROVENANCE)
    sidecar_bytes = save_index(StIUIndex(network, archive), path).stat().st_size
    raw_bytes = archive.stats.original.total / 8
    assert archive_bytes + sidecar_bytes <= 0.5 * raw_bytes


def test_the_sidecar_stores_the_temporal_layer_alone(
    golden_setup, tmp_path  # noqa: F811
):
    """The spatial layer is derived, not stored: the file is the header
    and the deflated temporal section, however far the spatial rows fan
    out over the intervals and whatever the grid."""
    network, _, archive = golden_setup
    path = tmp_path / "golden.utcq"
    write_archive(archive, path, provenance=PROVENANCE)
    sizes = {}
    entries = {}
    for partition in (1800, 60):
        for cells in (8, 32):
            index = StIUIndex(
                network,
                archive,
                grid_cells_per_side=cells,
                time_partition_seconds=partition,
            )
            target = save_index(index, path)
            document = read_sidecar(target)
            assert document["temporal_blob"] == _encode_temporal(index)
            assert target.stat().st_size == (
                _HEADER.size + document["temporal_bytes"]
            )
            sizes[partition, cells] = target.stat().st_size
            entries[partition, cells] = sum(
                1 for _ in spatial_rows(index.spatial)
            )
    # the index fans out over the intervals and the cells; the bytes do
    # not follow either
    assert entries[60, 32] > 3 * entries[1800, 32]
    assert entries[60, 32] > entries[60, 8]
    assert sizes[60, 8] == sizes[60, 32]
    assert sizes[1800, 8] == sizes[1800, 32]


# ----------------------------------------------------------------------
# reference builder: §5.2 without any of the builder's shortcuts
# ----------------------------------------------------------------------
def reference_index(network, archive, cells_per_side, partition):
    """``(temporal, spatial, shapes)``: the two layers as the paper
    describes them (``spatial`` in the shape of :func:`spatial_map`),
    and which of the awkward cases the input held."""
    shapes = set()
    box = GridPartition.for_network(network, cells_per_side).box
    grid = GridPartition(box, cells_per_side)  # no edge table of its own
    params = archive.params
    temporal: dict = {}
    spatial: dict = {}
    for trajectory in archive.trajectories:
        tid = trajectory.trajectory_id
        for t in decode_times(trajectory, params):
            if tid not in temporal.setdefault(t // partition, {}):
                temporal[t // partition][tid] = t

        instances = trajectory.instances
        tuples = decode_trajectory_tuples(trajectory, params)
        visits = []  # per instance: region entries
        for encoded in tuples:
            seen, current, entered = set(), encoded.start_vertex, []
            for k, number in enumerate(encoded.edge_numbers):
                if number:
                    edge = network.edge_by_number(current, number)
                    a, b = network.vertex(edge.start), network.vertex(edge.end)
                    for region in grid.cells_of_segment(a.x, a.y, b.x, b.y):
                        if region not in seen:
                            seen.add(region)
                            entered.append((region, k, current))
                    current = edge.end
            visits.append(entered)

        def entry(interval, region):
            return (
                spatial.setdefault(interval, {})
                .setdefault(region, {})
                .setdefault(tid, ([], [0]))
            )

        first = trajectory.start_time // partition
        last = trajectory.end_time // partition
        if last > first:
            shapes.add("trajectory over several intervals")
        ordinals = dict.fromkeys(i.reference_ordinal for i in instances)
        for interval in range(first, last + 1):
            for ordinal in ordinals:
                members = [
                    i
                    for i, inst in enumerate(instances)
                    if inst.reference_ordinal == ordinal
                ]
                ref = next(i for i in members if instances[i].is_reference)
                for region in dict.fromkeys(
                    r for m in members for r, _, _ in visits[m]
                ):
                    present = set(
                        m for m in members if any(r == region for r, _, _ in visits[m])
                    )
                    p_total = sum(instances[m].probability for m in present)
                    p_max = max(
                        (instances[m].probability for m in present if m != ref),
                        default=0.0,
                    )
                    hit = [fv for r, _, fv in visits[ref] if r == region]
                    if hit:
                        made = (ref, hit[0], p_total, p_max)
                    else:
                        shapes.add("fv = inf")
                        made = (ref, INFINITE_VERTEX, p_total, p_max)
                    entry(interval, region)[0].append(made)
                for m in members:
                    if m == ref:
                        continue
                    reader = BitReader(instances[m].payload, instances[m].payload_bits)
                    read_probability(reader, params.eta_probability)
                    reader.read_uint(
                        reference_index_width(trajectory.reference_count)
                    )
                    factors = read_edge_factors(
                        reader, len(tuples[ref].edge_numbers), params.symbol_width
                    )
                    used = set()
                    for region, k, _ in visits[m]:
                        cursor = 0
                        for f_index, factor in enumerate(factors):
                            if cursor <= k < cursor + factor.consumed:
                                break
                            cursor += factor.consumed
                        else:
                            continue
                        if f_index in used:
                            # a factor is indexed at its first region only
                            shapes.add("factor over several regions")
                            continue
                        used.add(f_index)
                        entry(interval, region)[1][0] += 1
    spatial = {
        interval: {
            region: {
                tid: (tuple(references), non_references[0])
                for tid, (references, non_references) in entries.items()
            }
            for region, entries in regions.items()
        }
        for interval, regions in spatial.items()
    }
    return temporal, spatial, shapes


CONFIG = GenerationConfig(
    default_interval=10,
    deviation_fractions=(0.5, 0.2, 0.2, 0.05, 0.05),
    mean_instances=6.0,
    max_instances=14,
    mean_edges=9.0,
    max_edges=20,
    min_edges=3,
)


def _case(network_seed, dataset_seed, count, pivots):
    network = perturbed_grid_network(5, 5, spacing=120.0, seed=network_seed)
    trajectories = generate_dataset(network, CONFIG, count, seed=dataset_seed)
    compressor = UTCQCompressor(
        network=network,
        default_interval=CONFIG.default_interval,
        pivot_count=pivots,
        seed=dataset_seed,
    )
    return network, compressor.compress(trajectories)


def test_reference_case_covers_the_hard_shapes():
    """The generator settings the property test draws from do produce
    multi-interval trajectories, ``fv = inf`` tuples and multi-region
    factors — otherwise the property below would prove little."""
    network, archive = _case(3, 5, 12, 2)
    index = StIUIndex(
        network, archive, grid_cells_per_side=6, time_partition_seconds=45
    )
    temporal, spatial, shapes = reference_index(network, archive, 6, 45)
    assert shapes == {
        "trajectory over several intervals",
        "fv = inf",
        "factor over several regions",
    }
    assert max(len(t.instances) for t in archive.trajectories) > 8
    assert index.temporal == temporal
    assert spatial_map(index) == spatial


@settings(max_examples=25, deadline=None)
@given(
    network_seed=st.integers(0, 50),
    dataset_seed=st.integers(0, 10_000),
    count=st.integers(1, 8),
    pivots=st.integers(1, 3),
    cells_per_side=st.integers(1, 12),
    partition=st.sampled_from([20, 45, 90, 600]),
)
def test_builder_matches_reference(
    network_seed, dataset_seed, count, pivots, cells_per_side, partition
):
    network, archive = _case(network_seed, dataset_seed, count, pivots)
    index = StIUIndex(
        network,
        archive,
        grid_cells_per_side=cells_per_side,
        time_partition_seconds=partition,
    )
    temporal, spatial, shapes = reference_index(
        network, archive, cells_per_side, partition
    )
    assume("trajectory over several intervals" in shapes)
    assert index.temporal == temporal
    assert spatial_map(index) == spatial
    # blocks are derived in whatever order queries ask for them
    again = StIUIndex(
        network,
        archive,
        grid_cells_per_side=cells_per_side,
        time_partition_seconds=partition,
    )
    for trajectory in reversed(archive.trajectories):
        again.spatial.block_of(trajectory.trajectory_id)
    assert spatial_map(again) == spatial
