"""Property-based equivalence: compaction never changes what's stored.

The load-bearing invariant of the segment lifecycle is that background
merges only *regroup* record bytes — so however many size-tiered
merges ran, at whatever points of the ingest stream, the
archive answers queries identically and the canonical one-shot
``compact()`` output is byte-identical (SHA-256) to a run that never
compacted at all.  Hypothesis drives random trip streams, rotation
sizes, policy parameters, and merge schedules at that invariant.  A
merge derives its ``.stiu`` sidecar by unioning its sources' sidecars;
under any schedule the bytes equal indexing the merged segment afresh.
"""

import hashlib
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import read_archive
from repro.network.generators import grid_network
from repro.network.grid import Rect
from repro.query import StIUIndex, save_index
from repro.stream import (
    AppendableArchiveWriter,
    LiveArchive,
    SizeTieredPolicy,
    compact,
    drain_compactions,
    load_manifest,
)
from repro.trajectories.model import (
    MappedLocation,
    TrajectoryInstance,
    UncertainTrajectory,
)

NETWORK = grid_network(4, 4, spacing=100.0)
EDGES = [(e.start, e.end) for e in NETWORK.edges()]


def _trip(trajectory_id: int, edge_index: int, t0: int, duration: int):
    key = EDGES[edge_index % len(EDGES)]
    other = EDGES[(edge_index + 7) % len(EDGES)]
    instances = [
        TrajectoryInstance(
            path=[key],
            locations=[MappedLocation(key, 0.0), MappedLocation(key, 1.0)],
            probability=0.6,
        ),
        TrajectoryInstance(
            path=[other],
            locations=[MappedLocation(other, 0.0), MappedLocation(other, 1.0)],
            probability=0.4,
        ),
    ]
    return UncertainTrajectory(trajectory_id, instances, [t0, t0 + duration])


def _writer(directory, segment_max):
    return AppendableArchiveWriter(
        directory,
        NETWORK,
        default_interval=10,
        segment_max_trajectories=segment_max,
    )


trip_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(EDGES) - 1),  # edge
        st.integers(min_value=0, max_value=5_000),  # t0
        st.integers(min_value=10, max_value=300),  # duration
    ),
    min_size=2,
    max_size=10,
)

policies = st.builds(
    SizeTieredPolicy,
    min_merge=st.integers(2, 4),
    max_merge=st.integers(4, 6),
    size_ratio=st.sampled_from([1.5, 4.0, 16.0]),
)


def _answers(directory):
    """Query fingerprint of an archive directory via the live view."""
    rows = []
    with LiveArchive(directory) as live:
        processor = live.query_processor(NETWORK)
        for trajectory_id in sorted(live.trajectory_ids()):
            trajectory = live.trajectory(trajectory_id)
            t = (trajectory.start_time + trajectory.end_time) // 2
            rows.append(processor.where(trajectory_id, t, alpha=0.1))
            rows.append(
                processor.range(Rect(0.0, 0.0, 150.0, 150.0), t, alpha=0.05)
            )
        misses = live.sidecar_misses
    return rows, misses


def _compact_sha(directory, output) -> str:
    compact(directory, output)
    return hashlib.sha256(Path(output).read_bytes()).hexdigest()


def _assert_sidecars_equal_fresh_builds(directory, scratch) -> None:
    """Every segment's ``.stiu`` is byte-for-byte what indexing that
    segment from its records produces."""
    for entry in load_manifest(directory)["segments"]:
        segment = Path(directory) / "segments" / entry["name"]
        copy = Path(scratch) / entry["name"]
        shutil.copyfile(segment, copy)
        fresh = save_index(StIUIndex(NETWORK, read_archive(copy)), copy)
        stored = Path(str(segment) + ".stiu")
        assert stored.read_bytes() == fresh.read_bytes(), entry["name"]


@settings(max_examples=20, deadline=None)
@given(
    specs=trip_specs,
    segment_max=st.integers(1, 4),
    policy=policies,
    schedule=st.lists(st.booleans(), min_size=0, max_size=10),
)
def test_any_merge_schedule_is_equivalent_to_never_compacting(
    specs, segment_max, policy, schedule
):
    trips = [
        _trip(i, edge, t0, duration)
        for i, (edge, t0, duration) in enumerate(specs)
    ]
    with tempfile.TemporaryDirectory() as base:
        oracle_dir = Path(base) / "oracle"
        subject_dir = Path(base) / "subject"

        with _writer(oracle_dir, segment_max) as writer:
            for trip in trips:
                writer.append(trip)

        with _writer(subject_dir, segment_max) as writer:
            for i, trip in enumerate(trips):
                writer.append(trip)
                # interleave background merges at hypothesis-chosen points
                if i < len(schedule) and schedule[i]:
                    drain_compactions(writer, policy=policy)
            drain_compactions(writer, policy=policy)

        # the segments partition the id space, in order, whatever ran
        manifest = load_manifest(subject_dir)
        covered = [
            trajectory_id
            for entry in manifest["segments"]
            for trajectory_id in range(
                entry["min_trajectory_id"], entry["max_trajectory_id"] + 1
            )
        ]
        assert covered == list(range(len(trips)))
        # aggregate stats survive any schedule unchanged
        assert manifest["stats"] == load_manifest(oracle_dir)["stats"]

        # StIU answers match the never-compacted oracle, and the merged
        # view was assembled purely from sidecars (no index rebuild)
        subject_answers, subject_misses = _answers(subject_dir)
        oracle_answers, _ = _answers(oracle_dir)
        assert subject_answers == oracle_answers
        assert subject_misses == 0
        _assert_sidecars_equal_fresh_builds(subject_dir, base)

        # the canonical compacted archive is byte-identical
        assert _compact_sha(
            subject_dir, Path(base) / "subject.utcq"
        ) == _compact_sha(oracle_dir, Path(base) / "oracle.utcq")

        # the compacted sidecar, the union of the segments' sidecars, is
        # byte for byte a fresh index of the compacted archive
        indexed = Path(base) / "indexed.utcq"
        _, _, sidecar = compact(subject_dir, indexed, network=NETWORK)
        copy = Path(base) / "indexed-copy.utcq"
        shutil.copyfile(indexed, copy)
        fresh = save_index(StIUIndex(NETWORK, read_archive(copy)), copy)
        assert sidecar.read_bytes() == fresh.read_bytes()


def test_stale_or_missing_source_sidecar_is_rebuilt_not_trusted(tmp_path):
    """A merge re-indexes exactly the sources whose sidecar it cannot
    use: the merged sidecar still equals a fresh build."""
    with _writer(tmp_path / "live", 1) as writer:
        for i in range(4):
            writer.append(_trip(i, 3 * i, 100 * i, 60))
        segments = tmp_path / "live" / "segments"
        manifest = load_manifest(tmp_path / "live")
        names = [entry["name"] for entry in manifest["segments"]]
        assert len(names) == 4
        # source 0: another segment's sidecar (stale fingerprint);
        # source 1: no sidecar at all
        (segments / (names[0] + ".stiu")).write_bytes(
            (segments / (names[3] + ".stiu")).read_bytes()
        )
        (segments / (names[1] + ".stiu")).unlink()
        stats = drain_compactions(
            writer, policy=SizeTieredPolicy(min_merge=4, max_merge=4)
        )
        assert stats.merges == 1
    _assert_sidecars_equal_fresh_builds(tmp_path / "live", tmp_path)
    _, misses = _answers(tmp_path / "live")
    assert misses == 0


# ----------------------------------------------------------------------
# pure policy properties (no filesystem): plans are always well-formed
# ----------------------------------------------------------------------
segment_infos = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=1 << 20),  # file_bytes
        st.integers(min_value=0, max_value=5),  # level
        st.integers(min_value=1, max_value=50),  # trajectories per segment
    ),
    min_size=0,
    max_size=16,
)


def _build_infos(raw):
    from repro.stream import SegmentInfo

    infos = []
    next_id = 0
    for index, (file_bytes, level, count) in enumerate(raw):
        infos.append(
            SegmentInfo(
                name=f"seg-{index:05d}.utcq",
                trajectory_count=count,
                instance_count=count,
                min_trajectory_id=next_id,
                max_trajectory_id=next_id + count - 1,
                min_time=0,
                max_time=100,
                file_bytes=file_bytes,
                level=level,
            )
        )
        next_id += count
    return infos


@settings(max_examples=100, deadline=None)
@given(raw=segment_infos, policy=policies)
def test_policy_plans_are_well_formed(raw, policy):
    infos = _build_infos(raw)
    task = policy.plan(infos)
    if task is None:
        return
    names = task.names
    known = {info.name for info in infos}
    assert len(set(names)) == len(names) >= 2
    assert set(names) <= known
    assert task.target_level > min(s.level for s in task.segments)
    assert len(names) <= policy.max_merge

