"""Crash recovery for the stream tier, proven by fault injection.

Every durability-relevant operation (fsync, rename, unlink) the writer,
compaction, one-shot ``compact()`` and GC perform goes through the
injectable :class:`~repro.io.durable.Filesystem` seam.  The suite first
runs each workload cleanly to *count* those boundaries, then replays it
once per boundary with a :class:`FaultingFilesystem` that dies there —
before and after the operation — and asserts that a restart recovers a
consistent manifest, loses no sealed trip, strands no file, and that
the eventual one-shot ``compact()`` output is byte-identical to the
never-crashed run.
"""

import hashlib

import pytest

from repro.io.format import read_archive
from repro.network.generators import grid_network
from repro.stream import (
    AppendableArchiveWriter,
    LiveArchive,
    StreamArchiveError,
    compact,
    load_manifest,
)
from repro.stream.compaction import SizeTieredPolicy, gc_segments, merge_segments
from repro.stream.manifest import (
    DEFAULT_FS,
    Filesystem,
    ManifestStore,
    recover,
)
from repro.trajectories.model import (
    MappedLocation,
    TrajectoryInstance,
    UncertainTrajectory,
)

TRIPS = 5
SEGMENT_MAX = 2


class InjectedFault(RuntimeError):
    """The simulated process kill."""


class FaultingFilesystem(Filesystem):
    """Counts durability boundaries; raises at the chosen one.

    ``mode="before"`` kills just before the operation (it never
    happens), ``mode="after"`` just after (it is durable, but nothing
    later is).  With ``fail_at=None`` it only counts, which is how the
    tests learn how many boundaries a clean run crosses.
    """

    def __init__(self, fail_at: int | None = None, mode: str = "before"):
        assert mode in ("before", "after")
        self.fail_at = fail_at
        self.mode = mode
        self.ops = 0
        self.trace: list[tuple[str, str]] = []

    def _boundary(self, kind: str, label: str, run) -> None:
        self.ops += 1
        self.trace.append((kind, label))
        mine = self.ops == self.fail_at
        if mine and self.mode == "before":
            raise InjectedFault(f"killed before {kind} {label} (op {self.ops})")
        run()
        if mine and self.mode == "after":
            raise InjectedFault(f"killed after {kind} {label} (op {self.ops})")

    def fsync_fileno(self, fileno: int, label: str) -> None:
        self._boundary(
            "fsync", label, lambda: Filesystem.fsync_fileno(self, fileno, label)
        )

    def replace(self, source, target) -> None:
        self._boundary(
            "rename",
            str(target),
            lambda: Filesystem.replace(self, source, target),
        )

    def unlink(self, path) -> None:
        self._boundary(
            "unlink", str(path), lambda: Filesystem.unlink(self, path)
        )


@pytest.fixture(scope="module")
def network():
    return grid_network(4, 4, spacing=100.0)


def _trip(network, trajectory_id):
    """A minimal trip whose time span tracks its id (distinct per trip)."""
    edge = next(iter(network.edges()))
    key = (edge.start, edge.end)
    instance = TrajectoryInstance(
        path=[key],
        locations=[MappedLocation(key, 0.0), MappedLocation(key, 1.0)],
        probability=1.0,
    )
    t0 = trajectory_id * 100
    return UncertainTrajectory(trajectory_id, [instance], [t0, t0 + 10])


def _open_writer(directory, network, fs=None, segment_max=SEGMENT_MAX):
    return AppendableArchiveWriter(
        directory,
        network,
        default_interval=10,
        segment_max_trajectories=segment_max,
        fs=fs,
    )


def _ingest(directory, network, fs=None):
    """The workload under test: create, append TRIPS trips, close."""
    writer = _open_writer(directory, network, fs=fs)
    for i in range(TRIPS):
        writer.append(_trip(network, i))
    writer.close()


def _archive_sha(directory, output) -> str:
    compact(directory, output)
    return hashlib.sha256(output.read_bytes()).hexdigest()


def _assert_directory_consistent(directory, store):
    """The manifest and the filesystem agree exactly: every referenced
    segment exists, nothing unreferenced or half-written survives."""
    referenced = {s.name for s in store.segments()}
    on_disk = {p.name for p in (directory / "segments").iterdir()}
    assert not [name for name in on_disk if name.endswith(".tmp")]
    assert not list(directory.glob("*.tmp"))
    segments = {name for name in on_disk if name.endswith(".utcq")}
    sidecars = {name[: -len(".stiu")] for name in on_disk if name.endswith(".stiu")}
    assert segments == referenced
    assert sidecars <= referenced


@pytest.fixture(scope="module")
def clean_ingest(network, tmp_path_factory):
    """(boundary count, oracle sha) of the never-crashed ingest run."""
    base = tmp_path_factory.mktemp("clean")
    fs = FaultingFilesystem()
    directory = base / "fleet"
    _ingest(directory, network, fs=fs)
    assert fs.ops > 0
    return fs.ops, _archive_sha(directory, base / "oracle.utcq")


class TestWriterCrashAtEveryBoundary:
    @pytest.mark.parametrize("mode", ["before", "after"])
    def test_restart_recovers_and_output_is_byte_identical(
        self, mode, network, clean_ingest, tmp_path
    ):
        total_ops, oracle_sha = clean_ingest
        for fail_at in range(1, total_ops + 1):
            workdir = tmp_path / f"{mode}-{fail_at}"
            directory = workdir / "fleet"
            fs = FaultingFilesystem(fail_at=fail_at, mode=mode)
            with pytest.raises(InjectedFault):
                _ingest(directory, network, fs=fs)
            # restart: the fresh writer reconciles the directory, then
            # upstream (sessionizer replay) re-sends whatever was lost
            writer = _open_writer(directory, network)
            for i in range(writer.next_trajectory_id, TRIPS):
                writer.append(_trip(network, i))
            writer.close()
            context = f"fault {mode} op {fail_at}/{total_ops}"
            assert writer.sealed_trajectory_count == TRIPS, context
            _assert_directory_consistent(directory, writer.store)
            assert (
                _archive_sha(directory, workdir / "compacted.utcq")
                == oracle_sha
            ), context
            # recovery is idempotent: a second pass finds nothing
            assert recover(writer.store).clean, context


class TestRotationOrphanAdoption:
    def test_orphan_segment_after_rotation_is_adopted(self, network, tmp_path):
        """Regression for the double-rotation window: a restart landing
        between segment rename and manifest commit used to strand the
        rotated ``.utcq`` forever; recovery must adopt it — those trips
        were sealed, durable, and acknowledged."""
        directory = tmp_path / "fleet"
        fs = FaultingFilesystem()
        writer = _open_writer(directory, network, fs=fs)
        writer.append(_trip(network, 0))
        # die right after the segment lands under its final name:
        # next ops are fsync(segment tmp), rename(segment) — fault the
        # rename in "after" mode
        fs.fail_at, fs.mode = fs.ops + 2, "after"
        with pytest.raises(InjectedFault):
            writer.append(_trip(network, 1))  # triggers rotation
        assert (directory / "segments" / "seg-00000.utcq").exists()
        assert load_manifest(directory)["segments"] == []

        reopened = _open_writer(directory, network)
        assert reopened.last_recovery is not None
        assert reopened.last_recovery.adopted == ["seg-00000.utcq"]
        assert reopened.sealed_trajectory_count == 2
        assert reopened.next_trajectory_id == 2
        # the adopted segment is back in the manifest with its stats
        manifest = load_manifest(directory)
        assert manifest["trajectory_count"] == 2
        assert sum(manifest["stats"][6:]) > 0
        _assert_directory_consistent(directory, reopened.store)
        reopened.close()
        with LiveArchive(directory) as live:
            assert live.trajectory_count == 2

    def test_adopted_entry_equals_the_sealed_entry(self, network, tmp_path):
        """Adoption rebuilds an orphan's manifest entry by the rule its
        seal would have committed it with, field for field."""
        sealed_dir = tmp_path / "sealed"
        writer = _open_writer(sealed_dir, network)
        for i in range(SEGMENT_MAX):
            writer.append(_trip(network, i))
        sealed = load_manifest(sealed_dir)["segments"]

        orphan_dir = tmp_path / "orphan"
        fs = FaultingFilesystem()
        writer = _open_writer(orphan_dir, network, fs=fs)
        writer.append(_trip(network, 0))
        fs.fail_at, fs.mode = fs.ops + 2, "after"  # the segment rename
        with pytest.raises(InjectedFault):
            writer.append(_trip(network, 1))
        assert load_manifest(orphan_dir)["segments"] == []

        reopened = _open_writer(orphan_dir, network)
        assert reopened.last_recovery.adopted == ["seg-00000.utcq"]
        assert load_manifest(orphan_dir)["segments"] == sealed
        reopened.close()

    def test_orphan_overlapping_sealed_ids_is_swept(self, network, tmp_path):
        """An unreferenced segment whose ids do NOT extend the manifest
        (an interrupted compaction output) must be deleted, not adopted
        — adopting it would duplicate trajectories."""
        directory = tmp_path / "fleet"
        writer = _open_writer(directory, network, segment_max=1)
        for i in range(2):
            writer.append(_trip(network, i))
        writer.close()
        # hand-plant a copy of segment 0 under an unreferenced name
        segments = directory / "segments"
        (segments / "seg-00077.utcq").write_bytes(
            (segments / "seg-00000.utcq").read_bytes()
        )
        reopened = _open_writer(directory, network)
        assert reopened.last_recovery.deleted_segments == ["seg-00077.utcq"]
        assert not (segments / "seg-00077.utcq").exists()
        assert reopened.sealed_trajectory_count == 2
        reopened.close()


def _seed(directory, network, count=4):
    writer = _open_writer(directory, network, segment_max=1)
    for i in range(count):
        writer.append(_trip(network, i))
    writer.close()


class TestCompactionCrashAtEveryBoundary:
    @pytest.fixture(scope="class")
    def clean_merge(self, network, tmp_path_factory):
        base = tmp_path_factory.mktemp("clean-merge")
        directory = base / "fleet"
        _seed(directory, network)
        fs = FaultingFilesystem()
        store = ManifestStore.open(directory, fs=fs)
        policy = SizeTieredPolicy(min_merge=2, max_merge=4)
        merge_segments(store, policy.plan(store.segments()))
        assert fs.ops > 0
        return fs.ops, _archive_sha(directory, base / "oracle.utcq")

    @pytest.mark.parametrize("mode", ["before", "after"])
    def test_recovery_after_interrupted_merge(
        self, mode, network, clean_merge, tmp_path
    ):
        total_ops, oracle_sha = clean_merge
        policy = SizeTieredPolicy(min_merge=2, max_merge=4)
        for fail_at in range(1, total_ops + 1):
            workdir = tmp_path / f"{mode}-{fail_at}"
            directory = workdir / "fleet"
            _seed(directory, network)
            fs = FaultingFilesystem(fail_at=fail_at, mode=mode)
            store = ManifestStore.open(directory, fs=fs)
            with pytest.raises(InjectedFault):
                merge_segments(store, policy.plan(store.segments()))
            # restart: either the swap generation landed (merged segment
            # wins, leftover sources are swept) or it did not (sources
            # win, the uncommitted merge output is swept) — never both,
            # never neither
            reopened = _open_writer(directory, network, segment_max=1)
            context = f"fault {mode} op {fail_at}/{total_ops}"
            assert reopened.sealed_trajectory_count == 4, context
            ids = sorted(
                i
                for segment in reopened.segments()
                for i in range(
                    segment.min_trajectory_id, segment.max_trajectory_id + 1
                )
            )
            assert ids == [0, 1, 2, 3], context
            _assert_directory_consistent(directory, reopened.store)
            assert (
                _archive_sha(directory, workdir / "compacted.utcq")
                == oracle_sha
            ), context
            assert recover(reopened.store).clean, context
            reopened.close()


class TestOneShotCompactCrash:
    """``compact()`` replaces OUTPUT through the same durable writer as a
    seal: a kill at any boundary leaves OUTPUT absent or a complete,
    CRC-clean archive, never a torn file."""

    @staticmethod
    def _faulting_default_fs(monkeypatch, fs):
        # compact() takes no fs argument; it writes through the default
        for name in ("fsync_fileno", "replace", "unlink"):
            monkeypatch.setattr(DEFAULT_FS, name, getattr(fs, name))

    @pytest.mark.parametrize("mode", ["before", "after"])
    def test_kill_at_every_boundary_leaves_no_torn_output(
        self, mode, network, tmp_path, monkeypatch
    ):
        directory = tmp_path / "fleet"
        _seed(directory, network)
        oracle = tmp_path / "oracle.utcq"
        counting = FaultingFilesystem()
        with monkeypatch.context() as patch:
            self._faulting_default_fs(patch, counting)
            compact(directory, oracle, network=network)
        assert counting.ops > 0  # the write crosses durability boundaries
        oracle_bytes = oracle.read_bytes()
        for fail_at in range(1, counting.ops + 1):
            output = tmp_path / f"{mode}-{fail_at}.utcq"
            fs = FaultingFilesystem(fail_at=fail_at, mode=mode)
            context = f"fault {mode} op {fail_at}/{counting.ops}"
            with monkeypatch.context() as patch:
                self._faulting_default_fs(patch, fs)
                with pytest.raises(InjectedFault):
                    compact(directory, output, network=network)
            if output.exists():
                assert output.read_bytes() == oracle_bytes, context
                read_archive(output)  # every record CRC-verified
            # the interrupted run is simply repeated
            compact(directory, output, network=network)
            assert output.read_bytes() == oracle_bytes, context


class TestGcCrash:
    def test_crash_between_drop_commit_and_unlink_is_swept(
        self, network, tmp_path
    ):
        directory = tmp_path / "fleet"
        _seed(directory, network)  # segment times: 0-10, 100-110, ...
        fs = FaultingFilesystem()
        store = ManifestStore.open(directory, fs=fs)
        # gc commits the drop (3 ops), then unlinks; die before the
        # first unlink so both doomed segments survive on disk
        fs.fail_at, fs.mode = 4, "before"
        with pytest.raises(InjectedFault):
            gc_segments(store, drop_before=150)
        assert (directory / "segments" / "seg-00000.utcq").exists()

        reopened = _open_writer(directory, network, segment_max=1)
        assert reopened.last_recovery.deleted_segments == [
            "seg-00000.utcq",
            "seg-00001.utcq",
        ]
        assert reopened.sealed_trajectory_count == 2
        assert {s.name for s in reopened.segments()} == {
            "seg-00002.utcq",
            "seg-00003.utcq",
        }
        _assert_directory_consistent(directory, reopened.store)
        reopened.close()

    def test_negative_ttl_is_refused_and_drops_nothing(
        self, network, tmp_path
    ):
        directory = tmp_path / "fleet"
        _seed(directory, network)
        store = ManifestStore.open(directory)
        names = {s.name for s in store.segments()}
        assert len(names) == 4
        # a negative TTL puts the cutoff after the newest segment: it
        # would drop every segment, the newest included
        with pytest.raises(StreamArchiveError, match="ttl_seconds"):
            gc_segments(store, ttl_seconds=-5)
        assert {s.name for s in store.segments()} == names
        reopened = ManifestStore.open(directory)
        assert {s.name for s in reopened.segments()} == names
        _assert_directory_consistent(directory, store)
