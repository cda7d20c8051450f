"""Appendable segment archives, the live union view, and compaction.

The acceptance test of the streaming subsystem lives here: replaying a
raw-GPS dataset through ``StreamingMapMatcher -> TripSessionizer ->
AppendableArchiveWriter`` and compacting must yield an archive whose
StIU query results match compressing the same matched dataset through
the batch pipeline — and where/when/range queries must already work on
the live (uncompacted) segment view mid-ingestion.
"""

import json

import pytest

from repro.core.compressor import UTCQCompressor
from repro.io.format import read_archive
from repro.io.reader import FileBackedArchive
from repro.mapmatching import MatcherConfig, synthesize_raw_dataset
from repro.network.generators import grid_network
from repro.query.queries import UTCQQueryProcessor
from repro.query.stiu import StIUIndex
from repro.stream import (
    AppendableArchiveWriter,
    LiveArchive,
    ManifestStore,
    SessionConfig,
    SizeTieredPolicy,
    StreamArchiveError,
    TripSessionizer,
    compact,
    drain_compactions,
    load_manifest,
    manifest_segments,
    replay,
)
from repro.stream import live as live_module
from repro.trajectories.datasets import CD

MATCHER = MatcherConfig(sigma=20.0, search_radius=50.0)


@pytest.fixture(scope="module")
def network():
    return grid_network(8, 8, spacing=100.0)


@pytest.fixture(scope="module")
def feeds(network):
    return synthesize_raw_dataset(
        network, CD.generation_config(), 10, seed=51, noise_sigma=15.0
    )


@pytest.fixture(scope="module")
def streamed(network, feeds, tmp_path_factory):
    """Replay the feeds into a stream archive; returns (dir, trips)."""
    directory = tmp_path_factory.mktemp("stream") / "fleet"
    trips = []
    sessionizer = TripSessionizer(
        network, MATCHER, SessionConfig(gap_timeout=100_000.0)
    )
    with AppendableArchiveWriter(
        directory,
        network,
        default_interval=CD.default_interval,
        segment_max_trajectories=3,
    ) as writer:
        replay(sessionizer, feeds, writer=writer, on_trip=trips.append)
    return directory, trips


class TestWriter:
    def test_segments_rotate_and_manifest_tracks_them(self, streamed):
        directory, trips = streamed
        manifest = load_manifest(directory)
        assert manifest["trajectory_count"] == len(trips)
        names = [entry["name"] for entry in manifest["segments"]]
        assert len(names) == -(-len(trips) // 3)  # ceil division
        assert names == sorted(names)
        covered = []
        for entry in manifest["segments"]:
            assert (directory / "segments" / entry["name"]).exists()
            covered.extend(
                range(
                    entry["min_trajectory_id"],
                    entry["max_trajectory_id"] + 1,
                )
            )
        assert covered == [t.trajectory_id for t in trips]

    def test_each_segment_is_a_valid_archive(self, streamed):
        directory, _ = streamed
        manifest = load_manifest(directory)
        for entry in manifest["segments"]:
            with FileBackedArchive.open(
                directory / "segments" / entry["name"]
            ) as segment:
                assert segment.trajectory_count == entry["trajectory_count"]

    def test_writer_rejects_non_monotonic_ids(self, network, tmp_path):
        writer = AppendableArchiveWriter(
            tmp_path / "w", network, default_interval=10
        )
        with pytest.raises(StreamArchiveError):
            writer.append(_trip_with_id(network, -1))

    def test_reopen_resumes_appending(self, network, feeds, tmp_path):
        directory = tmp_path / "resumable"
        sessionizer = TripSessionizer(
            network, MATCHER, SessionConfig(gap_timeout=100_000.0)
        )
        with AppendableArchiveWriter(
            directory, network, default_interval=CD.default_interval,
            segment_max_trajectories=2,
        ) as writer:
            replay(sessionizer, feeds[:4], writer=writer)
            first_segments = writer.segment_count
        # a fresh writer on the same directory picks up where we left off
        with AppendableArchiveWriter(
            directory, network, default_interval=CD.default_interval,
            segment_max_trajectories=2,
        ) as writer:
            sealed = replay(sessionizer, feeds[4:], writer=writer)
            assert writer.segment_count > first_segments
        manifest = load_manifest(directory)
        assert manifest["trajectory_count"] == sessionizer.counters.trips_sealed
        # ids stayed strictly increasing across the restart
        ids = [
            entry["min_trajectory_id"] for entry in manifest["segments"]
        ]
        assert ids == sorted(ids)
        assert sealed.trips_sealed > 0

    def test_version_1_manifest_is_refused(self, network, tmp_path):
        """A version-1 directory holds version-1 segments no reader
        accepts, so its manifest is refused by name, not upgraded."""
        directory = tmp_path / "old"
        (directory / "segments").mkdir(parents=True)
        (directory / "manifest.json").write_text(
            json.dumps(
                {
                    "format": "utcq-stream-manifest",
                    "version": 1,
                    "params": {
                        "eta_distance": 0.0078125,
                        "eta_probability": 0.1,
                        "default_interval": 10,
                        "symbol_width": 3,
                        "t0_bits": 32,
                        "pivot_count": 1,
                    },
                    "provenance": {},
                    "stats": [0] * 12,
                    "trajectory_count": 0,
                    "instance_count": 0,
                    "segments": [],
                }
            )
        )
        with pytest.raises(
            StreamArchiveError, match="^unsupported manifest version 1$"
        ):
            load_manifest(directory)
        with pytest.raises(StreamArchiveError, match="version 1"):
            AppendableArchiveWriter(directory, network, default_interval=10)

    def test_reopen_with_different_params_is_refused(self, network, tmp_path):
        directory = tmp_path / "locked"
        AppendableArchiveWriter(
            directory, network, default_interval=10
        ).close()
        with pytest.raises(StreamArchiveError):
            AppendableArchiveWriter(
                directory, network, default_interval=20
            )


class TestLiveArchive:
    def test_union_view_serves_queries_mid_ingestion(
        self, network, feeds, tmp_path
    ):
        """Seal part of the feed, query the live view, keep ingesting,
        refresh, and see the new segments — ingestion never stops."""
        directory = tmp_path / "live"
        sessionizer = TripSessionizer(
            network, MATCHER, SessionConfig(gap_timeout=100_000.0)
        )
        writer = AppendableArchiveWriter(
            directory, network, default_interval=CD.default_interval,
            segment_max_trajectories=2,
        )
        replay(sessionizer, feeds[:5], writer=writer)

        live = LiveArchive(directory)
        mid_count = live.trajectory_count
        assert mid_count > 0
        index = StIUIndex(network, live)
        processor = UTCQQueryProcessor(network, live, index)
        answered = 0
        for trajectory_id in live.trajectory_ids():
            trajectory = live.trajectory(trajectory_id)
            t = (trajectory.start_time + trajectory.end_time) // 2
            results = processor.where(trajectory_id, t, alpha=0.1)
            answered += bool(results)
        assert answered > 0

        # ingestion continues while the live view is open
        replay(sessionizer, feeds[5:], writer=writer)
        writer.close()
        added = live.refresh()
        assert added > 0
        assert live.trajectory_count > mid_count
        assert live.trajectory_count == load_manifest(directory)[
            "trajectory_count"
        ]
        live.close()

    def test_a_queried_trajectory_is_cached_and_charged_once(
        self, network, streamed
    ):
        """``live.trajectory`` then a ``where`` on it leave one cache
        entry, the block, charged once: the block holds the record the
        first lookup parsed, so storing it drops the record entry, and
        the next record lookup is the block's (a records hit)."""
        directory, _ = streamed
        with LiveArchive(directory) as live:
            processor = live.query_processor(network)
            cache = live.decode_cache
            trajectory_id = live.trajectory_ids()[0]
            trajectory = live.trajectory(trajectory_id)
            t = (trajectory.start_time + trajectory.end_time) // 2
            processor.where(trajectory_id, t, alpha=0.0)
            stats = cache.stats()
            assert (stats["records"]["resident"], stats["records"]["bytes"]) == (
                0, 0,
            )
            assert stats["times"]["resident"] == 1
            assert cache.resident_bytes == sum(
                stats[section]["bytes"]
                for section in ("times", "chainages", "references")
            )
            block = processor._block(trajectory_id)
            assert block.record is trajectory
            hits = stats["records"]["hits"]
            assert live.trajectory(trajectory_id) is trajectory
            assert cache.stats()["records"]["hits"] == hits + 1
            assert cache.stats()["records"]["resident"] == 0

    def test_live_stats_aggregate_segments(self, streamed):
        directory, _ = streamed
        with LiveArchive(directory) as live:
            stats = live.stats
            assert stats.compressed.total > 0
            # the manifest records the same aggregate
            manifest = load_manifest(directory)
            assert stats.original.total == sum(manifest["stats"][:6])
            assert stats.compressed.total == sum(manifest["stats"][6:])

    def test_unknown_trajectory_raises_keyerror(self, streamed):
        directory, trips = streamed
        with LiveArchive(directory) as live:
            with pytest.raises(KeyError):
                live.trajectory(max(t.trajectory_id for t in trips) + 99)

    def test_refresh_rereads_a_manifest_whose_segment_was_merged_away(
        self, network, tmp_path, monkeypatch
    ):
        """A merge may commit and unlink the segments a refresh has just
        read from the manifest: the refresh adopts the newer manifest
        instead of failing on the vanished file."""
        directory = _three_segments(network, tmp_path)
        stale = load_manifest(directory)
        _merge_all(directory, network)
        manifests = [stale]
        monkeypatch.setattr(
            live_module,
            "load_manifest",
            lambda path: manifests.pop() if manifests else load_manifest(path),
        )
        with LiveArchive(directory) as live:
            assert live.segment_count == 1
            assert live.trajectory_count == 6
            assert live.generation == load_manifest(directory)["generation"]

    def test_segment_merged_away_under_the_snapshot_is_stale_not_a_miss(
        self, network, tmp_path
    ):
        """The snapshot's segments were merged, sidecars and all, before
        the index was asked for: each is indexed from its open reader
        and counted stale — a miss is a sidecar that should be there."""
        directory = _three_segments(network, tmp_path)
        with LiveArchive(directory) as live:
            _merge_all(directory, network)
            live.build_index(network)
            assert (
                live.sidecar_hits, live.sidecar_misses, live.sidecar_stale
            ) == (0, 0, 3)


class TestCompaction:
    def test_compacted_file_is_canonical_and_complete(
        self, streamed, tmp_path
    ):
        directory, trips = streamed
        output = tmp_path / "fleet.utcq"
        size, count, sidecar = compact(directory, output)
        assert size == output.stat().st_size
        assert count == len(trips)
        assert sidecar is None  # no network, no index sidecar
        archive = read_archive(output)  # verifies every record CRC
        assert [t.trajectory_id for t in archive.trajectories] == [
            t.trajectory_id for t in trips
        ]
        assert archive.params.default_interval == CD.default_interval

    def test_compacted_queries_match_live_view(
        self, network, streamed, tmp_path
    ):
        directory, trips = streamed
        output = tmp_path / "same.utcq"
        compact(directory, output)
        with LiveArchive(directory) as live, FileBackedArchive.open(
            output
        ) as compacted:
            live_processor = UTCQQueryProcessor(
                network, live, StIUIndex(network, live)
            )
            compacted_processor = UTCQQueryProcessor(
                network, compacted, StIUIndex(network, compacted)
            )
            for trip in trips:
                t = (trip.start_time + trip.end_time) // 2
                assert live_processor.where(
                    trip.trajectory_id, t, alpha=0.1
                ) == compacted_processor.where(
                    trip.trajectory_id, t, alpha=0.1
                )


class TestEndToEndAcceptance:
    def test_streaming_pipeline_matches_batch_pipeline(
        self, network, streamed, tmp_path
    ):
        """The issue's acceptance criterion: streaming ingest + compact
        must answer where/when/range queries identically to the batch
        pipeline run over the same matched dataset."""
        directory, trips = streamed
        output = tmp_path / "streamed.utcq"
        compact(directory, output)
        streamed_archive = read_archive(output)

        # batch pipeline over the *same* uncertain trajectories, using
        # the same params the writer fixed up front
        compressor = UTCQCompressor(
            network=network, default_interval=CD.default_interval
        )
        params = streamed_archive.params
        batch_archive = type(streamed_archive)(
            params=params,
            trajectories=[
                compressor.compress_trajectory(
                    trip, params, compressor.trajectory_rng(trip.trajectory_id)
                )
                for trip in trips
            ],
        )

        streamed_processor = UTCQQueryProcessor(
            network, streamed_archive, StIUIndex(network, streamed_archive)
        )
        batch_processor = UTCQQueryProcessor(
            network, batch_archive, StIUIndex(network, batch_archive)
        )

        from repro.network.grid import Rect

        answered_where = answered_when = 0
        for trip in trips:
            t = (trip.start_time + trip.end_time) // 2
            where_streamed = streamed_processor.where(
                trip.trajectory_id, t, alpha=0.1
            )
            assert where_streamed == batch_processor.where(
                trip.trajectory_id, t, alpha=0.1
            )
            answered_where += bool(where_streamed)

            location = trip.best_instance().locations[0]
            rd = min(
                location.ndist / network.edge_length(*location.edge), 0.999
            )
            when_streamed = streamed_processor.when(
                trip.trajectory_id, location.edge, rd, alpha=0.1
            )
            assert when_streamed == batch_processor.when(
                trip.trajectory_id, location.edge, rd, alpha=0.1
            )
            answered_when += bool(when_streamed)

            x, y = location.position(network)
            rect = Rect(x - 150, y - 150, x + 150, y + 150)
            assert streamed_processor.range(
                rect, trip.times[0], alpha=0.1
            ) == batch_processor.range(rect, trip.times[0], alpha=0.1)

        assert answered_where > 0
        assert answered_when > 0

    def test_streamed_records_are_byte_identical_to_batch(
        self, network, streamed, tmp_path
    ):
        """Stronger than query equality: with identical params the
        streaming writer's compressed records are the batch
        compressor's bytes, record for record."""
        from repro.io.format import encode_trajectory_record

        directory, trips = streamed
        output = tmp_path / "bytes.utcq"
        compact(directory, output)
        streamed_archive = read_archive(output)
        compressor = UTCQCompressor(
            network=network, default_interval=CD.default_interval
        )
        for trip, stored in zip(trips, streamed_archive.trajectories):
            expected = compressor.compress_trajectory(
                trip,
                streamed_archive.params,
                compressor.trajectory_rng(trip.trajectory_id),
            )
            params = streamed_archive.params
            assert encode_trajectory_record(
                stored, params
            ) == encode_trajectory_record(expected, params)


def _trip_with_id(network, trajectory_id):
    """A minimal valid uncertain trajectory for writer edge cases."""
    from repro.trajectories.model import (
        MappedLocation,
        TrajectoryInstance,
        UncertainTrajectory,
    )

    edge = next(iter(network.edges()))
    key = (edge.start, edge.end)
    instance = TrajectoryInstance(
        path=[key],
        locations=[MappedLocation(key, 0.0), MappedLocation(key, 1.0)],
        probability=1.0,
    )
    return UncertainTrajectory(trajectory_id, [instance], [0, 10])


def _three_segments(network, tmp_path):
    """A stream directory of six trips sealed two per segment."""
    directory = tmp_path / "fleet"
    with AppendableArchiveWriter(
        directory, network, default_interval=10, segment_max_trajectories=2
    ) as writer:
        for trajectory_id in range(6):
            writer.append(_trip_with_id(network, trajectory_id))
    return directory


def test_every_truncation_and_bit_flip_of_a_manifest_loads_or_is_refused(
    network, tmp_path
):
    """The manifest is a byte parser like the others: every prefix of a
    real one, and every copy with bit 0 or bit 5 of one byte flipped
    (a digit changed, a letter's case swapped), either opens -- as a
    document, as a store and as a live archive over its segments -- or
    raises StreamArchiveError; never a KeyError, a TypeError or a
    FileNotFoundError naming a segment the manifest invented."""
    directory = tmp_path / "fleet"
    with AppendableArchiveWriter(
        directory, network, default_interval=10, segment_max_trajectories=2,
        provenance={"profile": "CD", "dataset_seed": "11"},
    ) as writer:
        for trajectory_id in range(6):
            writer.append(_trip_with_id(network, trajectory_id))
    path = directory / "manifest.json"
    original = path.read_bytes()
    variants = [original[:size] for size in range(len(original))] + [
        original[:at] + bytes([original[at] ^ bit]) + original[at + 1:]
        for at in range(len(original))
        for bit in (0x01, 0x20)
    ]
    loaded = refused = 0
    for number, data in enumerate(variants):
        path.write_bytes(data)
        try:
            manifest_segments(load_manifest(directory))
            ManifestStore.open(directory)
            with LiveArchive(directory) as live:
                live.trajectory_ids()
        except StreamArchiveError:
            refused += 1
        except Exception as error:
            pytest.fail(f"variant {number} of {len(variants)}: {error!r}")
        else:
            loaded += 1
    path.write_bytes(original)
    assert loaded + refused == len(variants) == 3 * len(original)
    assert loaded > 0 and refused > len(original)


def _merge_all(directory, network):
    """Merge every segment into one; the sources and their sidecars are
    unlinked."""
    stats = drain_compactions(
        directory,
        policy=SizeTieredPolicy(min_merge=2, max_merge=8),
        network=network,
    )
    assert stats.segments_merged == 3


def test_reopen_with_different_provenance_is_refused(network, tmp_path):
    """Params can coincide across source networks; provenance is the
    identity check that stops mixed-network archives."""
    directory = tmp_path / "mixed"
    AppendableArchiveWriter(
        directory, network, default_interval=10,
        provenance={"profile": "CD", "dataset_seed": "11"},
    ).close()
    with pytest.raises(StreamArchiveError, match="provenance"):
        AppendableArchiveWriter(
            directory, network, default_interval=10,
            provenance={"profile": "CD", "dataset_seed": "99"},
        )
    # no provenance given -> inherit the archive's and proceed
    writer = AppendableArchiveWriter(directory, network, default_interval=10)
    assert writer.provenance["dataset_seed"] == "11"
    writer.close()
