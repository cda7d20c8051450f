"""Streaming ingestion: online map matching, sessionization, appendable
archives with an LSM-style segment lifecycle, and live querying.

The batch pipeline (``match -> compress -> save``) assumes the dataset
exists in full before work starts.  This package turns it into a live
path::

    (vehicle, fix) events
         │  StreamingMapMatcher      incremental list-Viterbi, fixed-lag
         ▼                           estimates per vehicle
    TripSessionizer                  gap / duration / match cuts
         │                           -> sealed UncertainTrajectory trips
         ▼
    AppendableArchiveWriter          seal: rotating .utcq segments + .stiu
         │                           sidecars + generational manifest
         ├── CompactionDaemon        merge_segments: size-tiered
         │                           merges while ingestion continues
         ├── gc_segments             retention: drop whole cold segments
         ├── LiveArchive             query the sealed union mid-ingestion
         │                           (indexes assembled from sidecars)
         └── compact()               the same merge over every segment:
                                     one canonical batch-format archive

Seal, merge and ``compact()`` write each ``.utcq`` and its ``.stiu``
through one writer, :func:`repro.pipeline.batch.save_archive_with_index`,
and both merges read their sources through one reader.

The manifest is crash-safe (atomic rename, fsync, generation numbers)
and :func:`recover` reconciles a directory after a kill — adopting the
orphan segment a crash between rotation and manifest commit leaves
behind, and sweeping everything else.  The CLI front end is
``repro stream replay | compact | gc | stats``.
"""

from .compaction import (
    CompactionDaemon,
    CompactionStats,
    CompactionTask,
    SizeTieredPolicy,
    compact,
    drain_compactions,
    gc_segments,
    merge_segments,
)
from .ingest import ObserveStatus, StreamCounters, StreamingMapMatcher
from .live import LiveArchive
from .manifest import (
    Filesystem,
    ManifestStore,
    RecoveryReport,
    SegmentInfo,
    StreamArchiveError,
    load_manifest,
    manifest_segments,
    recover,
)
from .replay import ReplayReport, feed_events, replay
from .session import SessionConfig, SessionCounters, TripSessionizer
from .writer import AppendableArchiveWriter

__all__ = [
    "ObserveStatus",
    "StreamCounters",
    "StreamingMapMatcher",
    "LiveArchive",
    "ReplayReport",
    "feed_events",
    "replay",
    "SessionConfig",
    "SessionCounters",
    "TripSessionizer",
    "AppendableArchiveWriter",
    "SegmentInfo",
    "StreamArchiveError",
    "compact",
    "load_manifest",
    "manifest_segments",
    "CompactionDaemon",
    "CompactionStats",
    "CompactionTask",
    "SizeTieredPolicy",
    "drain_compactions",
    "gc_segments",
    "merge_segments",
    "Filesystem",
    "ManifestStore",
    "RecoveryReport",
    "recover",
]
