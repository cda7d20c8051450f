"""Lazy, file-backed access to a ``.utcq`` archive.

:class:`FileBackedArchive` mirrors the read-side surface of
:class:`~repro.core.archive.CompressedArchive` — ``params``, ``stats``,
``trajectory(id)``, iteration over ``trajectories`` — but decodes each
trajectory record straight off disk when asked and keeps none of them:
the query processor holds what it parsed in its
:class:`~repro.core.decoder.DecodeSpanCache`, under that cache's byte
budget.  This lets the StIU index and the query processor run against
an archive file without ever materializing the whole dataset (the
`info`/`query` CLI path).
"""

from __future__ import annotations

import os
import threading

from ..core.archive import CompressedTrajectory, CompressionParams, CompressionStats
from ..obs import metrics as obs_metrics
from ..obs.log import get_logger
from .format import (
    ArchiveFormatError,
    ArchiveHeader,
    CorruptArchiveError,
    decode_record_time_span,
    decode_trajectory_record,
    read_header,
    record_crc,
)

_log = get_logger("repro.io.reader")


class ArchiveClosedError(ValueError):
    """A closed archive was closed again or read from.

    Raised instead of the cryptic ``ValueError: seek of closed file``
    the underlying stream would otherwise produce.
    """


class _LazyTrajectorySequence:
    """Read-only sequence view over a file-backed archive's trajectories."""

    def __init__(self, archive: "FileBackedArchive") -> None:
        self._archive = archive

    def __len__(self) -> int:
        return self._archive.trajectory_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        entry = self._archive.header.directory[index]
        return self._archive.trajectory(entry.trajectory_id)

    def __iter__(self):
        for entry in self._archive.header.directory:
            yield self._archive.trajectory(entry.trajectory_id)


class FileBackedArchive:
    """A compressed archive whose trajectories live on disk.

    Use as a context manager (or call :meth:`close`)::

        with FileBackedArchive.open("cd.utcq") as archive:
            index = StIUIndex(network, archive)
            ...

    Every read checks the record's CRC-32, which covers the id its
    directory entry names: a damaged or misplaced record raises
    :class:`CorruptArchiveError`.
    """

    def __init__(self, stream, header: ArchiveHeader) -> None:
        self._stream = stream
        #: the file behind the stream (None for a stream with no name)
        self.path = getattr(stream, "name", None)
        self.header = header
        # (start_time, end_time) of every trajectory touched so far; two
        # ints each, never evicted.  Single dict gets/sets of immutable
        # values, so it needs no lock.
        self._time_spans: dict[int, tuple[int, int]] = {}
        self._id_to_entry = {
            entry.trajectory_id: entry for entry in header.directory
        }
        self._closed = False
        # Concurrent readers: positional reads (os.pread) share one file
        # descriptor without seek races; streams without a descriptor
        # (e.g. BytesIO) fall back to seek+read under the lock, which
        # also orders close() against them; record decoding runs
        # unlocked, so a thread pool can hammer ``trajectory()``.
        self._lock = threading.Lock()
        try:
            self._fd: int | None = stream.fileno()
        except (AttributeError, OSError, ValueError):
            self._fd = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path) -> "FileBackedArchive":
        stream = open(path, "rb")
        try:
            header = read_header(stream)
        except Exception:
            stream.close()
            raise
        return cls(stream, header)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the file.  Closing twice is an error — it almost
        always means two owners believe they hold the archive."""
        with self._lock:
            if self._closed:
                raise ArchiveClosedError(
                    "FileBackedArchive is already closed"
                )
            self._closed = True
            self._time_spans.clear()
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "FileBackedArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()

    # ------------------------------------------------------------------
    # CompressedArchive-compatible surface
    # ------------------------------------------------------------------
    @property
    def params(self) -> CompressionParams:
        return self.header.params

    @property
    def stats(self) -> CompressionStats:
        return self.header.stats

    @property
    def provenance(self) -> dict[str, str]:
        return dict(self.header.provenance)

    @property
    def trajectory_count(self) -> int:
        return self.header.trajectory_count

    @property
    def instance_count(self) -> int:
        return self.header.instance_count

    @property
    def compressed_bytes(self) -> int:
        return (self.stats.compressed.total + 7) // 8

    @property
    def original_bytes(self) -> int:
        return (self.stats.original.total + 7) // 8

    @property
    def trajectories(self) -> _LazyTrajectorySequence:
        return _LazyTrajectorySequence(self)

    def trajectory_ids(self) -> list[int]:
        return [entry.trajectory_id for entry in self.header.directory]

    def trajectory(self, trajectory_id: int) -> CompressedTrajectory:
        """Read, check and parse a single trajectory's record.

        Every call parses afresh; callers that come back to a record
        keep it in a :class:`~repro.core.decoder.DecodeSpanCache`.  Safe
        to call from multiple threads: the record is read with a
        positional ``pread`` (no shared seek cursor) and parsed outside
        any lock.
        """
        if self._closed:
            raise ArchiveClosedError(
                f"cannot load trajectory {trajectory_id}: the archive "
                f"is closed"
            )
        trajectory = decode_trajectory_record(
            self._verified_record(trajectory_id), trajectory_id, self.params
        )
        if trajectory_id not in self._time_spans:
            self._time_spans[trajectory_id] = (
                trajectory.start_time,
                trajectory.end_time,
            )
        return trajectory

    def time_span(self, trajectory_id: int) -> tuple[int, int]:
        """``(start_time, end_time)`` of one trajectory, memoised.

        A miss reads the record and applies the same length / CRC
        checks as :meth:`trajectory` — a damaged record raises
        :class:`CorruptArchiveError` here too — but parses only its
        leading varints and the ``t0`` its time payload opens with.
        Thread-safe like :meth:`trajectory`.
        """
        if self._closed:
            raise ArchiveClosedError(
                f"cannot read the time span of trajectory {trajectory_id}: "
                f"the archive is closed"
            )
        span = self._time_spans.get(trajectory_id)
        if span is None:
            span = self._time_spans[trajectory_id] = decode_record_time_span(
                self._verified_record(trajectory_id), self.params.t0_bits
            )
        return span

    def _verified_record(self, trajectory_id: int) -> bytes:
        """The record's bytes, checked against its directory entry."""
        entry = self._id_to_entry.get(trajectory_id)
        if entry is None:
            raise KeyError(f"no trajectory {trajectory_id} in the archive")
        record = self._read_record(entry)
        if len(record) != entry.length:
            raise self._corrupt(
                "truncated", f"truncated record for trajectory {trajectory_id}"
            )
        if record_crc(trajectory_id, record) != entry.crc32:
            raise self._corrupt(
                "crc_mismatch", f"CRC mismatch for trajectory {trajectory_id}"
            )
        return record

    def _corrupt(self, reason: str, message: str) -> CorruptArchiveError:
        """Count + log a damaged record, return the error to raise."""
        obs_metrics.counter(
            "repro_io_corrupt_records_total", labels={"reason": reason}
        ).inc()
        _log.warning(
            "io.corrupt_record", reason=reason, detail=message, path=self.path
        )
        error = CorruptArchiveError(message)
        error.path = self.path
        return error

    def _read_record(self, entry) -> bytes:
        if self._fd is not None:
            try:
                return os.pread(self._fd, entry.length, entry.offset)
            except OSError:
                if self._closed:
                    raise ArchiveClosedError(
                        "FileBackedArchive was closed during a read"
                    ) from None
                raise
        with self._lock:
            if self._closed:
                raise ArchiveClosedError(
                    "FileBackedArchive was closed during a read"
                )
            self._stream.seek(entry.offset)
            return self._stream.read(entry.length)


class UnionArchive:
    """Several readers holding disjoint trajectory ids, read as one.

    The read surface a StIU index and a query processor consume —
    ``params``, ``trajectory_count``, ``trajectory_ids()``,
    ``trajectory(id)``, ``time_span(id)`` — each call forwarded to the
    one reader that holds the id.  The readers stay owned (opened,
    closed) by whoever built the union; a union is immutable, so a
    changed reader set is a new union swapped in by one assignment.
    """

    def __init__(self, readers) -> None:
        self.readers = tuple(readers)
        self._reader_of = {
            trajectory_id: reader
            for reader in self.readers
            for trajectory_id in reader.trajectory_ids()
        }

    @property
    def params(self) -> CompressionParams:
        return self.readers[0].params

    @property
    def trajectory_count(self) -> int:
        return len(self._reader_of)

    def trajectory_ids(self) -> list[int]:
        return sorted(self._reader_of)

    def _holder(self, trajectory_id: int):
        reader = self._reader_of.get(trajectory_id)
        if reader is None:
            raise KeyError(f"no trajectory {trajectory_id} in the archive")
        return reader

    def trajectory(self, trajectory_id: int) -> CompressedTrajectory:
        return self._holder(trajectory_id).trajectory(trajectory_id)

    def time_span(self, trajectory_id: int) -> tuple[int, int]:
        """``(start_time, end_time)`` without parsing the whole record;
        see :meth:`FileBackedArchive.time_span`."""
        return self._holder(trajectory_id).time_span(trajectory_id)
