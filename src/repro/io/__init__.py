"""Persistence: the versioned ``.utcq`` on-disk archive format.

``write_archive``/``read_archive`` round-trip a
:class:`~repro.core.archive.CompressedArchive` bit-exactly;
:class:`FileBackedArchive` serves queries straight off the file with
lazy per-trajectory loading; :class:`UnionArchive` reads several of
them (shards, stream segments) as one.
"""

from .format import (
    MAGIC,
    VERSION,
    ArchiveFormatError,
    ArchiveHeader,
    CorruptArchiveError,
    DirectoryEntry,
    read_archive,
    read_header,
    write_archive,
)
from .reader import ArchiveClosedError, FileBackedArchive, UnionArchive

__all__ = [
    "MAGIC",
    "VERSION",
    "ArchiveClosedError",
    "ArchiveFormatError",
    "ArchiveHeader",
    "CorruptArchiveError",
    "DirectoryEntry",
    "read_archive",
    "read_header",
    "write_archive",
    "FileBackedArchive",
    "UnionArchive",
]
