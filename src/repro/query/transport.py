"""Shared-memory result transport between shard workers and the parent.

A process pool's own result pipe pays for every answer twice: the
worker pickles the result list and the parent unpickles it — per shard,
per batch.  PR 8's tracing showed that tax (``ipc_share``) dominating
the sharded path at steady state.  This module is the parent↔worker
data plane of :class:`~repro.query.engine.ShardedQueryEngine`, and it
removes the tax:

* each worker owns one **slab** — a pooled
  :class:`multiprocessing.shared_memory.SharedMemory` segment named
  ``repro-shm-<arena>-g<generation>-p<pid>`` — and appends answer
  payloads to it through a bump allocator with wraparound;
* an entry is ``[header | payload]`` where the header carries a magic,
  a format version, the **pool generation** (so descriptors from a
  pre-respawn worker can never be read against a post-respawn slab), a
  per-writer sequence number, the payload length, and a CRC-32 of the
  payload;
* the task result that crosses the process boundary is only a
  **descriptor** (slab name, offset, length, generation, seq, crc) —
  a few dozen bytes regardless of answer size;
* the parent attaches the slab once, validates the header and CRC
  against the descriptor, and decodes the answers straight out of a
  ``memoryview`` of the slab — no copy of the payload bytes, no
  pickle.

Answers travel in a fixed binary codec (:func:`encode_answers` /
:func:`decode_answers_blob`): ``WhereResult`` / ``WhenResult`` records
and range id lists as packed little-endian structs.  ``struct`` round
trips ``float('d')`` values exactly, so decoded results are
bit-identical to what the worker computed.

Every rung degrades, never breaks — and the worker picks the rung from
what it observes, never the operator:

* an answer the codec cannot express (:class:`UnencodableAnswers`),
  a slab that cannot be created, or a write that would tear a
  still-protected recent entry falls back to an **inline** payload —
  the answers ride the pickle pipe for that one task, tagged so the
  parent knows;
* a descriptor that fails validation on the parent side (stale
  generation, torn header, CRC mismatch) raises
  :class:`TransportError`, and the caller re-executes that shard task
  locally — a transport fault costs one fallback, never a wrong
  answer.

Overwrite safety is by construction, with the CRC as defense in depth:
the writer never reuses the bytes of its most recent :data:`SLAB_KEEP`
entries, and the parent consumes each descriptor before more than a
dispatch window (:data:`repro.query.engine.DISPATCH_WINDOW`, hedged:
twice that) of further tasks can be submitted to that worker.

Lifecycle: workers never unlink — the parent is the single point of
truth.  :meth:`SlabReaderPool.invalidate` (on pool respawn) and
:meth:`SlabReaderPool.close` unlink every slab of dead generations by
deterministic-name sweep of ``/dev/shm``, which also catches slabs of
workers that crashed before returning a single descriptor.  On Python
3.11 every attach registers the segment with the resource tracker, so
unlinks tolerate the name being gone already.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
import zlib
from collections import deque
from multiprocessing import shared_memory

from ..obs import metrics as obs_metrics
from ..obs.log import get_logger

_log = get_logger("repro.query.transport")

#: tags on payloads that cross the process boundary
TAG_SHM = "repro-shm"
TAG_INLINE = "repro-inline"

_SLAB_PREFIX = "repro-shm-"
#: bytes in one worker's slab
SLAB_BYTES = 4 << 20
#: most recent entries a writer never overwrites — must exceed the
#: descriptors the parent can hold unread against one worker
SLAB_KEEP = 64

# entry header: magic, format version, pool generation, writer seq,
# payload length, payload crc32 — little-endian, no padding
_HEADER = struct.Struct("<2sHIQII")
_MAGIC = b"RS"
_VERSION = 1
_ALIGN = 8

# answer codec record layouts (see repro.query.queries)
_WHERE_REC = struct.Struct("<qiqqdd")  # traj, idx, edge0, edge1, ndist, p
_WHEN_REC = struct.Struct("<qidd")  # traj, idx, time, p
_RANGE_REC = struct.Struct("<q")  # trajectory id
_LIST_HEAD = struct.Struct("<BI")  # tag, record count
_BLOB_HEAD = struct.Struct("<I")  # answer-list count

_TAG_WHERE = 0
_TAG_WHEN = 1
_TAG_RANGE = 2

_arena_counter = itertools.count()


class TransportError(Exception):
    """A shm descriptor could not be resolved to a valid payload.

    Stale generation, missing slab, torn header, or CRC mismatch — the
    caller must re-execute the shard task through a fallback path; the
    descriptor is never partially trusted.
    """


class UnencodableAnswers(Exception):
    """An answer list the binary codec cannot express (worker-side
    signal to fall back to an inline pickled payload)."""


def new_arena_id() -> str:
    """A per-pool arena id; embeds the parent pid so concurrent pools
    (tests, benches) never collide in ``/dev/shm``."""
    return f"{os.getpid():x}x{next(_arena_counter):x}"


def slab_name(arena: str, generation: int, pid: int) -> str:
    return f"{_SLAB_PREFIX}{arena}-g{generation}-p{pid}"


def _slab_generation(name: str, arena: str) -> int | None:
    """Parse the generation out of a slab name of ``arena`` (else None)."""
    prefix = f"{_SLAB_PREFIX}{arena}-g"
    if not name.startswith(prefix):
        return None
    rest = name[len(prefix):]
    generation, _, tail = rest.partition("-p")
    if not generation.isdigit() or not tail.isdigit():
        return None
    return int(generation)


# ----------------------------------------------------------------------
# answer codec
# ----------------------------------------------------------------------
def encode_answers(answers) -> bytes:
    """Pack a per-task answer list into the fixed binary blob.

    Raises :class:`UnencodableAnswers` for any shape outside the three
    result kinds — the caller falls back to an inline payload.
    """
    from .queries import WhenResult, WhereResult

    parts = [_BLOB_HEAD.pack(len(answers))]
    try:
        for answer in answers:
            if not isinstance(answer, list):
                raise UnencodableAnswers(f"not a list: {type(answer)!r}")
            if not answer:
                parts.append(_LIST_HEAD.pack(_TAG_RANGE, 0))
                continue
            first = answer[0]
            if isinstance(first, WhereResult):
                parts.append(_LIST_HEAD.pack(_TAG_WHERE, len(answer)))
                for r in answer:
                    parts.append(
                        _WHERE_REC.pack(
                            r.trajectory_id, r.instance_index,
                            r.edge[0], r.edge[1], r.ndist, r.probability,
                        )
                    )
            elif isinstance(first, WhenResult):
                parts.append(_LIST_HEAD.pack(_TAG_WHEN, len(answer)))
                for r in answer:
                    parts.append(
                        _WHEN_REC.pack(
                            r.trajectory_id, r.instance_index,
                            r.time, r.probability,
                        )
                    )
            elif isinstance(first, int) and not isinstance(first, bool):
                parts.append(_LIST_HEAD.pack(_TAG_RANGE, len(answer)))
                for trajectory_id in answer:
                    parts.append(_RANGE_REC.pack(trajectory_id))
            else:
                raise UnencodableAnswers(
                    f"unsupported element type {type(first)!r}"
                )
    except (struct.error, AttributeError, IndexError, TypeError) as error:
        raise UnencodableAnswers(str(error)) from None
    return b"".join(parts)


def decode_answers_blob(buffer) -> list:
    """Unpack :func:`encode_answers` output from a bytes-like view.

    Reads records straight out of ``buffer`` (a slab ``memoryview`` on
    the zero-copy path) with ``unpack_from``; only the reconstructed
    result objects are allocated.
    """
    from .queries import WhenResult, WhereResult

    try:
        (count,) = _BLOB_HEAD.unpack_from(buffer, 0)
        offset = _BLOB_HEAD.size
        answers: list = []
        for _ in range(count):
            tag, n = _LIST_HEAD.unpack_from(buffer, offset)
            offset += _LIST_HEAD.size
            if tag == _TAG_WHERE:
                items = []
                for _ in range(n):
                    t, i, e0, e1, nd, p = _WHERE_REC.unpack_from(
                        buffer, offset
                    )
                    offset += _WHERE_REC.size
                    items.append(WhereResult(t, i, (e0, e1), nd, p))
            elif tag == _TAG_WHEN:
                items = []
                for _ in range(n):
                    t, i, at, p = _WHEN_REC.unpack_from(buffer, offset)
                    offset += _WHEN_REC.size
                    items.append(WhenResult(t, i, at, p))
            elif tag == _TAG_RANGE:
                items = [
                    _RANGE_REC.unpack_from(
                        buffer, offset + k * _RANGE_REC.size
                    )[0]
                    for k in range(n)
                ]
                offset += n * _RANGE_REC.size
            else:
                raise TransportError(f"unknown answer tag {tag}")
            answers.append(items)
        return answers
    except struct.error as error:
        raise TransportError(f"truncated answer blob: {error}") from None


# ----------------------------------------------------------------------
# worker side: slab writer
# ----------------------------------------------------------------------
class SlabWriter:
    """One worker's append-only (with wraparound) shared-memory slab.

    The last ``keep`` written entries are *protected*: a new write that
    would overlap any of their bytes is relocated past them, and if no
    room remains (pathologically large payloads) the write is refused
    and the caller ships the answers inline instead.  Combined with the
    parent consuming descriptors within a dispatch window that is
    strictly smaller than ``keep``, an entry can never be overwritten
    while a live descriptor still points at it.
    """

    def __init__(
        self,
        arena: str,
        *,
        generation: int,
        size: int | None = None,
        keep: int = SLAB_KEEP,
    ) -> None:
        self.arena = arena
        self.generation = generation
        self.size = size or SLAB_BYTES
        self.keep = max(1, keep)
        self.name = slab_name(arena, generation, os.getpid())
        try:
            self._shm = shared_memory.SharedMemory(
                name=self.name, create=True, size=self.size
            )
        except FileExistsError:
            # pid reuse across generations of different arenas is the
            # only way here; the old segment is dead weight — replace it
            stale = shared_memory.SharedMemory(name=self.name)
            stale.close()
            _unlink_quietly(stale)
            self._shm = shared_memory.SharedMemory(
                name=self.name, create=True, size=self.size
            )
        self._offset = 0
        self._seq = 0
        self._recent: deque[tuple[int, int]] = deque(maxlen=self.keep)

    def write(self, payload: bytes) -> dict | None:
        """Append one entry; returns its descriptor, or None (no safe
        room — the caller must ship the payload inline)."""
        start = self._allocate(_HEADER.size + len(payload))
        if start is None:
            return None
        return self._commit(start, payload)

    def _allocate(self, total: int) -> int | None:
        if total > self.size:
            return None
        start = _aligned(self._offset)
        wraps = 0
        while True:
            if start + total > self.size:
                start = 0
                wraps += 1
                if wraps > 1:
                    return None  # protected tail fills the slab
            clash = self._protected_end(start, start + total)
            if clash is None:
                return start
            start = _aligned(clash)

    def _protected_end(self, start: int, end: int) -> int | None:
        """End offset of the furthest protected entry overlapping
        [start, end), or None when the region is free."""
        furthest = None
        for held_start, held_end in self._recent:
            if held_start < end and start < held_end:
                if furthest is None or held_end > furthest:
                    furthest = held_end
        return furthest

    def _commit(self, start: int, payload: bytes) -> dict:
        seq = self._seq
        self._seq += 1
        crc = zlib.crc32(payload)
        buf = self._shm.buf
        _HEADER.pack_into(
            buf, start, _MAGIC, _VERSION, self.generation, seq,
            len(payload), crc,
        )
        body = start + _HEADER.size
        end = body + len(payload)
        buf[body:end] = payload
        self._offset = end
        self._recent.append((start, end))
        return {
            "slab": self.name,
            "offset": start,
            "length": len(payload),
            "generation": self.generation,
            "seq": seq,
            "crc": crc,
        }

    def close(self) -> None:
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - teardown race
            pass


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


# ----------------------------------------------------------------------
# parent side: reader pool + lifecycle
# ----------------------------------------------------------------------
class SlabReaderPool:
    """Parent-side attach cache and the single owner of slab cleanup."""

    def __init__(self, arena: str, *, generation: int = 0) -> None:
        self.arena = arena
        self.generation = generation
        self._lock = threading.Lock()
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        self._seen: set[str] = set()
        self._decodes = obs_metrics.counter(
            "repro_transport_shm_decodes_total",
            help="Answers decoded zero-copy from worker slabs",
        )
        self._errors = obs_metrics.counter(
            "repro_transport_errors_total",
            help="Descriptors rejected (stale generation, torn entry, CRC)",
        )

    def decode(self, descriptor: dict) -> list:
        """Resolve one descriptor to its answers, zero-copy.

        Raises :class:`TransportError` on any validation failure.
        """
        try:
            return self._decode(descriptor)
        except TransportError:
            self._errors.inc()
            raise

    def _decode(self, descriptor: dict) -> list:
        try:
            name = descriptor["slab"]
            offset = descriptor["offset"]
            length = descriptor["length"]
            generation = descriptor["generation"]
            seq = descriptor["seq"]
            crc = descriptor["crc"]
        except (TypeError, KeyError) as error:
            raise TransportError(
                f"malformed descriptor {descriptor!r}"
            ) from error
        if generation != self.generation:
            raise TransportError(
                f"stale descriptor: generation {generation} != "
                f"current {self.generation}"
            )
        shm = self._attach(name)
        if offset < 0 or offset + _HEADER.size + length > shm.size:
            raise TransportError(
                f"descriptor out of bounds: {offset}+{length} in "
                f"{shm.size}-byte slab {name}"
            )
        try:
            magic, version, h_gen, h_seq, h_len, h_crc = _HEADER.unpack_from(
                shm.buf, offset
            )
        except struct.error as error:
            raise TransportError(f"unreadable header: {error}") from None
        if magic != _MAGIC or version != _VERSION:
            raise TransportError(
                f"bad entry header at {name}+{offset}: "
                f"magic={magic!r} version={version}"
            )
        if h_gen != generation or h_seq != seq or h_len != length:
            raise TransportError(
                f"entry at {name}+{offset} was overwritten "
                f"(gen {h_gen}/{generation}, seq {h_seq}/{seq}, "
                f"len {h_len}/{length})"
            )
        body = offset + _HEADER.size
        payload = shm.buf[body:body + length]
        try:
            if zlib.crc32(payload) != (h_crc & 0xFFFFFFFF) or h_crc != crc:
                raise TransportError(
                    f"CRC mismatch at {name}+{offset} (torn write)"
                )
            answers = decode_answers_blob(payload)
        finally:
            payload.release()
        self._decodes.inc()
        return answers

    def _attach(self, name: str) -> shared_memory.SharedMemory:
        with self._lock:
            shm = self._attached.get(name)
            if shm is not None:
                return shm
        try:
            shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError) as error:
            raise TransportError(
                f"slab {name} is gone (worker died or respawned): {error}"
            ) from None
        with self._lock:
            racer = self._attached.setdefault(name, shm)
            self._seen.add(name)
        if racer is not shm:
            shm.close()
            _untrack(shm)  # the winner's registration is the live one
        return racer

    def invalidate(self, new_generation: int) -> int:
        """Pool respawn: detach everything, unlink dead-generation
        slabs, advance the accepted generation.  Returns the number of
        slabs unlinked."""
        with self._lock:
            self.generation = new_generation
            attached = list(self._attached.values())
            self._attached.clear()
            seen, self._seen = self._seen, set()
        # attached slabs unlink through their own handle — the unlink
        # is what unregisters the attach from the resource tracker;
        # detaching first and re-attaching to unlink would leave the
        # original registration dangling (a spurious "leaked
        # shared_memory" warning at interpreter shutdown)
        removed = sum(_detach_and_unlink(shm) for shm in attached)
        removed += self._sweep(
            seen, lambda generation: generation < new_generation
        )
        if removed:
            _log.info(
                "transport.slabs_reclaimed", arena=self.arena,
                count=removed, generation=new_generation,
            )
        return removed

    def close(self) -> int:
        """Tear down: detach and unlink every slab of this arena."""
        with self._lock:
            attached = list(self._attached.values())
            self._attached.clear()
            seen, self._seen = self._seen, set()
        removed = sum(_detach_and_unlink(shm) for shm in attached)
        return removed + self._sweep(seen, lambda generation: True)

    def _sweep(self, seen: set[str], dead) -> int:
        """Unlink every known-or-discovered slab whose generation
        satisfies ``dead``; names come from descriptors seen so far
        plus a ``/dev/shm`` prefix scan (catches slabs of workers that
        crashed before answering once)."""
        names = set(seen)
        try:
            for entry in os.listdir("/dev/shm"):
                if _slab_generation(entry, self.arena) is not None:
                    names.add(entry)
        except OSError:
            pass  # non-Linux: descriptor-derived names only
        removed = 0
        for name in names:
            generation = _slab_generation(name, self.arena)
            if generation is None or not dead(generation):
                continue
            if unlink_slab(name):
                removed += 1
        return removed


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop one resource-tracker registration without unlinking.

    Python 3.11 registers shared memory on *attach* as well as create
    (no ``track=`` parameter until 3.13); a handle that is closed
    because the segment lives on elsewhere must take its registration
    with it or the tracker warns at shutdown.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals shifted
        pass


def _detach_and_unlink(shm: shared_memory.SharedMemory) -> int:
    """Close and unlink one attached slab; 1 when this call removed it."""
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - teardown race
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):
        _untrack(shm)  # already gone: still drop our registration
        return 0
    return 1


def unlink_slab(name: str) -> bool:
    """Best-effort unlink of one slab by name; True when it existed.

    Attaching first keeps the resource tracker consistent (its
    ``unlink`` unregisters the name); a racing unlink from another
    path is fine — the name being gone is the goal.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return False
    try:
        shm.close()
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - race
        pass
    return True


def _unlink_quietly(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - race
        pass


def list_arena_slabs(arena: str) -> list[str]:
    """Names of this arena's live slabs in ``/dev/shm`` (tests, leak
    checks); empty where POSIX shared memory is not file-backed."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(
        entry
        for entry in entries
        if _slab_generation(entry, arena) is not None
    )


# ----------------------------------------------------------------------
# payload tagging (both sides)
# ----------------------------------------------------------------------
def tag_inline(answers: list) -> tuple:
    return (TAG_INLINE, answers)


def tag_descriptor(descriptor: dict) -> tuple:
    return (TAG_SHM, descriptor)


def decode_payload(payload, reader: SlabReaderPool | None):
    """Parent-side: resolve one task payload to its answer list.

    Untagged payloads (duck-typed test pools — real workers always
    tag) pass through unchanged; inline tags unwrap; shm tags resolve
    through ``reader`` and raise :class:`TransportError` when no
    reader is available or validation fails.
    """
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] in (TAG_SHM, TAG_INLINE)
    ):
        tag, value = payload
        if tag == TAG_INLINE:
            return value
        if reader is None:
            raise TransportError(
                "shm descriptor received but no slab reader is attached"
            )
        return reader.decode(value)
    return payload
