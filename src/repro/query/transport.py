"""The answer codec: one task's answers as packed little-endian bytes.

The paper's three probabilistic queries each return one fixed result
shape — ``WhereResult`` records, ``WhenResult`` records, and range id
lists — and :func:`encode_answers` / :func:`decode_answers_blob` pack
exactly those shapes as fixed-size structs.  ``struct`` round trips
``float('d')`` values exactly, so decoded results are bit-identical to
what was encoded.

The same bytes travel everywhere an answer list leaves a process: a
shard worker returns them as its task result through the process
pool's own pipe (one pickled ``bytes`` object instead of a pickled
object graph), and the wire protocol sends them as a response body.

A blob that does not decode cleanly — a truncated record, an unknown
tag, bytes left over after the last list — raises
:class:`TransportError`; the parent re-executes that shard task in
process, so a transport fault costs one fallback, never a wrong
answer.
"""

from __future__ import annotations

import struct

# answer codec record layouts (see repro.query.queries)
_WHERE_REC = struct.Struct("<qiqqdd")  # traj, idx, edge0, edge1, ndist, p
_WHEN_REC = struct.Struct("<qidd")  # traj, idx, time, p
_RANGE_REC = struct.Struct("<q")  # trajectory id
_LIST_HEAD = struct.Struct("<BI")  # tag, record count
_BLOB_HEAD = struct.Struct("<I")  # answer-list count

_TAG_WHERE = 0
_TAG_WHEN = 1
_TAG_RANGE = 2


class TransportError(Exception):
    """An answer blob could not be decoded.

    Truncated, an unknown tag, or trailing bytes — the caller must
    re-execute the shard task through a fallback path; the blob is
    never partially trusted.
    """


class UnencodableAnswers(Exception):
    """An answer list the binary codec cannot express."""


# ----------------------------------------------------------------------
# answer codec
# ----------------------------------------------------------------------
def encode_answers(answers) -> bytes:
    """Pack a per-task answer list into the fixed binary blob.

    Raises :class:`UnencodableAnswers` for any shape outside the three
    result kinds.
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

    Reads records straight out of ``buffer`` (``bytes`` or a
    ``memoryview``) with ``unpack_from``; only the reconstructed result
    objects are allocated.  Raises :class:`TransportError` unless the
    blob is exactly one encoded answer list, with no bytes left over.
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
    except struct.error as error:
        raise TransportError(f"truncated answer blob: {error}") from None
    if offset != len(buffer):
        raise TransportError(
            f"{len(buffer) - offset} trailing bytes after the answer lists"
        )
    return answers
