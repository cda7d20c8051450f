"""The socket front-end: a framed binary wire protocol over asyncio TCP.

Until this module, :class:`~repro.serve.service.QueryService` was only
reachable in-process; supervision, admission control, and
the worker pool had never been exercised against the failure modes
a real network brings.  ``repro.serve.wire`` puts a hardened TCP
server in front of the service:

**Protocol.**  Every frame is a fixed 20-byte header plus a body::

    offset  size  field
    0       2     magic  b"RW"
    2       1     protocol version (1)
    3       1     frame type (request/response/error/ping/pong)
    4       8     request id, little-endian u64 (client-chosen,
                  echoed on the response — pipelining correlation)
    12      4     body length, u32
    16      4     CRC-32 of the body, u32

A request body carries the client id, an optional per-request deadline
and a packed query list; a response body is the rung that answered
(the mode byte: 0 sharded, 1 batch, 255 none; 2 is retired) plus the
answer codec blob (:func:`repro.query.transport.encode_answers` — the
same bytes a pool worker returns for its shard task, so the wire and
the pool cannot drift); an error body is a typed code + ``retry_after`` + message, one code per
:class:`~repro.serve.service.ServiceResponse` outcome.  The CRC means
a corrupted frame is *detected*, answered with a typed error frame,
and never parsed — a bad frame can cost a retry, never a wrong answer.

**Hardened edges.**  Per-connection read deadlines and an idle timeout
bound slow-loris clients; a connection limit bounds accept; a
per-connection *pipelining window* stops reading the socket while a
full window of requests is in flight (kernel backpressure does the
rest), and a service-level in-flight cap sheds excess requests with
``retry_after`` on the wire instead of queueing them.  A protocol
error on one connection closes *that* connection at worst — the accept
loop and every other connection keep serving.

**Graceful drain.**  :meth:`WireServer.drain` (SIGTERM in the CLI)
stops accepting, lets every in-flight request finish or deadline out,
then closes the lingering sockets — a deploy never kills answered work.

:class:`WireServerThread` runs the whole server on a dedicated event
loop thread, which is how tests, benches, and the synchronous CLI host
it.
"""

from __future__ import annotations

import asyncio
import math
import struct
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..network.grid import Rect
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from ..query.engine import (
    POOL_MIN_EXECUTIONS,
    RangeQuery,
    WhenQuery,
    WhereQuery,
)
from ..query.transport import (
    TransportError,
    UnencodableAnswers,
    decode_answers_blob,
    encode_answers,
)
from .errors import DeadlineExceeded, Overloaded, ShardQuarantined
from .service import MODE_BATCH, MODE_SHARDED, ROUTE_INPROCESS

_log = get_logger("repro.serve.wire")

WIRE_MAGIC = b"RW"
WIRE_VERSION = 1

# frame types
FRAME_REQUEST = 1
FRAME_RESPONSE = 2
FRAME_ERROR = 3
FRAME_PING = 4
FRAME_PONG = 5
_FRAME_NAMES = {
    FRAME_REQUEST: "request",
    FRAME_RESPONSE: "response",
    FRAME_ERROR: "error",
    FRAME_PING: "ping",
    FRAME_PONG: "pong",
}

# error codes — one per ServiceResponse outcome plus the wire's own
ERR_OVERLOADED = 1
ERR_DEADLINE = 2
ERR_QUARANTINED = 3
ERR_MALFORMED = 4
ERR_INTERNAL = 5
ERR_DRAINING = 6

_HEADER = struct.Struct("<2sBBQII")  # magic, version, type, id, len, crc
HEADER_SIZE = _HEADER.size

_REQ_HEAD = struct.Struct("<dHI")  # deadline (0 = default), client len, count
_Q_TAG = struct.Struct("<B")
_Q_WHERE = struct.Struct("<qqd")  # trajectory, t, alpha
_Q_WHEN = struct.Struct("<qqqdd")  # trajectory, e0, e1, rd, alpha
_Q_RANGE = struct.Struct("<ddddqd")  # rect, t, alpha
_RESP_HEAD = struct.Struct("<B")  # mode code
_ERR_HEAD = struct.Struct("<BdH")  # code, retry_after, message len

_TAG_WHERE = 0
_TAG_WHEN = 1
_TAG_RANGE = 2

# code 2 (the retired per-query cold rung) is not reused: an old
# server's byte decodes to "" like any unknown code
_MODE_CODES = {MODE_SHARDED: 0, MODE_BATCH: 1, "": 255}
_MODE_NAMES = {code: mode for mode, code in _MODE_CODES.items()}

#: hard caps a frame must respect before any allocation happens
MAX_BODY_BYTES = 8 << 20
MAX_CLIENT_BYTES = 256
MAX_QUERIES_PER_REQUEST = 65536


class WireError(Exception):
    """Base class for wire-level failures."""


class WireProtocolError(WireError):
    """The byte stream violates the framing contract (bad magic or
    version, oversized body, CRC mismatch, malformed request body).
    Never answered with data — at worst it costs the connection."""


class WireClosedError(WireError):
    """The peer went away mid-conversation (disconnect, refused
    connection, short read, or a draining server)."""


class WireServerError(WireError):
    """The server reported an internal failure for this request (the
    ``failed`` ServiceResponse bucket — e.g. the pool was unavailable
    and the service closing).  The request may be retried; nothing was
    answered."""


# ----------------------------------------------------------------------
# frame codec (shared by server and client)
# ----------------------------------------------------------------------
def encode_frame(frame_type: int, request_id: int, body: bytes = b"") -> bytes:
    """One complete frame: header (with the body's CRC-32) + body."""
    return (
        _HEADER.pack(
            WIRE_MAGIC,
            WIRE_VERSION,
            frame_type,
            request_id,
            len(body),
            zlib.crc32(body),
        )
        + body
    )


def decode_header(header: bytes) -> tuple[int, int, int, int]:
    """Validate one header; returns ``(type, request_id, length, crc)``.

    Raises :class:`WireProtocolError` on bad magic/version/type or an
    oversized body — *before* any body bytes are read or allocated.
    """
    try:
        magic, version, frame_type, request_id, length, crc = _HEADER.unpack(
            header
        )
    except struct.error as error:
        raise WireProtocolError(f"short header: {error}") from None
    if magic != WIRE_MAGIC:
        raise WireProtocolError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireProtocolError(
            f"unsupported protocol version {version} (speak {WIRE_VERSION})"
        )
    if frame_type not in _FRAME_NAMES:
        raise WireProtocolError(f"unknown frame type {frame_type}")
    if length > MAX_BODY_BYTES:
        raise WireProtocolError(
            f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )
    return frame_type, request_id, length, crc


def check_body(body: bytes, crc: int) -> None:
    """The corruption gate: a body that fails its header CRC is never
    parsed."""
    if zlib.crc32(body) != crc:
        raise WireProtocolError("body CRC mismatch (corrupt frame)")


def encode_request_body(
    queries, *, client: str = "wire", deadline: float | None = None
) -> bytes:
    """Pack one request: client id, optional deadline, query list."""
    client_bytes = client.encode("utf-8")
    if len(client_bytes) > MAX_CLIENT_BYTES:
        raise WireProtocolError(
            f"client id of {len(client_bytes)} bytes exceeds "
            f"{MAX_CLIENT_BYTES}"
        )
    if len(queries) > MAX_QUERIES_PER_REQUEST:
        raise WireProtocolError(
            f"{len(queries)} queries exceed the per-request cap of "
            f"{MAX_QUERIES_PER_REQUEST}"
        )
    parts = [
        _REQ_HEAD.pack(
            deadline if deadline is not None else 0.0,
            len(client_bytes),
            len(queries),
        ),
        client_bytes,
    ]
    for query in queries:
        if isinstance(query, WhereQuery):
            parts.append(_Q_TAG.pack(_TAG_WHERE))
            parts.append(
                _Q_WHERE.pack(query.trajectory_id, query.t, query.alpha)
            )
        elif isinstance(query, WhenQuery):
            parts.append(_Q_TAG.pack(_TAG_WHEN))
            parts.append(
                _Q_WHEN.pack(
                    query.trajectory_id,
                    query.edge[0],
                    query.edge[1],
                    query.relative_distance,
                    query.alpha,
                )
            )
        elif isinstance(query, RangeQuery):
            parts.append(_Q_TAG.pack(_TAG_RANGE))
            parts.append(
                _Q_RANGE.pack(
                    query.rect.min_x,
                    query.rect.min_y,
                    query.rect.max_x,
                    query.rect.max_y,
                    query.t,
                    query.alpha,
                )
            )
        else:
            raise WireProtocolError(
                f"unsupported query type {type(query).__name__}"
            )
    return b"".join(parts)


def decode_request_body(body) -> tuple[str, float | None, list]:
    """Unpack one request body; returns ``(client, deadline, queries)``.

    Raises :class:`WireProtocolError` for any malformed shape — a
    truncated list, an unknown tag, a degenerate rectangle, a NaN or
    infinity in any float field.  Nothing is executed on that path.
    """
    try:
        deadline, client_len, count = _REQ_HEAD.unpack_from(body, 0)
        offset = _REQ_HEAD.size
        if not math.isfinite(deadline):
            raise WireProtocolError(f"deadline {deadline!r}")
        if client_len > MAX_CLIENT_BYTES:
            raise WireProtocolError(f"client id of {client_len} bytes")
        if count > MAX_QUERIES_PER_REQUEST:
            raise WireProtocolError(f"{count} queries in one request")
        client = bytes(body[offset:offset + client_len]).decode("utf-8")
        if len(client.encode("utf-8")) != client_len:
            raise WireProtocolError("truncated client id")
        offset += client_len
        queries: list = []
        for _ in range(count):
            (tag,) = _Q_TAG.unpack_from(body, offset)
            offset += _Q_TAG.size
            if tag == _TAG_WHERE:
                trajectory_id, t, alpha = _Q_WHERE.unpack_from(body, offset)
                offset += _Q_WHERE.size
                queries.append(WhereQuery(trajectory_id, t, alpha))
            elif tag == _TAG_WHEN:
                trajectory_id, e0, e1, rd, alpha = _Q_WHEN.unpack_from(
                    body, offset
                )
                offset += _Q_WHEN.size
                queries.append(WhenQuery(trajectory_id, (e0, e1), rd, alpha))
            elif tag == _TAG_RANGE:
                min_x, min_y, max_x, max_y, t, alpha = _Q_RANGE.unpack_from(
                    body, offset
                )
                offset += _Q_RANGE.size
                queries.append(
                    RangeQuery(Rect(min_x, min_y, max_x, max_y), t, alpha)
                )
            else:
                raise WireProtocolError(f"unknown query tag {tag}")
        if offset != len(body):
            raise WireProtocolError(
                f"{len(body) - offset} trailing bytes after the query list"
            )
    except (struct.error, UnicodeDecodeError, ValueError) as error:
        # ValueError includes the specs' own checks: a degenerate
        # rectangle, a non-finite coordinate, distance or alpha
        raise WireProtocolError(f"malformed request body: {error}") from None
    return client, (deadline if deadline > 0 else None), queries


def encode_response_body(mode: str, results) -> bytes:
    """Mode byte + the PR 9 answer blob."""
    return _RESP_HEAD.pack(_MODE_CODES.get(mode, 255)) + encode_answers(
        results
    )


def decode_response_body(body) -> tuple[str, list]:
    try:
        (mode_code,) = _RESP_HEAD.unpack_from(body, 0)
        results = decode_answers_blob(memoryview(body)[_RESP_HEAD.size:])
    except (struct.error, TransportError) as error:
        raise WireProtocolError(
            f"malformed response body: {error}"
        ) from None
    return _MODE_NAMES.get(mode_code, ""), results


def encode_error_body(
    code: int, message: str, *, retry_after: float = 0.0
) -> bytes:
    message_bytes = message.encode("utf-8")[:2048]
    return (
        _ERR_HEAD.pack(code, retry_after, len(message_bytes)) + message_bytes
    )


def decode_error_body(body) -> tuple[int, float, str]:
    try:
        code, retry_after, length = _ERR_HEAD.unpack_from(body, 0)
        message = bytes(
            body[_ERR_HEAD.size:_ERR_HEAD.size + length]
        ).decode("utf-8", errors="replace")
    except struct.error as error:
        raise WireProtocolError(f"malformed error body: {error}") from None
    return code, retry_after, message


def exception_from_error(code: int, retry_after: float, message: str):
    """Client-side: rehydrate an error frame into its typed exception."""
    if code == ERR_OVERLOADED:
        return Overloaded(message, retry_after=retry_after)
    if code == ERR_DEADLINE:
        return DeadlineExceeded(message)
    if code == ERR_QUARANTINED:
        return ShardQuarantined(message)
    if code == ERR_MALFORMED:
        return WireProtocolError(f"server rejected the frame: {message}")
    if code == ERR_DRAINING:
        return WireClosedError(f"server is draining: {message}")
    return WireServerError(message or "internal server error")


def error_frame_for_response(request_id: int, response) -> bytes:
    """Map one failed :class:`ServiceResponse` to its error frame."""
    error = response.error
    retry_after = getattr(error, "retry_after", 0.0)
    code = {
        "overloaded": ERR_OVERLOADED,
        "deadline": ERR_DEADLINE,
        "quarantined": ERR_QUARANTINED,
    }.get(response.kind, ERR_INTERNAL)
    message = (
        getattr(error, "path", None)
        if code == ERR_QUARANTINED
        else str(error)
    ) or str(error)
    return encode_frame(
        FRAME_ERROR,
        request_id,
        encode_error_body(code, message, retry_after=retry_after),
    )


# ----------------------------------------------------------------------
# the asyncio server
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WireServerConfig:
    """Connection-edge hardening knobs."""

    max_connections: int = 64
    pipeline_window: int = 8  # in-flight requests per connection
    idle_timeout: float = 300.0  # seconds between frames before close
    read_timeout: float = 10.0  # seconds to deliver one frame's body

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        if self.pipeline_window < 1:
            raise ValueError(
                f"pipeline_window must be >= 1, got {self.pipeline_window}"
            )


class _WireStats:
    """Process-registry mirrors for the wire front-end."""

    def __init__(self) -> None:
        self.connections_total = obs_metrics.counter(
            "repro_wire_connections_total",
            help="TCP connections accepted by the wire front-end",
        )
        self.connections_active = obs_metrics.gauge(
            "repro_wire_connections_active"
        )
        self.rejected = {
            reason: obs_metrics.counter(
                "repro_wire_connections_rejected_total",
                labels={"reason": reason},
            )
            for reason in ("limit", "draining")
        }
        self.frames_in = {
            name: obs_metrics.counter(
                "repro_wire_frames_received_total", labels={"type": name}
            )
            for name in _FRAME_NAMES.values()
        }
        self.frames_out = {
            name: obs_metrics.counter(
                "repro_wire_frames_sent_total", labels={"type": name}
            )
            for name in _FRAME_NAMES.values()
        }
        self.protocol_errors = {
            reason: obs_metrics.counter(
                "repro_wire_protocol_errors_total",
                labels={"reason": reason},
            )
            for reason in (
                "bad_header", "bad_crc", "bad_request", "timeout",
                "disconnect",
            )
        }
        self.bytes_read = obs_metrics.counter("repro_wire_bytes_read_total")
        self.bytes_written = obs_metrics.counter(
            "repro_wire_bytes_written_total"
        )
        self.requests = obs_metrics.counter("repro_wire_requests_total")
        self.shed = obs_metrics.counter(
            "repro_wire_requests_shed_total",
            help="Requests refused at the wire before touching a thread",
        )
        self.dispatched = {
            on: obs_metrics.counter(
                "repro_wire_dispatched_total",
                labels={"on": on},
                help="Requests finished on the event loop or handed to "
                "the wire executor",
            )
            for on in ("loop", "executor")
        }
        self.latency = obs_metrics.histogram(
            "repro_wire_request_latency_seconds",
            help="Request latency observed at the wire layer",
        )


class WireServer:
    """The asyncio TCP front-end over one :class:`QueryService`.

    Must be constructed and driven on an event loop
    (:class:`WireServerThread` hosts one for synchronous callers).
    ``service`` only needs ``begin(queries, client=, deadline=)``,
    ``finish(pending)`` and ``config.max_in_flight`` — the chaos tests
    duck-type it.

    Every request's first half (admission, plan, route) runs on the
    loop.  A refusal, and a request routed in process with fewer than
    :data:`~repro.query.engine.POOL_MIN_EXECUTIONS` executions, is
    finished there too: it would hold the GIL and the service's local
    lock on any thread.  Everything else — every pool wait — finishes
    on the executor.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: WireServerConfig | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # rebound to the kernel-chosen port on start
        self.config = config or WireServerConfig()
        self.stats = _WireStats()
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._connections: set[asyncio.StreamWriter] = set()
        self._tasks: set[asyncio.Task] = set()
        self._dispatched = 0
        # one thread per request the service may admit, so a request
        # handed to the executor gets a thread immediately, and the
        # shed path above the limit never waits behind a queue
        self._dispatch_limit = max(1, service.config.max_in_flight)
        self._executor = ThreadPoolExecutor(
            max_workers=self._dispatch_limit,
            thread_name_prefix="repro-wire",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("wire.listening", host=self.host, port=self.port)
        return self.host, self.port

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting, let in-flight requests finish or deadline
        out, close lingering connections.  True when everything
        completed inside the budget."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if timeout is None:
            deadline = getattr(
                getattr(self.service, "config", None), "deadline", 2.0
            )
            timeout = deadline + 1.0  # a second of grace past the deadline
        pending = [task for task in self._tasks if not task.done()]
        _log.info(
            "wire.drain_begin", in_flight=len(pending), timeout=timeout
        )
        clean = True
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=timeout
            )
            clean = not still_pending
            for task in still_pending:
                task.cancel()
        # connections idle at their read loop just get closed; anything
        # mid-request already produced (or lost) its response above
        for writer in list(self._connections):
            writer.close()
        _log.info("wire.drain_done", clean=clean)
        return clean

    async def aclose(self) -> None:
        if not self._draining:
            await self.drain(timeout=0.0)
        # queued work is not cancelled: a second half still waiting
        # for a thread holds an admission slot only it gives back
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # per-connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections_total.inc()
        write_lock = asyncio.Lock()
        if self._draining:
            self.stats.rejected["draining"].inc()
            await self._refuse(
                writer, write_lock, ERR_DRAINING, "server is draining"
            )
            return
        if len(self._connections) >= self.config.max_connections:
            self.stats.rejected["limit"].inc()
            await self._refuse(
                writer,
                write_lock,
                ERR_OVERLOADED,
                f"connection limit ({self.config.max_connections}) reached",
                retry_after=0.5,
            )
            return
        self._connections.add(writer)
        self.stats.connections_active.set(len(self._connections))
        window = asyncio.Semaphore(self.config.pipeline_window)
        try:
            await self._read_loop(reader, writer, write_lock, window)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            self.stats.protocol_errors["disconnect"].inc()
        except asyncio.TimeoutError:
            self.stats.protocol_errors["timeout"].inc()
            _log.info("wire.connection_timed_out")
        except Exception as error:  # noqa: BLE001 - the loop must survive
            # an unexpected per-connection failure must never take the
            # accept loop (or any sibling connection) with it
            _log.error("wire.connection_error", error=str(error))
        finally:
            self._connections.discard(writer)
            self.stats.connections_active.set(len(self._connections))
            writer.close()

    async def _read_loop(self, reader, writer, write_lock, window) -> None:
        config = self.config
        while True:
            # backpressure: with a full pipelining window this blocks —
            # the socket is not read, the kernel buffer fills, and the
            # client's send stalls until a response frees a slot
            await window.acquire()
            release = window.release
            try:
                if self._draining:
                    return
                async with asyncio.timeout(config.idle_timeout):
                    header = await reader.readexactly(HEADER_SIZE)
                self.stats.bytes_read.inc(HEADER_SIZE)
                try:
                    frame_type, request_id, length, crc = decode_header(
                        header
                    )
                except WireProtocolError as error:
                    # the stream is desynchronized: answer (best
                    # effort) and drop this connection only
                    self.stats.protocol_errors["bad_header"].inc()
                    await self._send(
                        writer,
                        write_lock,
                        encode_frame(
                            FRAME_ERROR,
                            0,
                            encode_error_body(ERR_MALFORMED, str(error)),
                        ),
                    )
                    _log.info("wire.bad_header", error=str(error))
                    return
                # the body length is trusted *after* decode_header
                # capped it, so a slow body read is bounded by
                # read_timeout (the slow-loris edge) and the stream
                # stays in sync even when the CRC fails below
                async with asyncio.timeout(config.read_timeout):
                    body = await reader.readexactly(length)
                self.stats.bytes_read.inc(length)
                self.stats.frames_in[_FRAME_NAMES[frame_type]].inc()
                try:
                    check_body(body, crc)
                except WireProtocolError as error:
                    self.stats.protocol_errors["bad_crc"].inc()
                    await self._send(
                        writer,
                        write_lock,
                        encode_frame(
                            FRAME_ERROR,
                            request_id,
                            encode_error_body(ERR_MALFORMED, str(error)),
                        ),
                    )
                    continue
                if frame_type == FRAME_PING:
                    await self._send(
                        writer,
                        write_lock,
                        encode_frame(FRAME_PONG, request_id, body),
                    )
                    continue
                if frame_type != FRAME_REQUEST:
                    await self._send(
                        writer,
                        write_lock,
                        encode_frame(
                            FRAME_ERROR,
                            request_id,
                            encode_error_body(
                                ERR_MALFORMED,
                                f"unexpected {_FRAME_NAMES[frame_type]} "
                                f"frame",
                            ),
                        ),
                    )
                    continue
                try:
                    client, deadline, queries = decode_request_body(body)
                except WireProtocolError as error:
                    self.stats.protocol_errors["bad_request"].inc()
                    await self._send(
                        writer,
                        write_lock,
                        encode_frame(
                            FRAME_ERROR,
                            request_id,
                            encode_error_body(ERR_MALFORMED, str(error)),
                        ),
                    )
                    continue
                # hand the window slot to the request task; it releases
                # on completion, which is what reopens the read loop
                task = asyncio.ensure_future(
                    self._serve_request(
                        writer,
                        write_lock,
                        window,
                        request_id,
                        client,
                        deadline,
                        queries,
                    )
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                release = None  # the task owns the slot now
            finally:
                if release is not None:
                    release()

    async def _serve_request(
        self, writer, write_lock, window, request_id, client, deadline,
        queries,
    ) -> None:
        started = time.perf_counter()
        self.stats.requests.inc()
        try:
            if self._dispatched >= self._dispatch_limit:
                # shed at the wire: every executor thread is busy, so
                # queueing here would just convert overload to latency
                self.stats.shed.inc()
                frame = encode_frame(
                    FRAME_ERROR,
                    request_id,
                    encode_error_body(
                        ERR_OVERLOADED,
                        f"wire dispatch window is full "
                        f"({self._dispatch_limit} requests)",
                        retry_after=0.1,
                    ),
                )
            else:
                frame = await self._dispatch(request_id, client, deadline,
                                             queries)
            await self._send(writer, write_lock, frame)
        except (ConnectionResetError, BrokenPipeError):
            self.stats.protocol_errors["disconnect"].inc()
        except Exception as error:  # noqa: BLE001 - must not kill the loop
            _log.error("wire.request_error", error=str(error))
        finally:
            self.stats.latency.observe(time.perf_counter() - started)
            window.release()

    async def _dispatch(self, request_id, client, deadline, queries) -> bytes:
        """Admit, plan and route on the loop; finish here too when the
        request was refused or is small and routed in process, else on
        the executor — the only place a pool wait may block."""
        with obs_trace.trace_span(
            "wire.request", client=client, queries=len(queries)
        ) as span:
            try:
                pending = self.service.begin(
                    queries, client=client, deadline=deadline
                )
                if pending.response is not None or (
                    pending.route == ROUTE_INPROCESS
                    and pending.plan.executions < POOL_MIN_EXECUTIONS
                ):
                    on = "loop"
                    response = self.service.finish(pending)
                else:
                    on = "executor"
                    response = await self._finish_on_executor(pending)
            except Exception as error:  # noqa: BLE001 - typed on the wire
                # e.g. ServiceClosedError racing a drain
                return encode_frame(
                    FRAME_ERROR,
                    request_id,
                    encode_error_body(
                        ERR_DRAINING if self._draining else ERR_INTERNAL,
                        str(error),
                    ),
                )
            span.set("on", on)
            self.stats.dispatched[on].inc()
        if not response.ok:
            return error_frame_for_response(request_id, response)
        try:
            body = encode_response_body(response.mode, response.results)
        except UnencodableAnswers as error:
            return encode_frame(
                FRAME_ERROR,
                request_id,
                encode_error_body(
                    ERR_INTERNAL, f"unencodable answers: {error}"
                ),
            )
        return encode_frame(FRAME_RESPONSE, request_id, body)

    async def _finish_on_executor(self, pending):
        loop = asyncio.get_running_loop()
        self._dispatched += 1
        try:
            return await loop.run_in_executor(
                self._executor, self.service.finish, pending
            )
        finally:
            self._dispatched -= 1

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    async def _send(self, writer, write_lock, frame: bytes) -> None:
        frame_type = frame[3]
        async with write_lock:
            writer.write(frame)
            await writer.drain()
        self.stats.bytes_written.inc(len(frame))
        self.stats.frames_out[_FRAME_NAMES[frame_type]].inc()

    async def _refuse(
        self, writer, write_lock, code: int, message: str,
        *, retry_after: float = 0.0,
    ) -> None:
        try:
            await self._send(
                writer,
                write_lock,
                encode_frame(
                    FRAME_ERROR,
                    0,
                    encode_error_body(
                        code, message, retry_after=retry_after
                    ),
                ),
            )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()


class WireServerThread:
    """Host a :class:`WireServer` on a dedicated event-loop thread.

    The synchronous world's handle on the server: tests, benches, and
    ``repro serve-bench --wire`` start one, talk to ``.port`` with a
    :class:`~repro.serve.client.WireClient`, and ``drain()`` it when
    done.  (The ``repro serve`` command drives the asyncio API
    directly so it can own signal handling.)
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: WireServerConfig | None = None,
    ) -> None:
        self.server = WireServer(service, host=host, port=port, config=config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> "WireServerThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-wire-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._start_error is not None:
            raise self._start_error
        if not self._started.is_set():
            raise WireError("wire server failed to start within 10s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as error:  # noqa: BLE001 - surfaced to start()
                self._start_error = error
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            loop.close()

    def _call(self, coroutine, timeout: float | None):
        if self._loop is None:
            raise WireError("wire server thread is not running")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout)

    def drain(self, timeout: float | None = None) -> bool:
        """Synchronous graceful drain; returns the server's verdict."""
        budget = None if timeout is None else timeout + 5.0
        clean = self._call(self.server.drain(timeout), budget)
        self.stop()
        return clean

    def stop(self) -> None:
        """Tear the loop down (drain first for a graceful exit)."""
        loop, self._loop = self._loop, None
        if loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), loop
        ).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "WireServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.stop()
        except Exception:
            if exc_type is None:
                raise
