"""Synchronous wire client with reconnect and jittered backoff.

:class:`WireClient` is the blocking counterpart of
:class:`~repro.serve.wire.WireServer`: one TCP connection, one framed
request/response at a time.  Queries are pure reads over immutable
archives, so a request that dies mid-flight (disconnect, short read,
corrupt frame) is safe to resubmit on a fresh connection — the client
does exactly that, up to ``max_attempts`` times, pausing with the
same capped decorrelated-jitter schedule the worker supervisor uses
(:meth:`~repro.serve.supervisor.RetryPolicy.schedule`), so a fleet of
clients recovering from the same blip spreads its reconnects instead
of stampeding.

Typed error frames come back as the exceptions they encode:
:class:`~repro.serve.errors.Overloaded` (with the server's
``retry_after``), :class:`~repro.serve.errors.DeadlineExceeded`,
:class:`~repro.serve.errors.ShardQuarantined`, and the wire's own
:class:`~repro.serve.wire.WireProtocolError` /
:class:`~repro.serve.wire.WireServerError` /
:class:`~repro.serve.wire.WireClosedError`.  Those are *answers*, not
transport failures — the client raises them instead of retrying
(except ``Overloaded``/draining, which honor ``retry_after`` within
the attempt budget).
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from dataclasses import dataclass

from ..obs.log import get_logger
from .errors import Overloaded
from .supervisor import RetryPolicy
from .wire import (
    FRAME_PING,
    FRAME_PONG,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    HEADER_SIZE,
    WireClosedError,
    WireError,
    WireProtocolError,
    check_body,
    decode_error_body,
    decode_header,
    decode_response_body,
    encode_frame,
    encode_request_body,
    exception_from_error,
)

_log = get_logger("repro.serve.client")

#: default pause schedule: decorrelated jitter between 20ms and 500ms
DEFAULT_BACKOFF = RetryPolicy(
    backoff_base=0.02, backoff_cap=0.5, max_attempts=5
)


@dataclass(frozen=True)
class WireResult:
    """One successful request: the answers plus wire-side metadata."""

    results: list
    # rung that answered: "batch" for a request routed in process (the
    # normal answer for a small one), "sharded" for one the pool served;
    # anything below the routed rung is a degradation
    mode: str
    request_id: int
    attempts: int  # wire attempts spent (1 = clean first try)
    latency: float  # seconds, first send to decoded response


class WireClient:
    """Blocking client for the framed query protocol.

    Not thread-safe — one client per thread (the chaos bench runs one
    per worker).  Usable as a context manager; connects lazily on the
    first request.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "wire",
        connect_timeout: float = 2.0,
        request_timeout: float = 30.0,
        max_attempts: int = 4,
        backoff: RetryPolicy | None = None,
        seed: int | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_attempts = max(1, max_attempts)
        self._backoff = backoff or DEFAULT_BACKOFF
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        self._request_ids = itertools.count(1)
        self.reconnects = 0
        self.retries = 0

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> None:
        """Establish the connection, retrying with jittered backoff."""
        if self._sock is not None:
            return
        schedule = self._backoff.schedule(self._rng)
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                sock.settimeout(self.request_timeout)
                sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                self._sock = sock
                if attempt:
                    self.reconnects += 1
                return
            except OSError as error:
                last_error = error
                if attempt + 1 < self.max_attempts:
                    time.sleep(schedule.next_pause(attempt))
        raise WireClosedError(
            f"cannot connect to {self.host}:{self.port} after "
            f"{self.max_attempts} attempts: {last_error}"
        )

    def close(self) -> None:
        self._drop()

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "WireClient":
        self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def request(
        self, queries, *, deadline: float | None = None
    ) -> WireResult:
        """Submit one batch; returns a :class:`WireResult` or raises
        the typed error the server answered with.

        Transport failures (disconnect, short read, corrupt frame,
        refused connect) trigger reconnect-and-resubmit with jittered
        pauses; ``Overloaded`` honors the server's ``retry_after``.
        The last attempt's failure propagates.
        """
        body = encode_request_body(
            queries, client=self.client_id, deadline=deadline
        )
        schedule = self._backoff.schedule(self._rng)
        started = time.perf_counter()
        last_error: Exception = WireClosedError("no attempts made")
        for attempt in range(self.max_attempts):
            if attempt:
                self.retries += 1
            request_id = next(self._request_ids)
            try:
                if attempt and self._sock is None:
                    self.reconnects += 1
                self.connect()
                frame_type, echoed_id, payload = self._roundtrip(
                    encode_frame(FRAME_REQUEST, request_id, body)
                )
            except (OSError, WireClosedError) as error:
                # the connection died with the request in flight —
                # reads are idempotent, so resubmit on a fresh socket
                last_error = error
                self._drop()
                if attempt + 1 < self.max_attempts:
                    time.sleep(schedule.next_pause(attempt))
                continue
            except WireProtocolError as error:
                # the *stream* is corrupt (bad magic/CRC from our side
                # of the wire): the connection is unusable, retry fresh
                last_error = error
                self._drop()
                _log.info("wire_client.corrupt_stream", error=str(error))
                if attempt + 1 < self.max_attempts:
                    time.sleep(schedule.next_pause(attempt))
                continue
            if frame_type == FRAME_RESPONSE:
                if echoed_id != request_id:
                    # a response for a request this client never made:
                    # the framing is out of step, start over
                    last_error = WireProtocolError(
                        f"response for request {echoed_id}, "
                        f"expected {request_id}"
                    )
                    self._drop()
                    continue
                mode, results = decode_response_body(payload)
                return WireResult(
                    results=results,
                    mode=mode,
                    request_id=request_id,
                    attempts=attempt + 1,
                    latency=time.perf_counter() - started,
                )
            # an error frame: typed outcome from the server
            code, retry_after, message = decode_error_body(payload)
            error = exception_from_error(code, retry_after, message)
            if isinstance(
                error, (Overloaded, WireClosedError, WireProtocolError)
            ):
                # shed, draining, or the server saw a corrupt frame
                # (in-flight corruption of *our* request — the CRC did
                # its job): back off, honoring retry_after, and resend
                # within the attempt budget; an actually-broken client
                # still surfaces the error once the budget is spent
                last_error = error
                if isinstance(error, (WireClosedError, WireProtocolError)):
                    self._drop()  # start over on a fresh connection
                if attempt + 1 < self.max_attempts:
                    pause = max(
                        getattr(error, "retry_after", 0.0),
                        schedule.next_pause(attempt),
                    )
                    time.sleep(pause)
                continue
            raise error
        raise last_error

    def ping(self, payload: bytes = b"ping") -> float:
        """Round-trip one ping frame; returns the latency in seconds."""
        self.connect()
        started = time.perf_counter()
        request_id = next(self._request_ids)
        frame_type, echoed_id, body = self._roundtrip(
            encode_frame(FRAME_PING, request_id, payload)
        )
        if frame_type != FRAME_PONG or echoed_id != request_id:
            raise WireProtocolError(
                f"expected pong {request_id}, got frame type "
                f"{frame_type} id {echoed_id}"
            )
        if bytes(body) != payload:
            raise WireProtocolError("pong payload mismatch")
        return time.perf_counter() - started

    # ------------------------------------------------------------------
    # raw framing
    # ------------------------------------------------------------------
    def _roundtrip(self, frame: bytes) -> tuple[int, int, bytes]:
        sock = self._sock
        if sock is None:
            raise WireClosedError("not connected")
        try:
            sock.sendall(frame)
            header = self._read_exactly(sock, HEADER_SIZE)
            frame_type, request_id, length, crc = decode_header(header)
            body = self._read_exactly(sock, length)
        except socket.timeout as error:
            raise WireClosedError(
                f"no response within {self.request_timeout}s"
            ) from error
        check_body(body, crc)
        return frame_type, request_id, body

    @staticmethod
    def _read_exactly(sock: socket.socket, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                raise WireClosedError(
                    f"connection closed with {remaining} of {count} "
                    f"bytes unread"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


__all__ = ["DEFAULT_BACKOFF", "WireClient", "WireError", "WireResult"]
