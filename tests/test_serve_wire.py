"""The wire front-end: framing, hardening, backpressure, network chaos.

Three layers of pinning:

* the **codec** is pinned value-by-value (round trips, malformed
  shapes, CRC detection) — a bad frame must raise, never mis-parse;
* the **server** is pinned against a duck-typed service with
  controllable gates, so slow-loris reaping, connection limits,
  pipelining-window backpressure, wire-level shedding, and drain are
  each exercised deterministically with raw sockets;
* the **network** is broken on purpose with :class:`ChaosTCPProxy`
  (scripted, seeded) and the client's reconnect/retry loop must hand
  back correct answers anyway — the end-to-end contract: a network
  fault can cost a retry, never a wrong answer.
"""

import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.network.grid import Rect
from repro.query import StIUIndex, ShardedQueryEngine, save_index
from repro.query.engine import RangeQuery, WhenQuery, WhereQuery
from repro.serve import (
    BackoffSchedule,
    ChaosTCPProxy,
    DeadlineExceeded,
    Overloaded,
    QueryService,
    RetryPolicy,
    ServiceConfig,
    ShardQuarantined,
    WireClient,
    WireClosedError,
    WireProtocolError,
    WireServerConfig,
    WireServerThread,
    corrupt_fault,
    disconnect_fault,
    refuse_fault,
    stall_fault,
    truncate_fault,
)
from repro.serve.service import (
    ROUTE_INPROCESS,
    ROUTE_POOL,
    ServiceResponse,
)
from repro.serve import wire
from repro.trajectories.datasets import load_dataset

from test_query_engine import make_queries, pool_sized_queries

QUERIES = [
    WhereQuery(3, 100, 0.5),
    WhenQuery(4, (1, 2), 0.25, 0.9),
    RangeQuery(Rect(0.0, 0.0, 50.0, 50.0), 7, 0.8),
]


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_frame_round_trip(self):
        frame = wire.encode_frame(wire.FRAME_REQUEST, 42, b"payload")
        kind, request_id, length, crc = wire.decode_header(
            frame[: wire.HEADER_SIZE]
        )
        assert (kind, request_id, length) == (wire.FRAME_REQUEST, 42, 7)
        wire.check_body(frame[wire.HEADER_SIZE:], crc)  # no raise

    def test_bad_magic_rejected(self):
        frame = bytearray(wire.encode_frame(wire.FRAME_PING, 1, b""))
        frame[0] ^= 0xFF
        with pytest.raises(WireProtocolError, match="magic"):
            wire.decode_header(bytes(frame[: wire.HEADER_SIZE]))

    def test_wrong_version_rejected(self):
        frame = bytearray(wire.encode_frame(wire.FRAME_PING, 1, b""))
        frame[2] = 99
        with pytest.raises(WireProtocolError, match="version"):
            wire.decode_header(bytes(frame[: wire.HEADER_SIZE]))

    def test_unknown_frame_type_rejected(self):
        frame = bytearray(wire.encode_frame(wire.FRAME_PING, 1, b""))
        frame[3] = 77
        with pytest.raises(WireProtocolError, match="frame type"):
            wire.decode_header(bytes(frame[: wire.HEADER_SIZE]))

    def test_oversized_body_rejected_before_allocation(self):
        header = struct.Struct("<2sBBQII").pack(
            b"RW", 1, wire.FRAME_REQUEST, 1, wire.MAX_BODY_BYTES + 1, 0
        )
        with pytest.raises(WireProtocolError, match="cap"):
            wire.decode_header(header)

    def test_crc_detects_any_flip(self):
        body = b"the quick brown frame"
        frame = wire.encode_frame(wire.FRAME_REQUEST, 9, body)
        _, _, _, crc = wire.decode_header(frame[: wire.HEADER_SIZE])
        for position in range(len(body)):
            mutated = bytearray(body)
            mutated[position] ^= 0x01
            with pytest.raises(WireProtocolError, match="CRC"):
                wire.check_body(bytes(mutated), crc)

    def test_request_body_round_trip(self):
        body = wire.encode_request_body(
            QUERIES, client="tester", deadline=2.5
        )
        client, deadline, queries = wire.decode_request_body(body)
        assert client == "tester"
        assert deadline == 2.5
        assert queries == QUERIES

    def test_default_deadline_travels_as_none(self):
        body = wire.encode_request_body(QUERIES, client="t")
        _, deadline, _ = wire.decode_request_body(body)
        assert deadline is None

    def test_malformed_request_bodies_raise_not_misparse(self):
        good = wire.encode_request_body(QUERIES, client="t")
        # truncated: the last record is cut short
        with pytest.raises(WireProtocolError):
            wire.decode_request_body(good[:-3])
        # trailing garbage after the declared query list
        with pytest.raises(WireProtocolError, match="trailing"):
            wire.decode_request_body(good + b"x")
        # unknown query tag
        mutated = bytearray(good)
        offset = struct.calcsize("<dHI") + 1  # first record's tag byte
        mutated[offset] = 9
        with pytest.raises(WireProtocolError):
            wire.decode_request_body(bytes(mutated))

    def test_degenerate_rect_is_malformed_not_a_crash(self):
        # a rect with min >= max fails Rect's own validation; the wire
        # must surface that as a protocol error, not a ValueError
        body = wire.encode_request_body(
            [RangeQuery(Rect(0.0, 0.0, 50.0, 50.0), 7, 0.8)], client="t"
        )
        packed = struct.Struct("<ddddqd").pack(50.0, 0.0, 0.0, 50.0, 7, 0.8)
        mutated = body[: -len(packed)] + packed
        with pytest.raises(WireProtocolError, match="malformed"):
            wire.decode_request_body(mutated)

    def test_response_body_round_trip(self):
        results = [[1, 2, 3], [], [7]]
        body = wire.encode_response_body("sharded", results)
        mode, back = wire.decode_response_body(body)
        assert mode == "sharded"
        assert back == results

    def test_response_body_with_trailing_bytes_is_malformed(self):
        body = wire.encode_response_body("sharded", [[1, 2, 3]])
        with pytest.raises(WireProtocolError, match="trailing"):
            wire.decode_response_body(body + b"junk")

    def test_mode_byte_is_pinned_and_retired_code_still_parses(self):
        results = [[4], []]
        for mode, code in (("sharded", 0), ("batch", 1), ("", 255)):
            body = wire.encode_response_body(mode, results)
            assert body[0] == code
            assert wire.decode_response_body(body) == (mode, results)
        # 2 was the per-query cold rung: not reused, and an old server's
        # frame still parses, to "no mode"
        assert 2 not in wire._MODE_NAMES
        assert wire.decode_response_body(b"\x02" + body[1:]) == ("", results)
        # a name this server does not know travels as "no mode"
        assert wire.encode_response_body("single", results)[0] == 255

    def test_error_body_round_trip_and_typing(self):
        for code, expected in (
            (wire.ERR_OVERLOADED, Overloaded),
            (wire.ERR_DEADLINE, DeadlineExceeded),
            (wire.ERR_QUARANTINED, ShardQuarantined),
            (wire.ERR_MALFORMED, WireProtocolError),
            (wire.ERR_DRAINING, WireClosedError),
            (wire.ERR_INTERNAL, wire.WireServerError),
        ):
            body = wire.encode_error_body(code, "boom", retry_after=0.5)
            back_code, retry_after, message = wire.decode_error_body(body)
            assert (back_code, retry_after, message) == (code, 0.5, "boom")
            error = wire.exception_from_error(code, retry_after, message)
            assert isinstance(error, expected)

    def test_overloaded_retry_after_survives_the_wire(self):
        body = wire.encode_error_body(
            wire.ERR_OVERLOADED, "busy", retry_after=1.25
        )
        error = wire.exception_from_error(*wire.decode_error_body(body))
        assert error.retry_after == 1.25


# ----------------------------------------------------------------------
# decorrelated-jitter backoff (the supervisor's and the client's)
# ----------------------------------------------------------------------
class TestBackoffSchedule:
    POLICY = RetryPolicy(
        backoff_base=0.05, backoff_cap=1.0, backoff_multiplier=2.0
    )

    def test_no_rng_is_the_deterministic_exponential(self):
        schedule = self.POLICY.schedule(None)
        assert [schedule.next_pause(n) for n in range(4)] == [
            self.POLICY.backoff(n) for n in range(4)
        ]

    def test_jitter_false_ignores_the_rng(self):
        import random

        policy = RetryPolicy(
            backoff_base=0.05, backoff_cap=1.0, jitter=False
        )
        schedule = policy.schedule(random.Random(1))
        assert schedule.next_pause(2) == policy.backoff(2)

    def test_seeded_schedules_are_reproducible(self):
        import random

        first = [
            self.POLICY.schedule(random.Random(7)).next_pause(n)
            for n in range(5)
        ]
        second = [
            self.POLICY.schedule(random.Random(7)).next_pause(n)
            for n in range(5)
        ]
        assert first == second

    def test_pauses_stay_inside_the_envelope(self):
        import random

        schedule = self.POLICY.schedule(random.Random(3))
        previous = self.POLICY.backoff_base
        for attempt in range(50):
            pause = schedule.next_pause(attempt)
            assert self.POLICY.backoff_base <= pause
            assert pause <= self.POLICY.backoff_cap
            assert pause <= max(previous * 3.0, self.POLICY.backoff_base)
            previous = max(pause, self.POLICY.backoff_base)

    def test_two_seeds_decorrelate(self):
        import random

        a = self.POLICY.schedule(random.Random(1))
        b = self.POLICY.schedule(random.Random(2))
        assert [a.next_pause(n) for n in range(6)] != [
            b.next_pause(n) for n in range(6)
        ]


# ----------------------------------------------------------------------
# server hardening, against a controllable fake service
# ----------------------------------------------------------------------
class FakeService:
    """Duck-typed QueryService: echoes trajectory ids.  A gated request
    is routed to the pool, so it finishes — and waits for its gate — on
    the wire executor; an ungated one finishes on the loop."""

    class config:
        max_in_flight = 8
        deadline = 5.0

    def __init__(self, gate: threading.Event | None = None) -> None:
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def begin(self, queries, *, client="x", deadline=None, trace=False):
        with self._lock:
            self.calls += 1
        return SimpleNamespace(
            response=None,
            queries=queries,
            client=client,
            route=ROUTE_INPROCESS if self.gate is None else ROUTE_POOL,
            plan=SimpleNamespace(executions=len(queries)),
        )

    def finish(self, pending):
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0)
        return ServiceResponse(
            ok=True,
            results=[[q.trajectory_id] for q in pending.queries],
            error=None,
            mode="sharded",
            latency=0.0,
            client=pending.client,
        )


def read_frame(sock: socket.socket) -> tuple[int, int, bytes]:
    def exactly(count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = sock.recv(count - len(data))
            if not chunk:
                raise ConnectionError("closed")
            data += chunk
        return data

    kind, request_id, length, crc = wire.decode_header(
        exactly(wire.HEADER_SIZE)
    )
    body = exactly(length)
    wire.check_body(body, crc)
    return kind, request_id, body


def request_frame(request_id: int, queries=None) -> bytes:
    return wire.encode_frame(
        wire.FRAME_REQUEST,
        request_id,
        wire.encode_request_body(queries or [WhereQuery(1, 5, 0.5)],
                                 client="raw"),
    )


class TestWireServer:
    def test_end_to_end_request_response(self):
        with WireServerThread(FakeService()) as server:
            with WireClient("127.0.0.1", server.port, seed=1) as client:
                assert client.ping() >= 0.0
                result = client.request([WhereQuery(7, 1, 0.5)])
                assert result.results == [[7]]
                assert result.mode == "sharded"
                assert result.attempts == 1

    def test_pipelined_requests_correlate_by_id(self):
        with WireServerThread(FakeService()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                for request_id in (11, 22, 33):
                    sock.sendall(request_frame(
                        request_id, [WhereQuery(request_id, 5, 0.5)]
                    ))
                seen = {}
                for _ in range(3):
                    kind, request_id, body = read_frame(sock)
                    assert kind == wire.FRAME_RESPONSE
                    _, results = wire.decode_response_body(body)
                    seen[request_id] = results
                assert seen == {11: [[11]], 22: [[22]], 33: [[33]]}

    def test_corrupt_body_gets_error_frame_and_stream_survives(self):
        with WireServerThread(FakeService()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                frame = bytearray(request_frame(5))
                frame[-1] ^= 0xFF  # break the body CRC
                sock.sendall(bytes(frame))
                kind, request_id, body = read_frame(sock)
                assert kind == wire.FRAME_ERROR
                code, _, message = wire.decode_error_body(body)
                assert code == wire.ERR_MALFORMED
                assert "CRC" in message
                # same connection, next frame: still served
                sock.sendall(request_frame(6))
                kind, request_id, _ = read_frame(sock)
                assert (kind, request_id) == (wire.FRAME_RESPONSE, 6)

    def test_malformed_request_body_gets_typed_error(self):
        with WireServerThread(FakeService()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.sendall(
                    wire.encode_frame(wire.FRAME_REQUEST, 7, b"garbage")
                )
                kind, request_id, body = read_frame(sock)
                assert (kind, request_id) == (wire.FRAME_ERROR, 7)
                assert wire.decode_error_body(body)[0] == wire.ERR_MALFORMED

    def test_non_finite_float_fields_are_malformed_and_never_served(self):
        # packed by hand: the query specs refuse these values themselves
        client = b"raw"

        def body(tag, layout, values, deadline=0.0):
            return (
                struct.pack("<dHI", deadline, len(client), 1)
                + client
                + struct.pack("<B", tag)
                + struct.pack(layout, *values)
            )

        records = [  # tag, layout, clean values, float slots
            (0, "<qqd", (3, 100, 0.5), (2,)),
            (1, "<qqqdd", (4, 1, 2, 0.25, 0.9), (3, 4)),
            (2, "<ddddqd", (0.0, 0.0, 50.0, 50.0, 7, 0.8), (0, 1, 2, 3, 5)),
        ]
        bodies = []
        for bad in (float("nan"), float("inf"), float("-inf")):
            bodies.append(body(0, "<qqd", (3, 100, 0.5), deadline=bad))
            for tag, layout, values, slots in records:
                wire.decode_request_body(body(tag, layout, values))  # clean
                for slot in slots:
                    poisoned = list(values)
                    poisoned[slot] = bad
                    bodies.append(body(tag, layout, poisoned))
        assert len(bodies) == 27
        service = FakeService()
        with WireServerThread(service) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                for request_id, payload in enumerate(bodies, 1):
                    sock.sendall(
                        wire.encode_frame(wire.FRAME_REQUEST, request_id,
                                          payload)
                    )
                    kind, echoed, reply = read_frame(sock)
                    assert (kind, echoed) == (wire.FRAME_ERROR, request_id)
                    assert (
                        wire.decode_error_body(reply)[0] == wire.ERR_MALFORMED
                    )
                assert service.calls == 0
                # and the connection still serves a well-formed request
                sock.sendall(request_frame(99))
                assert read_frame(sock)[:2] == (wire.FRAME_RESPONSE, 99)

    def test_relative_distance_off_the_edge_is_malformed_by_name(self):
        # packed by hand: a WhenQuery refuses rd = 1.5 itself
        client = b"raw"
        payload = (
            struct.pack("<dHI", 0.0, len(client), 1)
            + client
            + struct.pack("<B", 1)
            + struct.pack("<qqqdd", 4, 1, 2, 1.5, 0.9)
        )
        service = FakeService()
        with WireServerThread(service) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.sendall(wire.encode_frame(wire.FRAME_REQUEST, 1, payload))
                kind, echoed, reply = read_frame(sock)
                assert (kind, echoed) == (wire.FRAME_ERROR, 1)
                code, _, message = wire.decode_error_body(reply)
                assert code == wire.ERR_MALFORMED
                assert "relative_distance must be in [0, 1]" in message
        assert service.calls == 0

    def test_bad_magic_closes_only_that_connection(self):
        with WireServerThread(FakeService()) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.sendall(b"XX" + bytes(wire.HEADER_SIZE - 2))
                kind, _, body = read_frame(sock)
                assert kind == wire.FRAME_ERROR
                assert sock.recv(64) == b""  # desynced stream: closed
            # the accept loop survived: a fresh connection still works
            with WireClient("127.0.0.1", server.port, seed=2) as client:
                assert client.request([WhereQuery(1, 5, 0.5)]).results

    def test_slow_loris_is_reaped_by_the_idle_deadline(self):
        config = WireServerConfig(idle_timeout=0.3, read_timeout=0.3)
        with WireServerThread(FakeService(), config=config) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.sendall(b"RW\x01")  # 3 of 20 header bytes, then stall
                sock.settimeout(5.0)
                started = time.monotonic()
                assert sock.recv(64) == b""  # server hung up on us
                assert time.monotonic() - started < 4.0
            # a well-behaved client is still served afterwards
            with WireClient("127.0.0.1", server.port, seed=3) as client:
                assert client.request([WhereQuery(2, 5, 0.5)]).results

    def test_slow_body_is_reaped_by_the_read_deadline(self):
        config = WireServerConfig(idle_timeout=5.0, read_timeout=0.3)
        with WireServerThread(FakeService(), config=config) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                frame = request_frame(1)
                sock.sendall(frame[: wire.HEADER_SIZE + 4])  # header, 4 body
                sock.settimeout(5.0)
                assert sock.recv(64) == b""

    def test_connection_limit_sheds_with_retry_after(self):
        config = WireServerConfig(max_connections=1)
        with WireServerThread(FakeService(), config=config) as server:
            with WireClient("127.0.0.1", server.port, seed=4) as client:
                client.ping()  # connection one is registered
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5.0
                ) as second:
                    kind, _, body = read_frame(second)
                    assert kind == wire.FRAME_ERROR
                    code, retry_after, _ = wire.decode_error_body(body)
                    assert code == wire.ERR_OVERLOADED
                    assert retry_after > 0.0
                # the registered connection keeps working
                assert client.request([WhereQuery(3, 5, 0.5)]).results

    def test_full_pipeline_window_stops_reading_the_socket(self):
        gate = threading.Event()
        service = FakeService(gate)
        config = WireServerConfig(pipeline_window=2)
        with WireServerThread(service, config=config) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                for request_id in (1, 2, 3):
                    sock.sendall(request_frame(request_id))
                deadline = time.monotonic() + 2.0
                while service.calls < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)  # window full: frame 3 must NOT be read
                assert service.calls == 2
                gate.set()  # responses free the window; frame 3 follows
                answered = {read_frame(sock)[1] for _ in range(3)}
                assert answered == {1, 2, 3}
                assert service.calls == 3

    def test_wire_dispatch_cap_sheds_instead_of_queueing(self):
        gate = threading.Event()
        service = FakeService(gate)
        # the wire executor is sized by the service's in-flight window
        service.config = SimpleNamespace(
            max_in_flight=1, deadline=FakeService.config.deadline
        )
        with WireServerThread(service) as server:
            try:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=5.0
                ) as sock:
                    deadline = time.monotonic() + 2.0
                    sock.sendall(request_frame(1))
                    while service.calls < 1 and time.monotonic() < deadline:
                        time.sleep(0.01)
                    sock.sendall(request_frame(2))
                    kind, request_id, body = read_frame(sock)
                    assert (kind, request_id) == (wire.FRAME_ERROR, 2)
                    code, retry_after, _ = wire.decode_error_body(body)
                    assert code == wire.ERR_OVERLOADED
                    assert retry_after > 0.0
                    gate.set()
                    kind, request_id, _ = read_frame(sock)
                    assert (kind, request_id) == (wire.FRAME_RESPONSE, 1)
            finally:
                gate.set()

    def test_drain_finishes_in_flight_and_refuses_new_connects(self):
        gate = threading.Event()
        service = FakeService(gate)
        server = WireServerThread(service).start()
        port = server.port
        try:
            with socket.create_connection(
                ("127.0.0.1", port), timeout=5.0
            ) as sock:
                sock.sendall(request_frame(9))
                deadline = time.monotonic() + 2.0
                while service.calls < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                done = threading.Event()
                verdict = []

                def drain():
                    verdict.append(server.drain(timeout=5.0))
                    done.set()

                threading.Thread(target=drain, daemon=True).start()
                time.sleep(0.1)
                gate.set()  # let the in-flight request finish
                kind, request_id, _ = read_frame(sock)
                assert (kind, request_id) == (wire.FRAME_RESPONSE, 9)
                assert done.wait(timeout=10.0)
                assert verdict == [True]
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=1.0)
        finally:
            gate.set()
            server.stop()


# ----------------------------------------------------------------------
# client resilience through a hostile network
# ----------------------------------------------------------------------
class TestChaosTCP:
    def make_stack(self, **proxy_kwargs):
        server = WireServerThread(
            FakeService(),
            config=WireServerConfig(idle_timeout=5.0, read_timeout=1.0),
        ).start()
        proxy = ChaosTCPProxy("127.0.0.1", server.port, **proxy_kwargs)
        proxy.start()
        return server, proxy

    def test_passthrough_is_transparent(self):
        server, proxy = self.make_stack()
        try:
            with WireClient("127.0.0.1", proxy.port, seed=1) as client:
                result = client.request([WhereQuery(4, 5, 0.5)])
                assert result.results == [[4]]
                assert result.attempts == 1
        finally:
            proxy.stop()
            server.stop()

    def test_corrupt_in_flight_costs_a_retry_never_a_wrong_answer(self):
        server, proxy = self.make_stack(seed=5)
        try:
            with WireClient(
                "127.0.0.1", proxy.port, seed=2, request_timeout=2.0
            ) as client:
                proxy.arm(corrupt_fault())
                result = client.request([WhereQuery(6, 5, 0.5)])
                assert result.results == [[6]]
                assert result.attempts == 2
                assert proxy.injected["corrupt"] == 1
        finally:
            proxy.stop()
            server.stop()

    def test_disconnect_mid_request_reconnects_and_resubmits(self):
        server, proxy = self.make_stack(seed=6)
        try:
            with WireClient(
                "127.0.0.1", proxy.port, seed=3, request_timeout=2.0
            ) as client:
                client.ping()
                proxy.arm(disconnect_fault())
                result = client.request([WhereQuery(8, 5, 0.5)])
                assert result.results == [[8]]
                assert result.attempts >= 2
                assert client.reconnects >= 1
        finally:
            proxy.stop()
            server.stop()

    def test_truncated_frame_is_detected_and_retried(self):
        server, proxy = self.make_stack(seed=7)
        try:
            with WireClient(
                "127.0.0.1", proxy.port, seed=4, request_timeout=2.0
            ) as client:
                client.ping()
                proxy.arm(truncate_fault())
                result = client.request([WhereQuery(9, 5, 0.5)])
                assert result.results == [[9]]
                assert result.attempts >= 2
                assert proxy.injected["truncate"] == 1
        finally:
            proxy.stop()
            server.stop()

    def test_refused_connection_is_retried_with_backoff(self):
        server, proxy = self.make_stack(seed=8)
        try:
            proxy.arm(refuse_fault())
            with WireClient(
                "127.0.0.1", proxy.port, seed=5, request_timeout=2.0
            ) as client:
                assert client.request([WhereQuery(2, 5, 0.5)]).results
                assert proxy.injected["refuse"] == 1
        finally:
            proxy.stop()
            server.stop()

    def test_stall_delays_but_does_not_break(self):
        server, proxy = self.make_stack(seed=9)
        try:
            with WireClient(
                "127.0.0.1", proxy.port, seed=6, request_timeout=5.0
            ) as client:
                client.ping()
                proxy.arm(stall_fault(0.3))
                started = time.monotonic()
                result = client.request([WhereQuery(1, 5, 0.5)])
                assert result.results == [[1]]
                assert time.monotonic() - started >= 0.25
        finally:
            proxy.stop()
            server.stop()

    def test_dead_server_surfaces_closed_after_the_attempt_budget(self):
        # a port with nothing listening: connect() must retry with
        # backoff and then raise the typed transport error
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        client = WireClient(
            "127.0.0.1", port, seed=7, max_attempts=2,
            backoff=RetryPolicy(backoff_base=0.001, backoff_cap=0.002),
        )
        with pytest.raises(WireClosedError, match="cannot connect"):
            client.request([WhereQuery(1, 5, 0.5)])


# ----------------------------------------------------------------------
# the real service behind the wire
# ----------------------------------------------------------------------
SHARDS = 2


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("CD", 20, seed=53, network_scale=10)


@pytest.fixture(scope="module")
def wire_world(dataset, tmp_path_factory):
    network, trajectories = dataset
    archive = compress_dataset(network, trajectories, default_interval=10)
    root = tmp_path_factory.mktemp("wire")
    shard_paths = []
    total = len(archive.trajectories)
    for shard in range(SHARDS):
        lo = shard * total // SHARDS
        hi = (shard + 1) * total // SHARDS
        part = CompressedArchive(
            params=archive.params, trajectories=archive.trajectories[lo:hi]
        )
        path = root / f"shard-{shard}.utcq"
        part.save(path)
        save_index(StIUIndex(network, part), path)
        shard_paths.append(path)
    queries = make_queries(network, trajectories, count=12, seed=9)
    with ShardedQueryEngine(shard_paths, network=network, workers=1) as ref:
        expected = ref.run(queries)
    return network, shard_paths, queries, expected


class TestWireOverRealService:
    def test_answers_are_oracle_identical_through_tcp(
        self, dataset, wire_world
    ):
        network, shard_paths, _, _ = wire_world
        # pool-sized, so the answers cross the worker pool as well as
        # the socket
        queries = pool_sized_queries(*dataset, shard_paths, seed=9)
        with ShardedQueryEngine(
            shard_paths, network=network, workers=1
        ) as ref:
            expected = ref.run(queries)
        service = QueryService(
            shard_paths,
            network=network,
            workers=2,
            config=ServiceConfig(deadline=30.0, health_interval=None),
        )
        try:
            with WireServerThread(service) as server:
                with WireClient(
                    "127.0.0.1", server.port, seed=11
                ) as client:
                    result = client.request(queries)
                    assert result.results == expected
                    assert result.mode == "sharded"
        finally:
            service.close()

    def test_expired_deadline_comes_back_typed(self, wire_world):
        network, shard_paths, queries, _ = wire_world
        service = QueryService(
            shard_paths,
            network=network,
            workers=None,  # in-process: nothing to warm, fail fast
            config=ServiceConfig(deadline=30.0, health_interval=None),
        )
        try:
            with WireServerThread(service) as server:
                with WireClient(
                    "127.0.0.1", server.port, seed=12, max_attempts=1
                ) as client:
                    with pytest.raises(DeadlineExceeded):
                        client.request(queries, deadline=1e-9)
        finally:
            service.close()

    def test_when_on_an_edge_not_in_the_network_is_refused_by_name(
        self, dataset, wire_world
    ):
        network, shard_paths, queries, expected = wire_world
        tid = dataset[1][0].trajectory_id
        service = QueryService(
            shard_paths,
            network=network,
            workers=None,
            config=ServiceConfig(deadline=30.0, health_interval=None),
        )
        try:
            with WireServerThread(service) as server:
                with WireClient(
                    "127.0.0.1", server.port, seed=15, max_attempts=1
                ) as client:
                    assert client.request(queries).results == expected
                    parts = dict(service.engine._parts)
                    with pytest.raises(
                        wire.WireServerError,
                        match="no edge 999999 -> 999998 ",
                    ):
                        client.request(
                            [WhenQuery(tid, (999999, 999998), 0.5, 0.0)]
                        )
                    # a refused spec is not a sick shard: nothing reopens
                    assert service.engine._parts == parts
                    assert client.request(queries).results == expected
        finally:
            service.close()

    def test_chaos_sandwich_many_requests_zero_wrong_answers(
        self, wire_world
    ):
        # seeded probabilistic faults on every hop for a burst of
        # requests: whatever happens, completed answers match the oracle
        network, shard_paths, queries, expected = wire_world
        service = QueryService(
            shard_paths,
            network=network,
            workers=2,
            config=ServiceConfig(deadline=30.0, health_interval=None),
        )
        try:
            with WireServerThread(
                service,
                config=WireServerConfig(idle_timeout=5.0, read_timeout=2.0),
            ) as server:
                with ChaosTCPProxy(
                    "127.0.0.1",
                    server.port,
                    disconnect_probability=0.03,
                    corrupt_probability=0.03,
                    stall_probability=0.05,
                    stall_seconds=0.02,
                    seed=13,
                ) as proxy:
                    with WireClient(
                        "127.0.0.1",
                        proxy.port,
                        seed=14,
                        request_timeout=5.0,
                        max_attempts=6,
                    ) as client:
                        for _ in range(25):
                            result = client.request(queries)
                            assert result.results == expected
        finally:
            service.close()
