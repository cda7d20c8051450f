"""Fault injection for the serving tier — the chaos harness.

:class:`ChaosProxy` implements the :class:`~repro.query.engine.ShardWorkerPool`
duck-type by wrapping a real pool and smuggling faults *inside* the
pickled task, so the failure happens in the worker process exactly
where a real fault would:

* ``kill`` — the worker calls ``os._exit(1)`` mid-task: the executor
  loses a process and every in-flight future on it raises
  ``BrokenProcessPool``, the same signature as an OOM kill;
* ``delay`` — the worker sleeps past the caller's attempt budget
  before answering, the signature of a wedged or GC-stalled worker.

Faults are drawn from a **seeded** RNG (probabilistic chaos for the
bench) and/or a **scripted queue** (``arm(...)`` for deterministic
tests); scripted faults are consumed first.  Only :meth:`submit` — real
shard work — is ever faulted; pings and internal calls pass through, so
the health loop measures the pool, not the chaos.

Shard *data* corruption is a separate axis:
:func:`corrupt_shard` flips one byte inside the last record of an
archive on disk (breaking its CRC but not the file structure) and
returns the pristine bytes; :func:`restore_shard` puts them back.
After restoring, the file's fingerprint matches its ``.stiu`` sidecar
again, so re-admission is a warm reload.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from collections import deque
from pathlib import Path

from ..io.format import read_header
from ..query.engine import _run_shard_batch

KILL = "kill"
DELAY = "delay"


def kill_fault() -> tuple:
    return (KILL,)


def delay_fault(seconds: float) -> tuple:
    return (DELAY, float(seconds))


def _run_shard_batch_with_fault(payload: tuple):
    """Worker-side: suffer the fault, then (maybe) do the real work."""
    fault, task = payload
    if fault is not None:
        if fault[0] == KILL:
            os._exit(1)  # no cleanup — this is the point
        elif fault[0] == DELAY:
            time.sleep(fault[1])
    return _run_shard_batch(task)


class ChaosProxy:
    """A fault-injecting stand-in for :class:`ShardWorkerPool`.

    Pass one as the ``pool=`` of a :class:`ShardedQueryEngine` /
    :class:`QueryService`; everything — supervision, respawn, breaker —
    operates on the proxy exactly as it would on the real pool.
    """

    def __init__(
        self,
        pool,
        *,
        kill_probability: float = 0.0,
        delay_probability: float = 0.0,
        delay_seconds: float = 0.5,
        seed: int = 0,
    ) -> None:
        for name, value in (
            ("kill_probability", kill_probability),
            ("delay_probability", delay_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self._pool = pool
        self.kill_probability = kill_probability
        self.delay_probability = delay_probability
        self.delay_seconds = delay_seconds
        self._rng = random.Random(seed)
        self._scripted: deque = deque()
        self._lock = threading.Lock()
        self.injected = {KILL: 0, DELAY: 0}

    # ------------------------------------------------------------------
    # fault scheduling
    # ------------------------------------------------------------------
    def arm(self, *faults: tuple) -> None:
        """Queue faults for the next submits, ahead of any random draw."""
        with self._lock:
            self._scripted.extend(faults)

    def clear(self) -> None:
        """Drop any armed-but-unconsumed faults."""
        with self._lock:
            self._scripted.clear()

    def _next_fault(self) -> tuple | None:
        with self._lock:
            if self._scripted:
                fault = self._scripted.popleft()
            else:
                roll = self._rng.random()
                if roll < self.kill_probability:
                    fault = kill_fault()
                elif roll < self.kill_probability + self.delay_probability:
                    fault = delay_fault(self.delay_seconds)
                else:
                    return None
            if fault is not None:
                self.injected[fault[0]] += 1
            return fault

    # ------------------------------------------------------------------
    # ShardWorkerPool duck-type
    # ------------------------------------------------------------------
    def submit(self, path, specs, *, traced: bool = False):
        fault = self._next_fault()
        if fault is None:
            return self._pool.submit(path, specs, traced=traced)
        return self._pool.submit_call(
            _run_shard_batch_with_fault,
            (fault, (str(path), list(specs), traced)),
        )

    def submit_call(self, fn, payload):
        return self._pool.submit_call(fn, payload)

    def ping(self, *, timeout: float, payload: object = None):
        return self._pool.ping(timeout=timeout, payload=payload)

    def decode(self, payload):
        return self._pool.decode(payload)

    def worker_pids(self) -> list[int]:
        return self._pool.worker_pids()

    def restart(self) -> int:
        return self._pool.restart()

    def close(self) -> None:
        self._pool.close()

    @property
    def generation(self) -> int:
        return self._pool.generation

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def closed(self) -> bool:
        return self._pool.closed

    @property
    def broken(self) -> bool:
        return self._pool.broken


# ----------------------------------------------------------------------
# network chaos
# ----------------------------------------------------------------------
REFUSE = "refuse"
DISCONNECT = "disconnect"
TRUNCATE = "truncate"
CORRUPT = "corrupt"
STALL = "stall"

_STREAM_FAULTS = (DISCONNECT, TRUNCATE, CORRUPT, STALL)


def refuse_fault() -> tuple:
    return (REFUSE,)


def disconnect_fault() -> tuple:
    return (DISCONNECT,)


def truncate_fault() -> tuple:
    return (TRUNCATE,)


def corrupt_fault() -> tuple:
    return (CORRUPT,)


def stall_fault(seconds: float) -> tuple:
    return (STALL, float(seconds))


class ChaosTCPProxy:
    """A fault-injecting TCP forwarder in front of the wire server.

    :class:`ChaosProxy` breaks the *worker pool*; this breaks the
    *network* between a :class:`~repro.serve.client.WireClient` and a
    :class:`~repro.serve.wire.WireServer`.  Clients connect to the
    proxy's :attr:`port`; every connection is pumped byte-for-byte to
    the upstream server — except when a fault fires:

    * ``refuse`` — the accepted connection is closed before a byte
      moves (the connect-storm / crashed-listener shape);
    * ``disconnect`` — both sides are torn down mid-stream, dropping a
      frame on the floor;
    * ``truncate`` — half of one chunk is forwarded, then both sides
      close: the receiver sees a *short* frame, exactly the torn-write
      shape the length-prefixed framing must detect;
    * ``corrupt`` — one byte of a chunk is flipped in flight: the frame
      arrives complete but its CRC no longer matches;
    * ``stall`` — the chunk is held for ``stall_seconds`` before
      forwarding, the bufferbloat / half-wedged-middlebox shape that
      exercises read deadlines.

    Faults are drawn per accepted connection (``refuse``) and per
    forwarded chunk (the rest) from a **seeded** RNG, with a scripted
    ``arm(...)`` queue consumed first — the same discipline as
    :class:`ChaosProxy`, so tests are deterministic and benches are
    reproducible.  :attr:`injected` counts every fault fired.
    """

    _CHUNK = 65536

    def __init__(
        self,
        target_host: str,
        target_port: int,
        *,
        listen_host: str = "127.0.0.1",
        refuse_probability: float = 0.0,
        disconnect_probability: float = 0.0,
        truncate_probability: float = 0.0,
        corrupt_probability: float = 0.0,
        stall_probability: float = 0.0,
        stall_seconds: float = 0.05,
        seed: int = 0,
    ) -> None:
        for name, value in (
            ("refuse_probability", refuse_probability),
            ("disconnect_probability", disconnect_probability),
            ("truncate_probability", truncate_probability),
            ("corrupt_probability", corrupt_probability),
            ("stall_probability", stall_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.target_host = target_host
        self.target_port = target_port
        self.listen_host = listen_host
        self.refuse_probability = refuse_probability
        self.disconnect_probability = disconnect_probability
        self.truncate_probability = truncate_probability
        self.corrupt_probability = corrupt_probability
        self.stall_probability = stall_probability
        self.stall_seconds = stall_seconds
        self._rng = random.Random(seed)
        self._scripted: deque = deque()
        self._lock = threading.Lock()
        self.injected = {
            REFUSE: 0, DISCONNECT: 0, TRUNCATE: 0, CORRUPT: 0, STALL: 0,
        }
        self.connections = 0
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._pairs: set[tuple] = set()
        self._running = False
        self.port: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Bind, start the accept loop; returns the listening port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.listen_host, 0))
        listener.listen(64)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._running = True
        accept = threading.Thread(
            target=self._accept_loop, name="chaos-tcp-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self.port

    def stop(self) -> None:
        """Close the listener and every live pumped connection."""
        self._running = False
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            pairs = list(self._pairs)
            self._pairs.clear()
        for pair in pairs:
            self._close_pair(pair)
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()

    def __enter__(self) -> "ChaosTCPProxy":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # fault scheduling
    # ------------------------------------------------------------------
    def arm(self, *faults: tuple) -> None:
        """Queue faults ahead of any random draw: ``refuse`` fires at
        the next accept, the rest at the next forwarded chunk."""
        with self._lock:
            self._scripted.extend(faults)

    def clear(self) -> None:
        with self._lock:
            self._scripted.clear()

    def _next_accept_fault(self) -> tuple | None:
        with self._lock:
            if self._scripted and self._scripted[0][0] == REFUSE:
                fault = self._scripted.popleft()
            elif self._rng.random() < self.refuse_probability:
                fault = refuse_fault()
            else:
                return None
            self.injected[fault[0]] += 1
            return fault

    def _next_stream_fault(self) -> tuple | None:
        with self._lock:
            if self._scripted and self._scripted[0][0] in _STREAM_FAULTS:
                fault = self._scripted.popleft()
            else:
                roll = self._rng.random()
                edge = 0.0
                fault = None
                for name, probability in (
                    (DISCONNECT, self.disconnect_probability),
                    (TRUNCATE, self.truncate_probability),
                    (CORRUPT, self.corrupt_probability),
                    (STALL, self.stall_probability),
                ):
                    edge += probability
                    if roll < edge:
                        fault = (
                            stall_fault(self.stall_seconds)
                            if name == STALL
                            else (name,)
                        )
                        break
                if fault is None:
                    return None
            self.injected[fault[0]] += 1
            return fault

    # ------------------------------------------------------------------
    # pumping
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while self._running and listener is not None:
            try:
                downstream, _ = listener.accept()
            except OSError:
                return  # listener closed by stop()
            self.connections += 1
            if self._next_accept_fault() is not None:
                try:
                    downstream.close()
                except OSError:
                    pass
                continue
            try:
                upstream = socket.create_connection(
                    (self.target_host, self.target_port), timeout=2.0
                )
            except OSError:
                try:
                    downstream.close()
                except OSError:
                    pass
                continue
            pair = (downstream, upstream)
            with self._lock:
                self._pairs.add(pair)
            for src, dst in ((downstream, upstream), (upstream, downstream)):
                pump = threading.Thread(
                    target=self._pump,
                    args=(src, dst, pair),
                    name="chaos-tcp-pump",
                    daemon=True,
                )
                pump.start()
                self._threads.append(pump)

    def _pump(self, src, dst, pair) -> None:
        try:
            while self._running:
                try:
                    data = src.recv(self._CHUNK)
                except OSError:
                    break
                if not data:
                    break
                fault = self._next_stream_fault()
                if fault is not None:
                    name = fault[0]
                    if name == DISCONNECT:
                        break
                    if name == TRUNCATE:
                        try:
                            dst.sendall(data[:max(1, len(data) // 2)])
                        except OSError:
                            pass
                        break
                    if name == CORRUPT:
                        mutated = bytearray(data)
                        mutated[self._rng.randrange(len(mutated))] ^= 0xFF
                        data = bytes(mutated)
                    elif name == STALL:
                        time.sleep(fault[1])
                try:
                    dst.sendall(data)
                except OSError:
                    break
        finally:
            with self._lock:
                self._pairs.discard(pair)
            self._close_pair(pair)

    @staticmethod
    def _close_pair(pair) -> None:
        for sock in pair:
            try:
                sock.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# on-disk corruption
# ----------------------------------------------------------------------
def corrupt_shard(path) -> bytes:
    """Flip one byte in the last record of the archive at ``path``.

    The header and directory stay intact — the archive still *opens* —
    but the record no longer matches its directory CRC, which is the
    realistic shape of silent media corruption.  Returns the pristine
    file bytes for :func:`restore_shard`.
    """
    path = Path(path)
    pristine = path.read_bytes()
    with path.open("rb") as stream:
        header = read_header(stream)
    if not header.directory:
        raise ValueError(f"archive has no records to corrupt: {path}")
    entry = header.directory[-1]
    mutated = bytearray(pristine)
    mutated[entry.offset + entry.length - 1] ^= 0xFF
    path.write_bytes(bytes(mutated))
    return pristine


def restore_shard(path, pristine: bytes) -> None:
    """Undo :func:`corrupt_shard`."""
    Path(path).write_bytes(pristine)
