"""Graceful drain, end to end: SIGTERM with requests in flight.

Two levels:

* :class:`QueryService.drain` as a unit — waits out in-flight work,
  then closes, and is idempotent;
* ``repro serve`` as a subprocess — SIGTERM lands while wire requests
  are in flight, and the contract is pinned from the outside: every
  request completes or fails *typed* (never hangs, never a wrong
  answer), the process exits 0 with a drain banner, the worker
  processes are gone, and a post-drain connect is refused outright.
"""

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.archive import CompressedArchive
from repro.core.compressor import compress_dataset
from repro.query import StIUIndex, ShardedQueryEngine, save_index
from repro.serve import (
    ChaosProxy,
    DeadlineExceeded,
    Overloaded,
    QueryService,
    ServiceClosedError,
    ServiceConfig,
    WireClient,
    WireClosedError,
    WireServerError,
    delay_fault,
)
from repro.trajectories.datasets import load_dataset

from test_query_engine import pool_sized_queries

PROFILE, COUNT, SEED, SCALE = "CD", 16, 61, 10
SHARDS = 2


@pytest.fixture(scope="module")
def drain_world(tmp_path_factory):
    network, trajectories = load_dataset(
        PROFILE, COUNT, seed=SEED, network_scale=SCALE
    )
    archive = compress_dataset(network, trajectories, default_interval=10)
    root = tmp_path_factory.mktemp("drain")
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
    # past POOL_MIN_EXECUTIONS: the in-flight request the drain waits
    # for is held up by a delayed pool worker
    queries = pool_sized_queries(network, trajectories, shard_paths, seed=5)
    with ShardedQueryEngine(shard_paths, network=network, workers=1) as ref:
        expected = ref.run(queries)
    return network, shard_paths, queries, expected


# ----------------------------------------------------------------------
# QueryService.drain as a unit
# ----------------------------------------------------------------------
class TestServiceDrain:
    def test_idle_drain_is_clean_and_closes(self, drain_world):
        network, shard_paths, queries, _ = drain_world
        service = QueryService(
            shard_paths,
            network=network,
            workers=2,
            config=ServiceConfig(deadline=30.0, health_interval=None),
        )
        assert service.drain(timeout=5.0) is True
        with pytest.raises(ServiceClosedError):
            service.submit_many(queries)
        assert service.drain(timeout=1.0) is True  # idempotent

    def test_drain_waits_for_in_flight_work(self, drain_world):
        network, shard_paths, queries, expected = drain_world
        holder = []

        def wrap(pool):
            proxy = ChaosProxy(pool)
            holder.append(proxy)
            return proxy

        service = QueryService(
            shard_paths,
            network=network,
            workers=2,
            pool_wrapper=wrap,
            config=ServiceConfig(deadline=30.0, health_interval=None),
        )
        holder[0].arm(delay_fault(0.5))
        responses = []
        worker = threading.Thread(
            target=lambda: responses.append(service.submit_many(queries)),
            daemon=True,
        )
        worker.start()
        deadline = time.monotonic() + 5.0
        while (
            service.admission.in_flight == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert service.admission.in_flight == 1
        assert service.drain(timeout=10.0) is True
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert responses and responses[0].ok
        assert responses[0].results == expected


# ----------------------------------------------------------------------
# SIGTERM against the real `repro serve` process
# ----------------------------------------------------------------------
def _children_of(pid: int) -> list:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as stream:
            return [int(child) for child in stream.read().split()]
    except OSError:
        return []


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - container quirk
        return True
    # a zombie is reaped, not alive; check its state
    try:
        with open(f"/proc/{pid}/stat") as stream:
            return stream.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


class TestSigtermDrain:
    TYPED = (
        Overloaded,
        DeadlineExceeded,
        WireClosedError,
        WireServerError,
        ConnectionError,
        OSError,
    )

    def test_sigterm_with_requests_in_flight(self, drain_world, tmp_path):
        _, shard_paths, queries, expected = drain_world
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                *[str(path) for path in shard_paths],
                "--port", "0", "--workers", "2", "--deadline", "10",
                "--profile", PROFILE, "--dataset-seed", str(SEED),
                "--network-scale", str(SCALE),
            ],
            cwd="/root/repo",
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner, banner
            port = int(banner.split(" on ", 1)[1].split()[0].split(":")[1])
            workers = _children_of(process.pid)

            outcomes = []
            lock = threading.Lock()

            def hammer(which: int) -> None:
                try:
                    with WireClient(
                        "127.0.0.1", port,
                        client_id=f"drain-{which}",
                        request_timeout=15.0,
                        max_attempts=1,
                        seed=which,
                    ) as client:
                        result = client.request(queries)
                    with lock:
                        outcomes.append(("ok", result.results))
                except self.TYPED as error:
                    with lock:
                        outcomes.append(("typed", type(error).__name__))

            threads = [
                threading.Thread(target=hammer, args=(which,), daemon=True)
                for which in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.15)  # let requests reach the wire
            process.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive(), "request hung through drain"

            stdout, _ = process.communicate(timeout=30.0)
            assert process.returncode == 0, stdout
            assert "drain: stopped accepting" in stdout
            assert "drained" in stdout

            # every request completed or failed typed; completed ones
            # are oracle-identical
            assert len(outcomes) == 3
            for kind, payload in outcomes:
                if kind == "ok":
                    assert payload == expected

            # no orphan workers survive the drain
            deadline = time.monotonic() + 5.0
            while (
                any(_alive(pid) for pid in workers)
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            leftovers = [pid for pid in workers if _alive(pid)]
            assert not leftovers, f"orphan workers: {leftovers}"

            # the port is dark: connect is refused, not black-holed
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=1.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=10.0)
