"""Measurement plumbing shared by the ledger workloads.

Rounds and their statistics, CPU and memory accounting over the
benchmark's whole process tree, the span recorder of the traced run,
scratch directories, the ``repro serve`` child process, and the
watchdog that turns a hang into a named failure.
"""

from __future__ import annotations

import atexit
import ctypes
import gc
import glob
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(LEDGER_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
OUT_DIR = os.path.join(LEDGER_DIR, "out")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    rank = min(int(fraction * len(ordered)), len(ordered) - 1)
    return ordered[rank]


median = statistics.median


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the spread the benchmark contract is written in."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / abs(middle) if middle else 0.0


# ----------------------------------------------------------------------
# the process tree: CPU seconds and peak memory
# ----------------------------------------------------------------------
def _stat_fields(pid: str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as stream:
            text = stream.read()
    except OSError:  # the process ended while /proc was being listed
        return None
    # the command name may hold spaces; fields count from after it
    return text[text.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """Live processes below ``root``: the server, its workers, a pool."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


def tree_cpu_seconds() -> float:
    """User plus system CPU of this process and everything below it.

    A live child counts through its own ``/proc`` entry; a child that
    has exited and been waited for counts through its parent's
    children-time fields, so a worker that is replaced between two
    readings is not lost.
    """
    total = time.process_time()
    own = resource.getrusage(resource.RUSAGE_CHILDREN)
    total += own.ru_utime + own.ru_stime
    for pid in descendants(os.getpid()):
        fields = _stat_fields(str(pid))
        if fields is not None:
            # utime, stime, cutime, cstime: fields 14-17 of proc(5)
            total += sum(int(x) for x in fields[11:15]) / _CLOCK_TICKS
    return total


def tree_peak_rss_mb() -> float:
    """Peak resident memory: this process plus each live descendant."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024


# ----------------------------------------------------------------------
# the speed of the machine, while it is being used
# ----------------------------------------------------------------------
class MachineSpeed:
    """How fast this machine runs right now, against a fixed yardstick.

    The benchmark's host is a shared virtual machine whose cores run a
    fixed pure-Python loop anywhere between 85 and 180 ms from one second
    to the next, and drift by a fifth over minutes; process CPU time
    stretches with it.  Raw timings therefore spread by 10 to 30 % from
    run to run whatever the program does.  So a short spin loop is timed
    at most ``GAP`` seconds before every op, and every timing is divided
    by ``factor`` -- the loop's time over ``NOMINAL``, its time on this
    class of machine when nothing disturbs it.  Timings are thereby
    stated *at reference speed*; the raw ones are kept beside them.
    Measured on ``engine-uniform-cold``: the quartile spread of 42
    back-to-back rounds falls from 5.9 % to 2.0 %, the range of
    six-round medians from 10 % to 3 %.
    """

    NOMINAL = 0.0025  # seconds the loop takes on an undisturbed core
    GAP = 0.1
    _SPINS = 50_000

    def __init__(self) -> None:
        self.factor = 1.0
        self.samples: list[float] = []
        self.seconds = 0.0  # spent probing: not the workload's time
        self._last = 0.0

    def refresh(self) -> float:
        """The current factor, measured anew when the last measurement
        is older than ``GAP``."""
        started = time.perf_counter()
        if started - self._last >= self.GAP:
            total = 0
            for i in range(self._SPINS):
                total += i * i % 7
            self._last = time.perf_counter()
            spent = self._last - started
            self.factor = spent / self.NOMINAL
            self.samples.append(self.factor)
            self.seconds += spent
        return self.factor

    def timed(self, call) -> float:
        """Seconds ``call`` takes, at reference speed."""
        factor = self.refresh()
        started = time.perf_counter()
        call()
        return (time.perf_counter() - started) / factor

    def summary(self) -> dict:
        if not self.samples:
            return {"samples": 0}
        return {
            "samples": len(self.samples),
            "median_factor": statistics.median(self.samples),
            "min_factor": min(self.samples),
            "max_factor": max(self.samples),
            "nominal_probe_s": self.NOMINAL,
        }


# ----------------------------------------------------------------------
# spans of the traced run
# ----------------------------------------------------------------------
class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer._stack
        # name, start, end, parent, request
        self.record = [
            name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request
        ]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans around the benchmark's own calls into each layer.

    Kept in memory and written out once, at the end of the run.  While
    ``enabled`` is false a span costs one attribute test, so the same
    workload code serves the untraced and the traced run.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.speed = MachineSpeed()
        self.request = 0  # id shared by the spans of one op
        self.factors = [1.0]  # machine-speed factor of each request id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def next_request(self) -> float:
        """Begin a new op: a new request id, and the machine-speed
        factor its timings are to be divided by."""
        factor = self.speed.refresh()
        self.request += 1
        self.factors.append(factor)
        return factor

    def span(self, name: str):
        return _LiveSpan(self, name) if self.enabled else _NULL_SPAN

    def seconds(self, name: str) -> list[float]:
        """Duration, at reference speed, of every span called ``name``."""
        factors = self.factors
        return [
            (end - start) / factors[request]
            for n, start, end, _, request in self.spans
            if n == name
        ]

    def document(self) -> dict:
        return {
            "format": "ledger-trace",
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": self.spans,
            "machine_speed_factor_by_request": self.factors,
        }


# ----------------------------------------------------------------------
# things to undo, whatever way the run ends
# ----------------------------------------------------------------------
class Cleanup:
    """Undo actions run last-in-first-out, exactly once: from the
    ``finally`` of the run and again (a no-op then) at interpreter exit."""

    def __init__(self) -> None:
        self._actions: list = []
        atexit.register(self.run)

    def add(self, action) -> None:
        self._actions.append(action)

    def discard(self, action) -> None:
        if action in self._actions:
            self._actions.remove(action)

    def run(self) -> None:
        while self._actions:
            action = self._actions.pop()
            try:
                action()
            except Exception:  # keep undoing the rest
                traceback.print_exc()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, and somebody else's
        pass
    return True


def scratch_dir(label: str) -> str:
    """A fresh directory under ``ledger/out``; the caller removes it.

    The name carries this process id, so a later run can sweep what a
    killed run could not remove itself.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    for stale in glob.glob(os.path.join(OUT_DIR, "tmp-*")):
        owner = os.path.basename(stale).split("-")[1]
        if owner.isdigit() and not _pid_alive(int(owner)):
            shutil.rmtree(stale, ignore_errors=True)
    return tempfile.mkdtemp(prefix=f"tmp-{os.getpid()}-{label}-", dir=OUT_DIR)


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
class LedgerError(Exception):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


_libc = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _die_with_parent() -> None:
    # runs in the forked child: if the benchmark is killed outright the
    # kernel sends the server SIGTERM, which it answers with a drain
    _libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def adopt_orphans() -> None:
    """Make this process the parent of every orphan below it.

    The server's workers and its resource tracker outlive it by a
    moment; without this they go to pid 1, which on the benchmark's
    host does not wait for them, and they stay behind as zombies after
    the run.  Adopted, they are this process's to kill and wait for.
    """
    _libc.prctl(_PR_SET_CHILD_SUBREAPER, 1)


def reap(members, timeout: float = 10.0) -> None:
    """SIGKILL and wait for every process ``members()`` lists, until it
    lists none: killing a parent hands its children to this process (see
    :func:`adopt_orphans`), which then waits for them in turn."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = members()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # not (yet) this process's child
                pass
        time.sleep(0.01)
    raise LedgerError(f"processes {members()} outlived SIGKILL")


def process_group(pgid: int) -> list[int]:
    """Every process, zombies included, in process group ``pgid``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[2]) == pgid:
                found.append(int(entry))
    return found


def reap_everything() -> None:
    """Last act of a run: nothing this process started lives on."""
    try:
        from multiprocessing import resource_tracker

        # a tracker of this process's own (the traced run's in-process
        # pool) ends when its pipe closes; close it now, not at exit
        resource_tracker._resource_tracker._stop()
    except Exception:
        pass
    reap(lambda: descendants(os.getpid()))


class ServerProcess:
    """``python -m repro serve`` as a child, from banner to drain."""

    BANNER_TIMEOUT = 30.0
    DRAIN_TIMEOUT = 15.0

    def __init__(self, shard_paths, *, workers: int, log_path: str) -> None:
        self.command = [
            sys.executable, "-m", "repro", "serve", *shard_paths,
            "--port", "0", "--workers", str(workers),
        ]
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> int:
        """Start the server; returns the port its banner names."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        banner = self._read_banner()
        try:
            self.port = int(banner.split(" on ")[1].split()[0].rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.stop()
            raise LedgerError(f"unreadable serve banner: {banner!r}") from None
        return self.port

    def _read_banner(self) -> str:
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + self.BANNER_TIMEOUT
        data = b""
        while b"\n" not in data:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select([fd], [], [], remaining)[0]
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                self.stop()
                raise LedgerError(
                    "repro serve printed no banner within "
                    f"{self.BANNER_TIMEOUT:.0f} s; see {self.log_path}"
                )
            data += chunk
        return data.split(b"\n", 1)[0].decode("utf-8", "replace")

    def stop(self) -> None:
        """SIGTERM, wait for the drain, then SIGKILL and wait for the
        whole group: the server leads it, and what it started and did
        not wait for itself is still in it."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(self.DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()
        process.stdout.close()
        reap(lambda: process_group(process.pid))
        # a server that was killed could not unlink its answer slabs;
        # their names start with its pid
        for slab in glob.glob(f"/dev/shm/repro-shm-{process.pid:x}x*"):
            try:
                os.unlink(slab)
            except OSError:
                pass


# ----------------------------------------------------------------------
# watchdog and signals
# ----------------------------------------------------------------------
class WatchdogTimeout(LedgerError):
    pass


def install_watchdog(seconds: int, what: str):
    """Fail the run with a named error ``seconds`` from now; returns the
    function that calls the watchdog off.

    The alarm raises in the main thread so ``finally`` blocks tear the
    server down; should the main thread be stuck beyond that, a second
    timer ends the process tree outright.  SIGTERM is turned into an
    ordinary exit for the same reason: a killed run still cleans up.
    """

    def on_alarm(signum, frame):
        raise WatchdogTimeout(f"{what} exceeded its {seconds} s deadline")

    def on_term(signum, frame):
        raise SystemExit(128 + signum)

    def last_resort():
        sys.stderr.write(f"ledger: {what} hung past its deadline; killing\n")
        for pid in descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        os._exit(70)

    previous = (
        signal.signal(signal.SIGALRM, on_alarm),
        signal.signal(signal.SIGTERM, on_term),
    )
    signal.alarm(seconds)
    timer = threading.Timer(seconds + 20, last_resort)
    timer.daemon = True
    timer.start()

    def cancel() -> None:
        signal.alarm(0)
        timer.cancel()
        signal.signal(signal.SIGALRM, previous[0])
        signal.signal(signal.SIGTERM, previous[1])

    return cancel


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
class Round:
    """What one pass over a workload's ops measured.

    ``wall`` and ``cpu`` are at reference machine speed (see
    :class:`MachineSpeed`), ``raw_wall`` is what the clock said.
    """

    def __init__(self, ops, wall, raw_wall, cpu, latencies, failed) -> None:
        self.ops = ops
        self.wall = wall
        self.raw_wall = raw_wall
        self.cpu = cpu
        self.latencies = latencies
        self.failed = failed

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / self.raw_wall

    @property
    def cpu_ms_per_op(self) -> float:
        return self.cpu / self.ops * 1000


def run_round(workload, tracer: Tracer) -> Round:
    """One pass over every op of ``workload``, timed op by op.

    A round's wall time is the sum of its ops' times, each divided by
    the machine-speed factor measured just before it; its CPU time is
    the process tree's, less the probing, divided by the round's mean
    factor.  An op that raises counts as failed and the round goes on:
    the share of failed ops is itself a result.  The first traceback is
    printed.
    """
    gc.collect()
    workload.begin_round()
    count = workload.ops_per_round
    latencies = []
    failed = 0
    raw_wall = 0.0
    probing = tracer.speed.seconds
    cpu_before = tree_cpu_seconds()
    for index in range(count):
        factor = tracer.next_request()
        op_started = time.perf_counter()
        try:
            with tracer.span("op"):
                ok = workload.op(index)
        except Exception:
            if not failed:
                traceback.print_exc()
            ok = False
        spent = time.perf_counter() - op_started
        raw_wall += spent
        latencies.append(spent / factor)
        failed += not ok
    cpu = tree_cpu_seconds() - cpu_before - (tracer.speed.seconds - probing)
    wall = sum(latencies)
    failed += workload.end_round()
    return Round(
        count, wall, raw_wall, cpu * wall / raw_wall, latencies, failed
    )


def fingerprint() -> dict:
    """Where and on what these numbers were taken."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", REPO_DIR, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }
