"""Self-test of the ledger (``python -m pytest ledger -q``).

Runs every workload at its ``tiny`` size: the numbers mean nothing, the
plumbing is what is under test -- every declared metric is emitted with
its unit, a wrong answer fails the run, and nothing outlives a run,
whether it ends normally or is killed mid-round.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

LEDGER = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER)
sys.path.insert(0, os.path.join(os.path.dirname(LEDGER), "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
RUN = [sys.executable, os.path.join(LEDGER, "run.py")]
TINY = ["--scale", "tiny", "--seconds", "0.2"]


def _leftovers(pid: int) -> list[str]:
    """What run ``pid`` left behind: scratch directories, answer slabs
    in ``/dev/shm``, and live ``repro serve`` processes it started."""
    scratch = os.path.join(harness.OUT_DIR, f"tmp-{pid}-")
    found = glob.glob(scratch + "*") + glob.glob(
        f"/dev/shm/repro-shm-{pid:x}x*"
    )
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as stream:
                command = stream.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if " serve " in command and scratch in command:
            found.append(command)
    return found


def _slabs() -> set[str]:
    return set(glob.glob("/dev/shm/repro-shm-*"))


def _pythons() -> set[int]:
    """Every python process there is, zombies included: an orphan of the
    server that nobody waited for has no command line left, only this."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stream:
                    name = stream.read().split("(", 1)[1].rsplit(")", 1)[0]
            except OSError:
                continue
            if name.startswith("python"):
                found.add(int(entry))
    return found


def _run(*arguments, out) -> tuple[int, str, dict, int]:
    """One CLI run; returns ``(status, stderr, result, pid)``."""
    process = subprocess.Popen(
        [*RUN, *arguments, "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd="/",
    )
    stdout, stderr = process.communicate(timeout=120)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return process.returncode, stderr, result, process.pid


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_end_to_end_metric(name, tmp_path):
    slabs_before, pythons_before = _slabs(), _pythons()
    status, stderr, result, pid = _run(
        "--workload", name, "--seed", "3", *TINY, out=tmp_path / "record.json"
    )
    assert status == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["rounds"]["count"] >= run.MIN_ROUNDS
    assert len(record["rounds"]["ops_per_s"]) == record["rounds"]["count"]
    assert {"nproc", "python", "platform", "commit"} <= set(
        record["fingerprint"]
    )
    assert record["seed"] == 3 and record["sizes"]
    assert record["latency_samples"] >= record["rounds"]["count"]
    # nothing outlives a normal run (the server's slabs carry its own
    # pid, so those are checked against what was there before)
    assert _leftovers(pid) == []
    assert _slabs() <= slabs_before
    assert _pythons() <= pythons_before


def test_trace_emits_every_per_layer_metric_and_the_span_file(tmp_path):
    status, stderr, result, pid = _run(
        "--workload", "compress-batch", "--seed", "3", "--trace", "1", *TINY,
        out=tmp_path / "record.json",
    )
    assert status == 0, stderr
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    record = json.loads((tmp_path / "record.json").read_text())
    with open(record["trace_file"]) as stream:
        trace = json.load(stream)
    assert trace["fields"] == ["name", "start", "end", "parent", "request"]
    names = {span[0] for span in trace["spans"]}
    assert {"op", "core.compress", "io.save", "query.stiu.build",
            "stream.ingest", "serve.client.request"} <= names
    # a child span lies inside its parent and shares its request id
    for name, start, end, parent, request in trace["spans"]:
        assert end >= start
        if parent >= 0:
            above = trace["spans"][parent]
            assert above[1] <= start and end <= above[2]
            assert above[4] == request
    assert _leftovers(pid) == []


def test_a_wrong_oracle_fails_the_run(monkeypatch, tmp_path, capsys):
    class WrongOracle(workloads.EngineUniformCold):
        def _setup(self):
            super()._setup()
            self.expected[0] = [["not an answer"]] * len(self.expected[0])

    monkeypatch.setitem(workloads.WORKLOADS, WrongOracle.name, WrongOracle)
    status = run.main(["--workload", WrongOracle.name, "--seed", "3", *TINY,
                       "--out", str(tmp_path / "record.json")])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_no_program_means_no_result(tmp_path):
    """In a directory that holds only the benchmark, the run must fail
    and print no result."""
    import shutil

    shutil.copy(os.path.join(harness.REPO_DIR, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        LEDGER, tmp_path / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__", "tmp*"),
    )
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "compress-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_a_run_killed_mid_round_leaves_nothing_behind(tmp_path):
    slabs_before = _slabs()
    process = subprocess.Popen(
        [*RUN, "--workload", "wire-zipf-warm", "--seed", "3",
         "--scale", "tiny", "--seconds", "60",
         "--out", str(tmp_path / "record.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd="/",
    )
    try:
        for line in process.stderr:  # rounds have begun once this shows
            if "warm-up round" in line:
                break
        assert any(
            " serve " in left for left in _leftovers(process.pid)
        ), "the server should be up mid-round"
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode not in (0, None)
    deadline = time.monotonic() + 10
    while _leftovers(process.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _leftovers(process.pid) == []
    assert _slabs() <= slabs_before
    assert not os.path.exists(tmp_path / "record.json")
