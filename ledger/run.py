#!/usr/bin/env python3
"""The layer ledger: one run of one workload.

    python3 ledger/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  The same record plus the
fingerprint, the sizes and the raw per-round values is written to
``ledger/out/`` (or to ``--out``).  Exit status: 0 when every output of
the program was correct, 1 when one was not, 2 for a usage error, 3 when
the benchmark itself could not run.

Works from any directory with a bare ``python3``: the repository's
``src`` is put on ``sys.path`` from this file's own location.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)

import harness  # noqa: E402  (needs the path entry above)

SETUP_REPEATS = 3  # setup_s is the median of at least this many set-ups
SHORT_SETUP_SECONDS = 1.0
SHORT_SETUP_REPEATS = 40
MIN_ROUNDS = 5
MIN_TRACED_PAIRS = 3
WATCHDOG_SECONDS = 170  # the contract allows a run 180 s


def load_spec() -> dict:
    with open(os.path.join(harness.REPO_DIR, "BENCHMARK.json")) as stream:
        return json.load(stream)


def _with_units(values: dict, declared: list[dict]) -> dict:
    """Attach the declared unit to each value; the names must match the
    declaration exactly, so BENCHMARK.json cannot drift from the code."""
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise harness.LedgerError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        metric["name"]: {
            "value": float(values[metric["name"]]),
            "unit": metric["unit"],
        }
        for metric in declared
    }


def _round_table(rounds) -> dict:
    return {
        "count": len(rounds),
        "ops_per_round": rounds[0].ops,
        "wall_s": [r.wall for r in rounds],
        "raw_wall_s": [r.raw_wall for r in rounds],
        "ops_per_s": [r.ops_per_s for r in rounds],
        "cpu_ms_per_op": [r.cpu_ms_per_op for r in rounds],
    }


def _latency_metrics(rounds) -> dict:
    pooled = [value for r in rounds for value in r.latencies]
    return {
        "op_p50_ms": harness.percentile(pooled, 0.50) * 1000,
        "op_p95_ms": harness.percentile(pooled, 0.95) * 1000,
    }


def measured_run(workload, seconds: float, log) -> dict:
    """Tracing off: set up, warm up, run rounds for ``seconds``."""
    setups = []
    while True:
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
        # a set-up of milliseconds is repeated until a second is spent
        # on it, so that its median is as steady as a long one's
        if len(setups) >= SETUP_REPEATS and (
            sum(setups) >= SHORT_SETUP_SECONDS
            or len(setups) >= SHORT_SETUP_REPEATS
        ):
            break
        workload.teardown()
    log(f"set-up, median of {len(setups)}: {harness.median(setups):.3f} s")
    problems = workload.verify()
    warm_up = harness.run_round(workload, workload.tracer)
    log(f"warm-up round: {warm_up.wall:.2f} s")
    rounds = []
    while (
        len(rounds) < MIN_ROUNDS
        or sum(r.raw_wall for r in rounds) < seconds
    ):
        rounds.append(harness.run_round(workload, workload.tracer))
        log(
            f"round {len(rounds)}: {rounds[-1].ops_per_s:.1f} op/s at "
            f"reference speed, {rounds[-1].raw_ops_per_s:.1f} on the clock"
        )
    values = {
        "setup_s": harness.median(setups),
        "ops_per_s": harness.median([r.ops_per_s for r in rounds]),
        "cpu_ms_per_op": harness.median([r.cpu_ms_per_op for r in rounds]),
        **_latency_metrics(rounds),
        "peak_rss_mb": harness.tree_peak_rss_mb(),
        "stored_bytes_per_raw_byte": workload.stored_ratio(),
    }
    every = [warm_up, *rounds]
    return {
        "values": values,
        "attempted": sum(r.ops for r in every),
        "failed": sum(r.failed for r in every),
        "problems": problems,
        "setup_s_each": setups,
        "rounds": _round_table(rounds),
        "latency_samples": sum(len(r.latencies) for r in rounds),
        "raw_ops_per_s": harness.median([r.raw_ops_per_s for r in rounds]),
        "machine_speed": workload.tracer.speed.summary(),
    }


def traced_run(workload, seconds: float, spec: dict, log) -> dict:
    """Tracing on: the workload's own rounds, untraced and traced in
    turn, then every layer probe (see ``layers.py``)."""
    import layers

    tracer = workload.tracer
    workload.setup()
    problems = workload.verify()
    warm_up = harness.run_round(workload, tracer)
    plain, traced = [], []
    while (
        len(traced) < MIN_TRACED_PAIRS
        or sum(r.raw_wall for r in plain + traced) < seconds
    ):
        plain.append(harness.run_round(workload, tracer))
        tracer.enabled = True
        traced.append(harness.run_round(workload, tracer))
        tracer.enabled = False
        log(
            f"pair {len(traced)}: untraced {plain[-1].wall:.2f} s, "
            f"traced {traced[-1].wall:.2f} s"
        )
    # pair by pair, so that drift of the machine between pairs cancels
    overhead = harness.median(
        [(t.wall - p.wall) / p.wall for p, t in zip(plain, traced)]
    )
    values, notes, layer_failed = layers.measure(workload, log)
    values["obs.tracing.overhead_pct"] = overhead * 100
    # the traced run must tell the same story as the untraced one
    bound = next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "op_p50_ms"
    )
    plain_p50 = _latency_metrics(plain)["op_p50_ms"]
    traced_p50 = _latency_metrics(traced)["op_p50_ms"]
    drift = (traced_p50 - plain_p50) / plain_p50
    sanity = []
    if abs(drift - overhead) > bound:
        sanity.append(
            f"op_p50_ms moved {drift:+.1%} under tracing but rounds only "
            f"{overhead:+.1%}: more than the {bound:.0%} bound apart"
        )
    unattributed = values["ledger.staircase_unattributed_pct"]
    if abs(unattributed) > layers.STAIRCASE_TOLERANCE_PCT:
        sanity.append(
            f"staircase leaves {unattributed:+.1f} % of a client request "
            f"unattributed (limit {layers.STAIRCASE_TOLERANCE_PCT} %)"
        )
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    trace_path = os.path.join(harness.OUT_DIR, f"trace-{workload.name}.json")
    with open(trace_path, "w") as stream:
        json.dump(tracer.document(), stream)
    every = [warm_up, *plain, *traced]
    return {
        "values": values,
        "attempted": sum(r.ops for r in every),
        "failed": sum(r.failed for r in every) + layer_failed,
        "problems": problems + sanity,
        "rounds": _round_table(plain),
        "traced_rounds": _round_table(traced),
        "op_p50_ms": {"untraced": plain_p50, "traced": traced_p50},
        "notes": notes,
        "trace_file": trace_path,
        "spans": len(tracer.spans),
        "machine_speed": tracer.speed.summary(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", default="full",
                        choices=("full", "mini", "tiny"),
                        help="input sizes; only 'full' is the benchmark, "
                        "the others serve the traced run and the self-test")
    parser.add_argument("--out", default=None,
                        help="where to write the full record")
    args = parser.parse_args(argv)

    def log(message: str) -> None:
        print(f"ledger[{args.workload}]: {message}", file=sys.stderr)

    if not os.path.isdir(os.path.join(harness.SRC_DIR, "repro")):
        log(f"no program to measure: {harness.SRC_DIR}/repro is missing")
        return 3
    sys.path.insert(0, harness.SRC_DIR)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    call_off = harness.install_watchdog(
        WATCHDOG_SECONDS, f"workload {args.workload}"
    )
    harness.adopt_orphans()
    cleanup = harness.Cleanup()
    cleanup.add(harness.reap_everything)  # added first, so run last
    workload = workloads.WORKLOADS[args.workload](
        args.seed, harness.Tracer(), cleanup, args.scale
    )
    try:
        if args.trace:
            outcome = traced_run(workload, seconds, spec, log)
            declared = spec["per_layer"]
        else:
            outcome = measured_run(workload, seconds, log)
            declared = spec["end_to_end"]
        metrics = _with_units(outcome.pop("values"), declared)
    except harness.LedgerError as error:
        log(f"error: {error}")
        return 3
    finally:
        cleanup.run()
        call_off()
    for problem in outcome["problems"]:
        log(f"problem: {problem}")
    result = {
        "correct": outcome["failed"] == 0 and not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": seconds,
        "scale": args.scale,
        "fingerprint": harness.fingerprint(),
        "sizes": workload.sizes,
        **outcome,
        **result,
    }
    out = args.out or os.path.join(
        harness.OUT_DIR,
        f"result-{args.workload}-{args.scale}-seed{args.seed}"
        f"-trace{args.trace}.json",
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as stream:
        json.dump(record, stream, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
