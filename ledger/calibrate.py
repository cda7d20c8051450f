#!/usr/bin/env python3
"""One pass of the ledger: every workload at several seeds.

    python3 ledger/calibrate.py PASS.json [--seeds 10] [--first-seed 1]
                                          [--workload NAME ...]

Runs ``run.py`` once per (workload, seed), gathers the full records into
``PASS.json`` and prints, for each end-to-end metric of each workload,
the median over the seeds and the quartile spread as a share of it --
the number a bound in ``BENCHMARK.json`` is set against.  Two pass files
are what ``compare.py`` compares.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import harness
from run import load_spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs = []
    status = 0
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as scratch:
        record_path = os.path.join(scratch, "record.json")
        for name in names:
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                done = subprocess.run(
                    [
                        sys.executable,
                        os.path.join(harness.LEDGER_DIR, "run.py"),
                        "--workload", name, "--seed", str(seed),
                        "--out", record_path,
                    ],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                if done.returncode != 0:
                    print(f"{name} seed {seed}: exit {done.returncode}")
                    status = 1
                if done.returncode in (0, 1):
                    with open(record_path) as stream:
                        runs.append(json.load(stream))
                print(f"{name} seed {seed}: done", file=sys.stderr)
    with open(args.output, "w") as stream:
        json.dump({"format": "ledger-pass", "runs": runs}, stream, indent=1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':22} {'metric':28} {'median':>12} {'spread':>8} "
          f"{'bound':>6}")
    for name in names:
        mine = [run for run in runs if run["workload"] == name]
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in mine]
            if not values:
                continue
            print(
                f"{name:22} {metric:28} {harness.median(values):12.4f} "
                f"{harness.quartile_spread(values):8.1%} {bound:6.0%}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
