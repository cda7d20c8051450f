#!/usr/bin/env python3
"""Compare two passes of the ledger, metric by metric.

    python3 ledger/compare.py A.json B.json

``A`` and ``B`` are pass files written by ``calibrate.py`` (or single
records written by ``run.py --out``).  For every workload and
end-to-end metric this prints both medians over the runs, the relative
change from A to B, the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     it is better by more than the bound;
* ``same``       the change is inside the bound;
* ``unresolved`` the runs of A or of B spread, first to third quartile,
                 by more than the bound, so a change of that size could
                 not be told from noise either way.

Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys

import harness
from run import load_spec


def load_runs(path: str) -> dict[str, list[dict]]:
    with open(path) as stream:
        document = json.load(stream)
    runs = document["runs"] if "runs" in document else [document]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run.get("trace"):
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def _spread(runs: list[dict], metric: str) -> float:
    """Quartile spread over the runs; a single run falls back on its
    own per-round values where it kept them."""
    values = [run["metrics"][metric]["value"] for run in runs]
    if len(values) == 1:
        values = runs[0].get("rounds", {}).get(metric, values)
    return harness.quartile_spread(values)


def verdict(a, b, spread: float, bound: float, better: str) -> str:
    change = (b - a) / abs(a) if a else 0.0
    worsening = change if better == "lower" else -change
    if spread > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(first: dict, second: dict, spec: dict) -> list[tuple]:
    rows = []
    for workload in sorted(set(first) & set(second)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = harness.median(
                [run["metrics"][name]["value"] for run in first[workload]]
            )
            b = harness.median(
                [run["metrics"][name]["value"] for run in second[workload]]
            )
            spread = max(
                _spread(first[workload], name),
                _spread(second[workload], name),
            )
            rows.append(
                (
                    workload, name, a, b,
                    (b - a) / abs(a) if a else 0.0,
                    spread, metric["bound"],
                    verdict(a, b, spread, metric["bound"], metric["better"]),
                )
            )
    return rows


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load_runs(paths[0]), load_runs(paths[1]), load_spec())
    print(f"{'workload':22} {'metric':28} {'A':>12} {'B':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload, name, a, b, change, spread, bound, word in rows:
        print(
            f"{workload:22} {name:28} {a:12.4f} {b:12.4f} "
            f"{change:+8.1%} {spread:7.1%} {bound:6.0%}  {word}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
