"""Fig. 8 — effect of the number of pivots on compression.

More pivots sharpen the FJD similarity estimate, so the compression
ratio (weakly) improves while compression time grows roughly linearly in
the pivot count.  The paper picks 1 pivot for CD/HZ and 2 for DK as the
ratio/efficiency sweet spots.
"""

from statistics import median

import pytest
from conftest import record_experiment

from repro.trajectories.datasets import profile
from repro.workloads.harness import run_utcq_compression

PIVOT_COUNTS = (1, 2, 3, 4, 5)
TIMED_RUNS = 5  # per pivot count, for the time assert


@pytest.mark.parametrize("name", ["DK", "CD", "HZ"])
def test_fig8_pivot_sweep(benchmark, datasets, name):
    network, trajectories = datasets[name]
    prof = profile(name)
    rows = []

    def work():
        rows.clear()
        for pivots in PIVOT_COUNTS:
            run = run_utcq_compression(
                network, trajectories, prof, pivot_count=pivots
            )
            rows.append(
                [
                    name,
                    pivots,
                    run.stats.total_ratio,
                    run.stats.edge_ratio,
                    run.seconds,
                    run.peak_memory_mb,
                ]
            )
        return rows

    benchmark.pedantic(work, rounds=1, iterations=1)
    record_experiment(
        f"Fig. 8 ({name}) — compression vs pivot count "
        "(paper: CR rises with pivots, time rises too)",
        ["dataset", "pivots", "total CR", "E CR", "time (s)", "peak MB"],
        rows,
    )
    ratios = [row[2] for row in rows]
    # ratio must not collapse as pivots increase
    assert min(ratios) > 0.9 * ratios[0]
    # time grows with pivots: the gap between two single runs is within
    # the host's noise, so after one unmeasured warm-up run the fewest
    # and the most pivots are timed interleaved and their medians
    # compared
    fewest, most = PIVOT_COUNTS[0], PIVOT_COUNTS[-1]
    run_utcq_compression(network, trajectories, prof, pivot_count=fewest)
    times = {fewest: [], most: []}
    for run in range(TIMED_RUNS):
        for pivots in (fewest, most) if run % 2 == 0 else (most, fewest):
            times[pivots].append(
                run_utcq_compression(
                    network, trajectories, prof, pivot_count=pivots
                ).seconds
            )
    assert median(times[most]) > median(times[fewest]), times
