"""Fig. 12 — scalability of compression and query processing.

Varies the dataset size from 20% to 100%: compression ratios stay
roughly flat (they depend on instance structure, not corpus size);
UTCQ's compression time grows linearly (one trajectory at a time) while
TED's grows super-linearly (dataset-wide matrix base search); query
times grow with the data size for both engines.
"""

import statistics

import pytest
from conftest import record_experiment

from repro.query import StIUIndex, UTCQQueryProcessor
from repro.ted import TedQueryIndex
from repro.trajectories.datasets import profile
from repro.workloads.harness import (
    build_query_workload,
    run_ted_compression,
    run_utcq_compression,
    time_ted_queries,
    time_utcq_queries,
)

FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)
# query workloads are timed this many times per fraction and the median
# kept: one pass of 15 range queries takes well under a millisecond each,
# so a single timing is at the mercy of one scheduler hiccup
QUERY_REPEATS = 5


@pytest.mark.parametrize("name", ["CD", "HZ"])
def test_fig12_compression_scalability(benchmark, datasets, name):
    network, trajectories = datasets[name]
    prof = profile(name)
    rows = []

    def work():
        rows.clear()
        for fraction in FRACTIONS:
            subset = trajectories[: max(int(len(trajectories) * fraction), 2)]
            utcq = run_utcq_compression(network, subset, prof)
            ted = run_ted_compression(network, subset, prof)
            rows.append(
                [
                    name,
                    int(fraction * 100),
                    utcq.stats.total_ratio,
                    ted.stats.total_ratio,
                    utcq.seconds,
                    ted.seconds,
                ]
            )
        return rows

    benchmark.pedantic(work, rounds=1, iterations=1)
    record_experiment(
        f"Fig. 12a/b ({name}) — compression vs data size "
        "(paper: CR flat; UTCQ time linear, TED super-linear)",
        [
            "dataset",
            "size %",
            "UTCQ CR",
            "TED CR",
            "UTCQ time (s)",
            "TED time (s)",
        ],
        rows,
    )
    # ratios roughly independent of the corpus size
    utcq_ratios = [row[2] for row in rows]
    assert max(utcq_ratios) < 1.6 * min(utcq_ratios)
    # UTCQ beats TED at every size
    for row in rows:
        assert row[2] > row[3]


@pytest.mark.parametrize("name", ["CD", "HZ"])
def test_fig12_query_scalability(benchmark, datasets, name):
    network, trajectories = datasets[name]
    prof = profile(name)
    rows = []

    def work():
        rows.clear()
        for fraction in FRACTIONS:
            subset = trajectories[: max(int(len(trajectories) * fraction), 2)]
            utcq = run_utcq_compression(network, subset, prof)
            ted = run_ted_compression(network, subset, prof)
            workload = build_query_workload(network, subset, count=15, seed=37)
            index = StIUIndex(
                network,
                utcq.archive,
                grid_cells_per_side=32,
                time_partition_seconds=1800,
            )
            processor = UTCQQueryProcessor(network, utcq.archive, index)
            ted_index = TedQueryIndex(
                network, ted.archive, time_partition_seconds=1800
            )
            rows.append(
                [
                    name,
                    int(fraction * 100),
                    statistics.median(
                        time_utcq_queries(processor, workload).range_ms
                        for _ in range(QUERY_REPEATS)
                    ),
                    statistics.median(
                        time_ted_queries(ted_index, workload).range_ms
                        for _ in range(QUERY_REPEATS)
                    ),
                ]
            )
        return rows

    benchmark.pedantic(work, rounds=1, iterations=1)
    record_experiment(
        f"Fig. 12c/d ({name}) — range query time vs data size "
        "(paper: grows linearly; UTCQ faster than TED)",
        ["dataset", "size %", "UTCQ range (ms)", "TED range (ms)"],
        rows,
    )
    # the full-size workload is the slowest or near-slowest for TED
    assert rows[-1][3] >= max(row[3] for row in rows) * 0.5
