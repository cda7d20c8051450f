"""Query compressed trajectories without decompressing the archive.

Demonstrates the StIU index and the three probabilistic queries —
where, when, and range — plus the filter instrumentation showing how
much work Lemmas 1-4 avoided.  Results are cross-checked against a
brute-force oracle on the uncompressed data.

Run:  python examples/query_without_decompression.py
"""

from repro import (
    BruteForceOracle,
    Rect,
    StIUIndex,
    UTCQQueryProcessor,
    compress_dataset,
    load_dataset,
)
from repro.query import range_accuracy, when_accuracy, where_accuracy


def main() -> None:
    network, trajectories = load_dataset("HZ", trajectory_count=80, seed=9)
    archive = compress_dataset(
        network, trajectories, default_interval=20, eta_probability=1 / 2048
    )
    index = StIUIndex(
        network, archive, grid_cells_per_side=32, time_partition_seconds=1200
    )
    print(
        f"StIU index: {index.temporal_size_bytes() / 1024:.1f} KB temporal + "
        f"{index.spatial_size_bytes() / 1024:.1f} KB spatial over a "
        f"{archive.compressed_bytes / 1024:.1f} KB archive"
    )
    queries = UTCQQueryProcessor(network, archive, index)
    oracle = BruteForceOracle(network, trajectories)

    target = max(trajectories, key=lambda t: t.instance_count)
    t_mid = (target.start_time + target.end_time) // 2
    # threshold relative to the trajectory's own probability mass: with
    # many instances, each individual probability is small
    alpha = target.best_instance().probability / 2

    # --- probabilistic where -------------------------------------------
    got = queries.where(target.trajectory_id, t_mid, alpha=alpha)
    expected = oracle.where(target.trajectory_id, t_mid, alpha=alpha)
    report = where_accuracy(network, expected, got)
    print(
        f"\nwhere({target.trajectory_id}, {t_mid}, {alpha:.3f}): "
        f"{len(got)} locations, F1={report.f1:.3f}, "
        f"avg position error {report.average_difference:.2f} m"
    )

    # --- probabilistic when --------------------------------------------
    instance = target.best_instance()
    location = instance.locations[len(instance.locations) // 2]
    rd = location.ndist / network.edge_length(*location.edge)
    got_when = queries.when(
        target.trajectory_id, location.edge, rd, alpha=alpha
    )
    expected_when = oracle.when(
        target.trajectory_id, location.edge, rd, alpha=alpha
    )
    report_when = when_accuracy(expected_when, got_when)
    print(
        f"when({target.trajectory_id}, {location.edge}, {rd:.3f}, "
        f"{alpha:.3f}): {len(got_when)} passes, avg time error "
        f"{report_when.average_difference:.2f} s"
    )

    # --- probabilistic range -------------------------------------------
    x, y = location.position(network)
    region = Rect(x - 250, y - 250, x + 250, y + 250)
    queries.counters.reset()
    got_range = queries.range(region, t_mid, alpha=0.3)
    expected_range = oracle.range(region, t_mid, alpha=0.3)
    report_range = range_accuracy(expected_range, got_range)
    counters = queries.counters
    print(
        f"range(500m box, {t_mid}, 0.3): {len(got_range)} trajectories, "
        f"F1={report_range.f1:.3f}"
    )
    print(
        "filter work avoided — trajectories pruned by Lemma 4: "
        f"{counters.trajectories_pruned}"
    )
    # the counters were reset before the range query, and the where /
    # when queries above left their instances decoded in the decode
    # cache's trajectory blocks
    print(
        "instances decoded by the range query: "
        f"{counters.instances_decoded}"
    )


if __name__ == "__main__":
    main()
