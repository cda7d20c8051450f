"""Persist an archive to disk and query it without loading it back.

Compresses a Chengdu-profile dataset across all cores (byte-identical
to a serial run), writes the versioned ``.utcq`` on-disk format plus
its ``.stiu`` index sidecar, then reopens the file warm — the StIU
temporal layer loads from the sidecar instead of being rebuilt, and
spatial rows are derived only for what a query reads — and answers
where/when queries straight off disk, one at a time and as a batch.
Only the touched trajectory records are ever decoded.

Run:  python examples/persist_and_query.py
"""

import os
import tempfile

from repro import (
    BatchQueryEngine,
    StIUIndex,
    UTCQQueryProcessor,
    WhereQuery,
    compress_parallel,
    load_dataset,
)
from repro.query.sidecar import save_index, sidecar_path_for


def main() -> None:
    # 1. dataset + multi-core compression
    network, trajectories = load_dataset("CD", trajectory_count=100, seed=42)
    archive, report = compress_parallel(
        network, trajectories, default_interval=10
    )
    print(
        f"compressed {report.trajectory_count} trajectories "
        f"({report.instance_count} instances) in "
        f"{report.elapsed_seconds:.2f}s with {report.workers} workers "
        f"({report.trajectories_per_second:.0f} traj/s)"
    )

    # 2. persist to the .utcq format
    path = os.path.join(tempfile.mkdtemp(), "cd.utcq")
    size = archive.save(path, provenance={"example": "persist_and_query"})
    print(
        f"wrote {path}: {size} bytes on disk "
        f"({archive.compressed_bytes} payload bytes, "
        f"ratio {archive.stats.total_ratio:.2f})"
    )

    # 3. persist the StIU temporal layer too, so every later open is warm
    save_index(StIUIndex(network, archive), path)
    print(f"wrote {sidecar_path_for(path)}: index sidecar")

    # 4. reopen warm: the index loads from the sidecar (no rebuild) and
    #    queries parse and decode only what they touch, keeping it in a
    #    decode cache budgeted in bytes
    index = StIUIndex.over_file(network, path)
    print(f"index loaded from sidecar: {index.loaded_from_sidecar}")
    with index.archive as on_disk:
        queries = UTCQQueryProcessor(network, on_disk, index)

        target = trajectories[0]
        t = (target.start_time + target.end_time) // 2
        print(f"\nwhere was trajectory {target.trajectory_id} at t={t}?")
        located = queries.where(target.trajectory_id, t, alpha=0.2)
        for result in located:
            print(
                f"  instance {result.instance_index}: edge "
                f"{result.edge[0]} -> {result.edge[1]} at "
                f"{result.ndist:.1f} m (p={result.probability:.3f})"
            )

        if located:
            edge = located[0].edge
            print(f"when did it pass the middle of edge {edge}?")
            for result in queries.when(
                target.trajectory_id, edge, 0.5, alpha=0.2
            ):
                print(
                    f"  instance {result.instance_index}: t={result.time:.1f}s "
                    f"(p={result.probability:.3f})"
                )

        cache = queries.cache
        print(
            f"\nresident trajectories after querying: "
            f"{cache.stats()['times']['resident']} of "
            f"{on_disk.trajectory_count}, {cache.resident_bytes} of "
            f"{cache.budget_bytes} cache bytes (lazy loading works)"
        )

        # 5. the same queries as one deduplicated batch
        engine = BatchQueryEngine(network, on_disk, index)
        batch = [
            WhereQuery(target.trajectory_id, t, 0.2),
            WhereQuery(target.trajectory_id, t, 0.2),  # duplicate: answered once
        ]
        batch_results = engine.run(batch)
        print(
            f"batch of {len(batch)} where-queries -> "
            f"{len(batch_results[0])} result(s), shared answer: "
            f"{batch_results[0] is batch_results[1]}"
        )

    os.remove(sidecar_path_for(path))
    os.remove(path)


if __name__ == "__main__":
    main()
