"""``python -m repro`` — compress, inspect, decompress, and query archives.

Subcommands::

    compress    generate a profile dataset and write a .utcq archive
                (multi-core via --workers; byte-identical to serial)
    info        print header, params, ratios, and provenance of a file
    decompress  decode an archive back to JSON lines
    query       where / when / range queries over a file-backed archive
    stream      streaming ingestion: replay a live GPS feed into an
                appendable segment archive, compact it, inspect it
    serve       serve queries over TCP until SIGTERM drains
    serve-bench availability of the serving tier under injected faults
    obs         telemetry: dump the process-wide metrics registry
                (Prometheus text or JSON), or trace one request through
                the sharded serving path and print its span tree with
                the plan / IPC / worker-decode / merge breakdown

``query`` and ``decompress`` need the road network the archive was
compressed against.  ``compress`` records the generating profile, seed,
and scale in the file's provenance block, and the other commands rebuild
the identical synthetic network from it; archives produced through the
library API can pass ``--profile/--dataset-seed/--network-scale``
explicitly instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .config import ConfigError
from .io.format import ArchiveFormatError
from .io.reader import FileBackedArchive

PROVENANCE_GENERATOR = "repro.load_dataset"


class CliError(SystemExit):
    """Operator-facing failure: one line on stderr, exit status 2.

    Subclasses :class:`SystemExit` so it propagates like one, but
    carries status 2 — distinguishing "the request cannot be served"
    (bad path, malformed input, corrupt archive) from a crash (1)
    and success (0), which is what scripts wrapping the CLI key on.
    """

    def __init__(self, message: str) -> None:
        self.message = f"error: {message}"
        print(self.message, file=sys.stderr)
        super().__init__(2)

    def __str__(self) -> str:
        return self.message


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        choices=("DK", "CD", "HZ"),
        help="dataset profile (overrides the archive's provenance)",
    )
    parser.add_argument(
        "--dataset-seed",
        type=int,
        help="generation seed (overrides the archive's provenance)",
    )
    parser.add_argument(
        "--network-scale",
        type=int,
        help="network grid scale (overrides the archive's provenance)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "UTCQ: compression and querying of uncertain trajectories "
            "in road networks"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compress = commands.add_parser(
        "compress",
        help="generate a dataset and compress it to a .utcq archive",
    )
    compress.add_argument("output", help="path of the archive to write")
    compress.add_argument(
        "--profile", choices=("DK", "CD", "HZ"), default="CD",
        help="dataset profile to generate (default: CD)",
    )
    compress.add_argument(
        "--count", type=int, default=200,
        help="number of uncertain trajectories (default: 200)",
    )
    compress.add_argument(
        "--dataset-seed", type=int, default=11,
        help="generation seed for network + trajectories (default: 11)",
    )
    compress.add_argument(
        "--network-scale", type=int, default=None,
        help="network grid scale (default: the profile's)",
    )
    compress.add_argument(
        "--workers", type=int, default=1,
        help="compression worker processes (default: 1 = serial; "
        "0 = one per core)",
    )
    compress.add_argument(
        "--shard-size", type=int, default=None,
        help="trajectories per work shard (default: auto)",
    )
    compress.add_argument(
        "--eta-distance", type=float, default=None,
        help="PDDP distance error bound (default: 1/128)",
    )
    compress.add_argument(
        "--eta-probability", type=float, default=None,
        help="PDDP probability error bound (default: the profile's)",
    )
    compress.add_argument(
        "--pivot-count", type=int, default=1,
        help="reference-selection pivot budget (default: 1)",
    )
    compress.add_argument(
        "--compressor-seed", type=int, default=17,
        help="seed for randomized pivot selection (default: 17)",
    )
    compress.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    info = commands.add_parser(
        "info", help="print header, params, and ratios of an archive"
    )
    info.add_argument("archive", help="path of a .utcq archive")
    info.add_argument(
        "--check", action="store_true",
        help="additionally verify every record's CRC-32",
    )
    info.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    decompress = commands.add_parser(
        "decompress", help="decode an archive back to JSON lines"
    )
    decompress.add_argument("archive", help="path of a .utcq archive")
    decompress.add_argument(
        "-o", "--output", default="-",
        help="output file (default: '-' = stdout)",
    )
    decompress.add_argument(
        "--limit", type=int, default=None,
        help="decode at most this many trajectories",
    )
    _add_dataset_arguments(decompress)

    query = commands.add_parser(
        "query", help="run a probabilistic query over an archive file"
    )
    kinds = query.add_subparsers(dest="kind", required=True)

    where = kinds.add_parser(
        "where", help="where was a trajectory at time t? (Definition 10)"
    )
    where.add_argument("archive")
    where.add_argument("--trajectory", type=int, required=True)
    where.add_argument("--time", type=int, required=True)
    where.add_argument("--alpha", type=float, default=0.2)
    where.add_argument("--json", action="store_true")
    _add_dataset_arguments(where)

    when = kinds.add_parser(
        "when", help="when did a trajectory pass a location? (Definition 11)"
    )
    when.add_argument("archive")
    when.add_argument("--trajectory", type=int, required=True)
    when.add_argument(
        "--edge", required=True, metavar="START,END", type=_comma_list,
        help="edge as 'start_vertex,end_vertex'",
    )
    when.add_argument(
        "--rd", type=float, default=0.5,
        help="relative distance along the edge in [0, 1] (default: 0.5)",
    )
    when.add_argument("--alpha", type=float, default=0.2)
    when.add_argument("--json", action="store_true")
    _add_dataset_arguments(when)

    range_ = kinds.add_parser(
        "range", help="which trajectories overlap a region at t? (Def. 12)"
    )
    range_.add_argument("archive")
    range_.add_argument(
        "--rect", required=True, metavar="MINX,MINY,MAXX,MAXY",
        type=_comma_list,
        help="query rectangle in network coordinates (use --rect=... "
        "when the first coordinate is negative)",
    )
    range_.add_argument("--time", type=int, required=True)
    range_.add_argument("--alpha", type=float, default=0.2)
    range_.add_argument("--json", action="store_true")
    _add_dataset_arguments(range_)

    batch = kinds.add_parser(
        "batch",
        help="run many queries at once through the batch engine, "
        "optionally across shards and worker processes",
    )
    batch.add_argument(
        "archives", nargs="+", metavar="archive",
        help="one or more .utcq shard files",
    )
    batch.add_argument(
        "-i", "--input", required=True,
        help="JSON file of query objects — an array or one object per "
        "line; '-' = stdin.  Objects look like "
        '{"kind": "where", "trajectory": 3, "time": 41000, "alpha": 0.2}, '
        '{"kind": "when", "trajectory": 3, "edge": [5, 6], "rd": 0.5, '
        '"alpha": 0.2}, '
        '{"kind": "range", "rect": [0, 0, 900, 900], "time": 41000, '
        '"alpha": 0.2}',
    )
    batch.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for shard-parallel execution "
        "(default: 1 = in-process)",
    )
    batch.add_argument(
        "--json", action="store_true",
        help="emit one JSON result line per query",
    )
    _add_dataset_arguments(batch)

    serve_bench = commands.add_parser(
        "serve-bench",
        help="serve a skewed request stream through the supervised "
        "QueryService while injecting worker kills, response delays, "
        "and one on-disk shard corruption; record availability, "
        "p50/p99 latency and oracle mismatches in "
        "BENCH_query_throughput.json (throughput is ledger/run.py's "
        "job)",
    )
    serve_bench.add_argument(
        "--quick", action="store_true",
        help="scaled-down workload (CI smoke; numbers are noisier)",
    )
    serve_bench.add_argument(
        "--label", default="current",
        help="label recorded with each row (default: current)",
    )
    serve_bench.add_argument(
        "-o", "--output", default="BENCH_query_throughput.json",
        help="results file to write (default: BENCH_query_throughput.json "
        "in the current directory — the repo root by convention)",
    )
    serve_bench.add_argument(
        "--append", action="store_true",
        help="keep existing rows in the output file and add these "
        "after them (rows with the same label are replaced)",
    )
    serve_bench.add_argument(
        "--workers", type=int, default=4,
        help="shard worker processes (default: 4)",
    )
    serve_bench.add_argument(
        "--duration", type=float, default=30.0,
        help="seconds to keep the service under load (default: 30)",
    )
    serve_bench.add_argument(
        "--clients", type=int, default=3,
        help="concurrent client threads (default: 3)",
    )
    serve_bench.add_argument(
        "--deadline", type=float, default=5.0,
        help="per-request deadline in seconds (default: 5)",
    )
    serve_bench.add_argument(
        "--wire", action="store_true",
        help="put the faults on the network instead of in the pool: "
        "the request stream crosses a loopback WireServer through a "
        "ChaosTCPProxy injecting disconnects, truncation, corruption, "
        "stalls, and slow-loris connections",
    )
    serve_bench.add_argument(
        "--availability-floor", type=float, default=None, metavar="PCT",
        help="fail (exit 2) when availability lands below PCT percent "
        "(the CI gate)",
    )
    _add_telemetry_arguments(serve_bench)

    serve = commands.add_parser(
        "serve",
        help="serve queries over TCP: a hardened asyncio front-end "
        "(framed CRC-checked protocol, read deadlines, connection "
        "limits, pipelining backpressure) over the supervised "
        "QueryService; SIGTERM drains gracefully",
    )
    serve.add_argument(
        "archives", nargs="+", help="shard archives (.utcq) to serve"
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="address to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (default: 0 = kernel-assigned, printed "
        "on startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="shard worker processes (default: 2)",
    )
    serve.add_argument(
        "--deadline", type=float, default=5.0,
        help="per-request deadline in seconds (default: 5)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=64,
        help="requests admitted concurrently before shedding "
        "(default: 64)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=64,
        help="concurrent TCP connections before refusing (default: 64)",
    )
    serve.add_argument(
        "--pipeline-window", type=int, default=8,
        help="in-flight requests per connection before the server "
        "stops reading that socket (default: 8)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=300.0,
        help="seconds a connection may sit between frames before it "
        "is closed (default: 300)",
    )
    serve.add_argument(
        "--read-timeout", type=float, default=10.0,
        help="seconds a frame body may take to arrive before the "
        "connection is closed — the slow-loris bound (default: 10)",
    )
    _add_dataset_arguments(serve)
    _add_telemetry_arguments(serve)

    stream = commands.add_parser(
        "stream",
        help="streaming ingestion: replay a feed, compact, inspect",
    )
    actions = stream.add_subparsers(dest="action", required=True)

    replay_ = actions.add_parser(
        "replay",
        help="replay a synthetic fleet feed into an appendable archive",
    )
    replay_.add_argument(
        "directory", help="stream-archive directory to create or append to"
    )
    replay_.add_argument(
        "--profile", choices=("DK", "CD", "HZ"), default="CD",
        help="dataset profile of the synthetic feed (default: CD)",
    )
    replay_.add_argument(
        "--count", type=int, default=50,
        help="number of vehicles in the feed (default: 50)",
    )
    replay_.add_argument(
        "--dataset-seed", type=int, default=11,
        help="generation seed for network + feeds (default: 11)",
    )
    replay_.add_argument(
        "--network-scale", type=int, default=None,
        help="network grid scale (default: the profile's)",
    )
    replay_.add_argument(
        "--speed", type=float, default=0.0,
        help="replay pacing: N = N x real time, 0 = as fast as "
        "possible (default: 0)",
    )
    replay_.add_argument(
        "--gap-timeout", type=float, default=300.0,
        help="seconds of per-vehicle silence that end a trip "
        "(default: 300)",
    )
    replay_.add_argument(
        "--max-duration", type=float, default=4 * 3600.0,
        help="hard cap on one trip's time span in seconds "
        "(default: 14400)",
    )
    replay_.add_argument(
        "--segment-size", type=int, default=64,
        help="trips per .utcq segment file (default: 64)",
    )
    replay_.add_argument(
        "--noise-sigma", type=float, default=15.0,
        help="GPS noise of the synthetic feed in meters (default: 15)",
    )
    replay_.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    compact_ = actions.add_parser(
        "compact",
        help="merge segments: into one canonical .utcq archive (with "
        "OUTPUT), or in place under the size-tiered policy",
    )
    compact_.add_argument("directory", help="stream-archive directory")
    compact_.add_argument(
        "output", nargs="?", default=None,
        help="path of the canonical archive to write (omit to merge "
        "in place until the policy finds no work)",
    )
    compact_.add_argument(
        "--min-merge", type=int, default=4,
        help="in place: segments per merge, minimum (default: 4)",
    )
    compact_.add_argument(
        "--max-merge", type=int, default=8,
        help="in place: segments per merge, maximum (default: 8)",
    )
    _add_telemetry_arguments(compact_)

    gc_ = actions.add_parser(
        "gc",
        help="retention: drop whole segments older than a cutoff",
    )
    gc_.add_argument("directory", help="stream-archive directory")
    cutoff = gc_.add_mutually_exclusive_group(required=True)
    cutoff.add_argument(
        "--drop-before", type=int, default=None, metavar="T",
        help="drop segments whose newest timestamp is before T",
    )
    cutoff.add_argument(
        "--ttl", type=int, default=None, metavar="SECONDS",
        help="drop segments older than SECONDS relative to the newest "
        "timestamp in the archive (the stream clock)",
    )
    gc_.add_argument(
        "--dry-run", action="store_true",
        help="report what would be dropped without touching anything",
    )

    stats_ = actions.add_parser(
        "stats", help="summarize a stream archive's manifest"
    )
    stats_.add_argument("directory", help="stream-archive directory")
    stats_.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    obs = commands.add_parser(
        "obs",
        help="telemetry: dump the process metrics registry, or trace "
        "one sharded request end to end",
    )
    obs_actions = obs.add_subparsers(dest="action", required=True)

    dump_ = obs_actions.add_parser(
        "dump",
        help="export the process-wide metrics registry (what every "
        "instrumented subsystem has recorded so far in this process)",
    )
    dump_.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="output format (default: prometheus text exposition)",
    )
    dump_.add_argument(
        "-o", "--out", default=None,
        help="write to this path instead of stdout",
    )

    trace_ = obs_actions.add_parser(
        "trace",
        help="run one traced request through a real sharded "
        "QueryService and print the span tree plus the plan/IPC/"
        "worker/merge breakdown (the ROADMAP item 1 instrument)",
    )
    trace_.add_argument(
        "--full", action="store_true",
        help="full-size serving fixture (default: the quick one)",
    )
    trace_.add_argument(
        "--workers", type=int, default=4,
        help="process-pool size for the sharded engine (default: 4)",
    )
    trace_.add_argument(
        "--queries", type=int, default=128,
        help="distinct queries in the traced request (default: 128, "
        "big enough to be routed to the worker pool; ~100 or fewer "
        "are answered in process and show no worker spans)",
    )
    trace_.add_argument(
        "--repeats", type=int, default=3,
        help="traced attempts; the fastest request is reported "
        "(default: 3)",
    )
    trace_.add_argument(
        "--json", action="store_true",
        help="emit the span tree and breakdown as JSON instead of "
        "the rendered tree",
    )
    trace_.add_argument(
        "--min-wall-ms", type=float, default=0.0,
        help="hide spans shorter than this in the rendered tree "
        "(default: show all)",
    )

    return parser


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="after the run, write the metrics this command produced "
        "(registry delta) as Prometheus text to PATH",
    )
    parser.add_argument(
        "--log-json", default=None, metavar="PATH",
        help="emit structured JSON logs to PATH ('-' for stderr); "
        "worker subprocesses inherit the sink via REPRO_LOG_JSON",
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _comma_list(text: str) -> list[str]:
    return text.split(",")


def _open_archive(path: str) -> FileBackedArchive:
    try:
        return FileBackedArchive.open(path)
    except FileNotFoundError:
        raise CliError(f"no such archive: {path}")


def _network_of(archive: FileBackedArchive, args):
    """The road network ``archive`` was compressed against: its
    provenance, with ``--profile/--dataset-seed/--network-scale`` merged
    over it."""
    from .query.engine import QueryEngineError, build_network_from_provenance

    provenance = dict(archive.provenance)
    for key in ("profile", "dataset_seed", "network_scale"):
        if getattr(args, key) is not None:
            provenance[key] = str(getattr(args, key))
    try:
        return build_network_from_provenance(provenance)
    except QueryEngineError:
        raise CliError(
            "the archive carries no dataset provenance; pass "
            "--profile and --dataset-seed (and --network-scale) explicitly"
        )


def _network_of_shards(paths: list[str], args):
    """Check that every shard exists; resolve the network from the first
    (CLI overrides win)."""
    for path in paths:
        if not os.path.exists(path):
            raise CliError(f"no such archive: {path}")
    with _open_archive(paths[0]) as first:
        return _network_of(first, args)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_compress(args) -> int:
    from .pipeline.batch import (
        compress_parallel,
        default_worker_count,
        save_archive_with_index,
    )
    from .trajectories.datasets import load_dataset, profile as dataset_profile

    # fail before compressing, not after
    parent = os.path.dirname(os.path.abspath(args.output)) or "."
    if not os.path.isdir(parent):
        raise CliError(f"output directory does not exist: {parent}")

    prof = dataset_profile(args.profile)
    scale = (
        args.network_scale
        if args.network_scale is not None
        else prof.network_scale
    )
    network, trajectories = load_dataset(
        args.profile,
        args.count,
        seed=args.dataset_seed,
        network_scale=scale,
    )
    workers = default_worker_count() if args.workers == 0 else args.workers

    def progress(done: int, total: int) -> None:
        print(f"\rcompressing {done}/{total} trajectories", end="", flush=True)

    archive, report = compress_parallel(
        network,
        trajectories,
        default_interval=prof.default_interval,
        workers=workers,
        shard_size=args.shard_size,
        progress=None if args.quiet else progress,
        eta_distance=(
            args.eta_distance if args.eta_distance is not None else 1 / 128
        ),
        eta_probability=(
            args.eta_probability
            if args.eta_probability is not None
            else prof.default_eta_probability
        ),
        pivot_count=args.pivot_count,
        seed=args.compressor_seed,
    )
    if not args.quiet:
        print()
    provenance = {
        "generator": PROVENANCE_GENERATOR,
        "profile": prof.name,
        "dataset_seed": str(args.dataset_seed),
        "network_scale": str(scale),
        "trajectory_count": str(args.count),
    }
    size, sidecar_path = save_archive_with_index(
        archive, args.output, network, provenance=provenance
    )
    if not args.quiet:
        row = archive.stats.as_row()
        ratios = ", ".join(f"{key} {value:.2f}" for key, value in row.items())
        print(
            f"wrote {args.output}: {size} bytes on disk, "
            f"{report.trajectory_count} trajectories / "
            f"{report.instance_count} instances in "
            f"{report.elapsed_seconds:.2f}s "
            f"({report.workers} worker{'s' if report.workers != 1 else ''})"
        )
        print(f"compression ratios — {ratios}")
        print(
            f"wrote {sidecar_path}: StIU index sidecar, "
            f"{os.path.getsize(sidecar_path)} bytes (temporal layer; "
            f"spatial rows derived on first use)"
        )
    return 0


def cmd_info(args) -> int:
    from .query.sidecar import sidecar_path_for

    with _open_archive(args.archive) as archive:
        header = archive.header
        if args.check:
            for trajectory_id in archive.trajectory_ids():
                archive.trajectory(trajectory_id)  # raises on mismatch
    checked = args.check

    stats = header.stats
    # what `ls -l` shows against the paper's Table-8 uncompressed size
    file_bytes = os.path.getsize(args.archive)
    sidecar = sidecar_path_for(args.archive)
    sidecar_bytes = os.path.getsize(sidecar) if sidecar.exists() else 0
    stored_bytes = file_bytes + sidecar_bytes
    raw_bytes = stats.original.total / 8
    stored_ratio = stored_bytes / raw_bytes if raw_bytes else None
    if args.json:
        import math

        # a component ratio is inf when its compressed size is 0 bits;
        # emit null rather than the non-standard `Infinity` token
        ratios = {
            key: (value if math.isfinite(value) else None)
            for key, value in stats.as_row().items()
        }
        document = {
            "path": args.archive,
            "file_bytes": file_bytes,
            "stored_bytes": stored_bytes,
            "stored_bytes_per_raw_byte": stored_ratio,
            "format_version": header.version,
            "trajectory_count": header.trajectory_count,
            "instance_count": header.instance_count,
            "params": {
                "eta_distance": header.params.eta_distance,
                "eta_probability": header.params.eta_probability,
                "default_interval": header.params.default_interval,
                "symbol_width": header.params.symbol_width,
                "t0_bits": header.params.t0_bits,
                "pivot_count": header.params.pivot_count,
            },
            "ratios": ratios,
            "original_bits": stats.original.total,
            "compressed_bits": stats.compressed.total,
            "provenance": header.provenance,
            "crc_checked": checked,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    print(f"{args.archive}: UTCQ archive, format v{header.version}")
    print(
        f"  trajectories {header.trajectory_count}, "
        f"instances {header.instance_count}, "
        f"{file_bytes} bytes on disk"
    )
    print(
        f"  params: eta_d={header.params.eta_distance:g} "
        f"eta_p={header.params.eta_probability:g} "
        f"Ts={header.params.default_interval}s "
        f"symbol_width={header.params.symbol_width} "
        f"t0_bits={header.params.t0_bits} "
        f"pivots={header.params.pivot_count}"
    )
    row = stats.as_row()
    print(
        "  ratios: "
        + ", ".join(f"{key} {value:.2f}" for key, value in row.items())
    )
    print(
        f"  payload: {stats.original.total} bits -> "
        f"{stats.compressed.total} bits"
    )
    if stored_ratio is not None:
        print(
            f"  stored: {stored_bytes} bytes (archive {file_bytes} + "
            f"sidecar {sidecar_bytes}) = {stored_ratio:.3f} of "
            f"{raw_bytes:.0f} raw bytes"
        )
    if header.provenance:
        pairs = ", ".join(
            f"{key}={value}" for key, value in sorted(header.provenance.items())
        )
        print(f"  provenance: {pairs}")
    if checked:
        print("  integrity: all record CRCs OK")
    return 0


def cmd_decompress(args) -> int:
    from .core import CorruptPayloadError
    from .core.decoder import decode_trajectory

    with _open_archive(args.archive) as archive:
        network = _network_of(archive, args)
        out = sys.stdout if args.output == "-" else open(args.output, "w")
        try:
            for position, trajectory_id in enumerate(archive.trajectory_ids()):
                if args.limit is not None and position >= args.limit:
                    break
                compressed = archive.trajectory(trajectory_id)
                try:
                    decoded = decode_trajectory(
                        network, compressed, archive.params
                    )
                except CorruptPayloadError as error:
                    # a valid CRC over a payload that does not decode
                    raise CliError(
                        f"{args.archive}: trajectory {trajectory_id}: {error}"
                    )
                record = {
                    "trajectory_id": decoded.trajectory_id,
                    "times": list(decoded.times),
                    "instances": [
                        {
                            "probability": instance.probability,
                            "path": [list(edge) for edge in instance.path],
                            "locations": [
                                {
                                    "edge": list(location.edge),
                                    "ndist": location.ndist,
                                }
                                for location in instance.locations
                            ],
                        }
                        for instance in decoded.instances
                    ],
                }
                out.write(json.dumps(record) + "\n")
        finally:
            if out is not sys.stdout:
                out.close()
    return 0


#: the ``query batch`` fields a single-query command's options fill in
_SPEC_FIELDS = ("kind", "trajectory", "time", "edge", "rd", "rect", "alpha")

_NOTHING_QUALIFIES = {
    "where": "no instance qualifies",
    "when": "no passing time qualifies",
    "range": "no trajectory qualifies",
}


def cmd_query(args) -> int:
    """``where`` / ``when`` / ``range`` are a batch of one: every kind
    runs through :class:`~repro.query.engine.ShardedQueryEngine`."""
    from .core import CorruptPayloadError
    from .query.engine import (
        QueryEngineError,
        ShardedQueryEngine,
        query_from_dict,
        result_to_jsonable,
    )

    if args.kind == "batch":
        paths, workers = args.archives, args.workers
        documents = _load_batch_documents(args.input)
    else:
        paths, workers = [args.archive], 1
        documents = [
            {key: getattr(args, key) for key in _SPEC_FIELDS if key in args}
        ]
    try:
        queries = [query_from_dict(document) for document in documents]
    except QueryEngineError as error:
        raise CliError(f"{error}")
    network = _network_of_shards(paths, args)
    try:
        with ShardedQueryEngine(
            paths, network=network, workers=workers
        ) as engine:
            if args.kind in ("where", "when"):
                # the engine answers an unknown id with [], as a batch
                # must; a single query names the mistake instead
                trajectory_id = queries[0].trajectory_id
                if engine.shard_for(trajectory_id) is None:
                    raise CliError(
                        f"no trajectory {trajectory_id} in the archive"
                    )
            results = engine.run(queries)
    except (QueryEngineError, CorruptPayloadError) as error:
        # a payload that does not decode is named, not a traceback
        raise CliError(f"{error}")
    if args.json:
        for query, result in zip(queries, results):
            print(json.dumps(result_to_jsonable(query, result)))
    elif args.kind == "batch":
        hits = sum(1 for result in results if result)
        print(
            f"{len(queries)} queries over {len(paths)} "
            f"shard{'s' if len(paths) != 1 else ''} "
            f"({workers} worker{'s' if workers != 1 else ''}): "
            f"{hits} with non-empty results"
        )
        for position, (document, result) in enumerate(
            zip(documents, results)
        ):
            print(f"  [{position}] {document.get('kind')}: {len(result)} result(s)")
    else:
        _print_result(args.kind, results[0])
    return 0


def _print_result(kind: str, result: list) -> None:
    if not result:
        print(_NOTHING_QUALIFIES[kind])
    for r in result:
        if kind == "where":
            print(
                f"instance {r.instance_index}: edge "
                f"{r.edge[0]} -> {r.edge[1]} at {r.ndist:.1f} m "
                f"(p={r.probability:.3f})"
            )
        elif kind == "when":
            print(
                f"instance {r.instance_index}: t={r.time:.1f}s "
                f"(p={r.probability:.3f})"
            )
        else:
            print(f"trajectory {r}")


def _load_batch_documents(source: str) -> list:
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as stream:
                text = stream.read()
        except FileNotFoundError:
            raise CliError(f"no such query file: {source}")
    text = text.strip()
    if not text:
        raise CliError("the query input is empty")
    try:
        if text.startswith("["):
            return json.loads(text)
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as error:
        raise CliError(f"bad query JSON: {error}")


def _telemetry_begin(args):
    """Honor ``--log-json`` and take the ``--metrics-out`` baseline.

    Returns the registry snapshot to delta against after the run (or
    None when ``--metrics-out`` was not given).  ``--log-json`` is
    exported as ``REPRO_LOG_JSON`` so worker subprocesses spawned by
    the run inherit the same sink.
    """
    from .obs import log as obs_log
    from .obs import metrics as obs_metrics

    if getattr(args, "log_json", None):
        obs_log.configure(args.log_json)
        os.environ["REPRO_LOG_JSON"] = args.log_json
    if getattr(args, "metrics_out", None):
        return obs_metrics.get_registry().snapshot()
    return None


def _telemetry_end(args, baseline) -> None:
    """Write the run's metrics delta as Prometheus text."""
    from .obs import metrics as obs_metrics

    if not getattr(args, "metrics_out", None):
        return
    delta = obs_metrics.snapshot_delta(
        obs_metrics.get_registry().snapshot(), baseline or {}
    )
    try:
        with open(args.metrics_out, "w", encoding="utf-8") as stream:
            stream.write(obs_metrics.render_prometheus(delta))
    except OSError as error:
        raise CliError(f"cannot write {args.metrics_out}: {error}")
    print(
        f"wrote {args.metrics_out} "
        f"({len(delta['metrics'])} series, Prometheus text)"
    )


def cmd_serve_bench(args) -> int:
    """Chaos in the worker pool, or with ``--wire`` through the network:
    client -> ChaosTCPProxy -> WireServer -> QueryService, with the full
    worker/shard chaos underneath."""
    from .workloads import query_bench
    from .workloads.reporting import render_table

    if args.wire:
        run = query_bench.run_wire_chaos_bench
        title = "wire chaos benchmark"
        fault_key, fault_label = "network_faults", "network faults"
    else:
        run = query_bench.run_chaos_bench
        title = "chaos serving benchmark"
        fault_key, fault_label = "faults_injected", "faults"
    baseline = _telemetry_begin(args)
    try:
        results, summary = run(
            duration=args.duration,
            clients=args.clients,
            quick=args.quick,
            deadline=args.deadline,
            workers=args.workers,
        )
    except ValueError as error:
        raise CliError(str(error))
    try:
        rows = query_bench.write_bench_json(
            results, args.output, label=args.label, append=args.append
        )
    except OSError as error:
        raise CliError(f"cannot write {args.output}: {error}")
    print(
        render_table(
            f"{title} ({'quick' if args.quick else 'full'} "
            f"workload, {summary['duration']}s, {args.clients} clients"
            f"{' through ChaosTCPProxy' if args.wire else ''})",
            ["label", "benchmark", "unit", "work", "seconds", "rate"],
            rows,
        )
    )
    loris = (
        f"loris connections reaped: {summary['loris_reaped']}; "
        if args.wire
        else ""
    )
    print(
        f"availability {summary['availability_percent']}% over "
        f"{summary['requests']} requests "
        f"(p50 {summary['p50_ms']}ms, p99 {summary['p99_ms']}ms); "
        f"outcomes: {summary['outcomes']}; "
        f"{fault_label}: {summary[fault_key]}; "
        f"routes: {summary['routes']}; "
        f"{loris}"
        f"mismatches: {summary['result_mismatches']}"
    )
    print(f"wrote {args.output} ({len(rows)} rows)")
    _telemetry_end(args, baseline)
    if summary["result_mismatches"]:
        raise CliError(
            f"{summary['result_mismatches']} completed results did not "
            f"match the healthy-engine reference"
        )
    _check_chaos_was_exercised(summary, summary[fault_key])
    if (
        args.availability_floor is not None
        and summary["availability_percent"] < args.availability_floor
    ):
        raise CliError(
            f"availability {summary['availability_percent']}% is below the "
            f"required floor of {args.availability_floor}%"
        )
    return 0


def _check_chaos_was_exercised(summary: dict, injected: dict) -> None:
    """A chaos run that injected nothing, or whose requests all stayed
    off the worker pool, proves nothing about availability under
    faults: fail it instead of reporting a vacuous 100%."""
    if not sum(injected.values()):
        raise CliError("no fault was injected; the run proves nothing")
    if not summary["routes"]["served_by_pool"]:
        raise CliError(
            "no request was served by the worker pool; its supervision "
            "and transport were never exercised"
        )


def cmd_serve(args) -> int:
    """Run the wire front-end until SIGTERM/SIGINT, then drain."""
    import asyncio
    import signal

    from .query.engine import QueryEngineError
    from .serve import (
        QueryService,
        ServiceConfig,
        WireServer,
        WireServerConfig,
    )

    network = _network_of_shards(args.archives, args)
    baseline = _telemetry_begin(args)
    try:
        wire_config = WireServerConfig(
            max_connections=args.max_connections,
            pipeline_window=args.pipeline_window,
            idle_timeout=args.idle_timeout,
            read_timeout=args.read_timeout,
        )
    except ValueError as error:
        raise CliError(str(error))
    try:
        service = QueryService(
            args.archives,
            network=network,
            workers=args.workers,
            config=ServiceConfig(
                deadline=args.deadline,
                max_in_flight=args.max_in_flight,
            ),
        )
    except (QueryEngineError, ValueError) as error:
        raise CliError(str(error))

    async def _serve() -> bool:
        loop = asyncio.get_running_loop()
        server = WireServer(
            service, host=args.host, port=args.port, config=wire_config
        )
        host, port = await server.start()
        print(
            f"serving {len(args.archives)} shard"
            f"{'s' if len(args.archives) != 1 else ''} on {host}:{port} "
            f"({args.workers} workers, deadline {args.deadline}s); "
            f"SIGTERM drains",
            flush=True,
        )
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("drain: stopped accepting, waiting for in-flight "
              "requests", flush=True)
        clean = await server.drain()
        await server.aclose()
        return clean

    try:
        clean = asyncio.run(_serve())
    finally:
        service.drain()
    snapshot = service.telemetry()
    requests = snapshot.get("service", {})
    admission = snapshot.get("admission", {})
    shed = admission.get("shed_in_flight", 0) + admission.get(
        "shed_rate_limited", 0
    )
    print(
        f"drained {'cleanly' if clean else 'with requests abandoned'}; "
        f"served {requests.get('requests', 0)} requests "
        f"({requests.get('completed', 0)} completed, {shed} shed)"
    )
    _telemetry_end(args, baseline)
    return 0


def cmd_obs(args) -> int:
    handlers = {"dump": _obs_dump, "trace": _obs_trace}
    return handlers[args.action](args)


def _obs_dump(args) -> int:
    from .obs import metrics as obs_metrics

    registry = obs_metrics.get_registry()
    text = (
        registry.to_json()
        if args.format == "json"
        else registry.to_prometheus()
    )
    if args.out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as stream:
                stream.write(text)
        except OSError as error:
            raise CliError(f"cannot write {args.out}: {error}")
        print(f"wrote {args.out} ({args.format})")
    return 0


def _obs_trace(args) -> int:
    from .obs.trace import Span, render_tree
    from .workloads.query_bench import run_trace_probe

    try:
        trace, breakdown = run_trace_probe(
            quick=not args.full,
            workers=args.workers,
            queries=args.queries,
            repeats=args.repeats,
        )
    except ValueError as error:
        raise CliError(str(error))
    if args.json:
        print(json.dumps({"trace": trace, "breakdown": breakdown}, indent=2))
        return 0
    print(
        render_tree(
            Span.from_dict(trace), min_wall=args.min_wall_ms / 1000.0
        )
    )
    total = breakdown["total_seconds"]
    print()
    print(
        f"request wall {total * 1000:.2f}ms, routed "
        f"{trace['attrs'].get('route', '?')}, over "
        f"{breakdown['worker_calls']} worker call(s):"
    )
    for key, label in (
        ("plan_seconds", "plan"),
        ("worker_seconds", "worker decode"),
        ("ipc_seconds", "IPC overhead"),
        ("merge_seconds", "merge"),
    ):
        share = breakdown[key] / total if total > 0 else 0.0
        print(
            f"  {label:<14} {breakdown[key] * 1000:8.2f}ms "
            f"({share * 100:5.1f}% of request wall)"
        )
    print(
        f"  ipc_share = {breakdown['ipc_share']:.3f} "
        f"(the sharded-path tax ROADMAP item 1 tracks)"
    )
    return 0


def cmd_stream(args) -> int:
    from .stream import StreamArchiveError

    handlers = {
        "replay": _stream_replay,
        "compact": _stream_compact,
        "gc": _stream_gc,
        "stats": _stream_stats,
    }
    try:
        return handlers[args.action](args)
    except (StreamArchiveError, ValueError) as error:
        # ValueError: config validation (e.g. --segment-size 0)
        raise CliError(f"{error}")


def _stream_replay(args) -> int:
    from .mapmatching.noise import synthesize_raw_dataset
    from .network.generators import dataset_network
    from .stream import (
        AppendableArchiveWriter,
        SessionConfig,
        TripSessionizer,
        replay,
    )
    from .trajectories.datasets import profile as dataset_profile

    prof = dataset_profile(args.profile)
    scale = (
        args.network_scale
        if args.network_scale is not None
        else prof.network_scale
    )
    network = dataset_network(prof.name, scale=scale, seed=args.dataset_seed)
    feeds = synthesize_raw_dataset(
        network,
        prof.generation_config(),
        args.count,
        seed=args.dataset_seed,
        noise_sigma=args.noise_sigma,
    )
    with AppendableArchiveWriter(
        args.directory,
        network,
        default_interval=prof.default_interval,
        segment_max_trajectories=args.segment_size,
        provenance={
            "generator": "repro.stream.replay",
            "profile": prof.name,
            "dataset_seed": str(args.dataset_seed),
            "network_scale": str(scale),
        },
    ) as writer:
        # resume id numbering when replaying into an existing archive
        sessionizer = TripSessionizer(
            network,
            config=SessionConfig(
                gap_timeout=args.gap_timeout, max_duration=args.max_duration
            ),
            start_id=writer.next_trajectory_id,
        )
        report = replay(
            sessionizer, feeds, writer=writer, speed=args.speed
        )
        segment_count = writer.segment_count
    if not args.quiet:
        print(
            f"replayed {report.points} points from {args.count} vehicles "
            f"({report.feed_seconds}s of feed time) in "
            f"{report.elapsed_seconds:.2f}s — "
            f"{report.points_per_second:,.0f} points/sec sustained"
        )
        print(
            f"sealed {report.trips_sealed} trips "
            f"({report.trips_discarded} discarded) into "
            f"{segment_count} segments under {args.directory}"
        )
    return 0


def _stream_compact(args) -> int:
    """``stream compact DIR`` merges segments in place, size-tiered,
    until no merge is left; ``stream compact DIR OUTPUT`` writes one
    canonical archive."""
    from .stream import (
        CompactionDaemon,
        SizeTieredPolicy,
        compact,
        load_manifest,
    )

    baseline = _telemetry_begin(args)
    manifest = load_manifest(args.directory)
    network = _network_from_manifest_provenance(manifest)
    if args.output is not None:
        size, count, sidecar = compact(
            args.directory, args.output, network=network
        )
        segment_bytes = sum(s["file_bytes"] for s in manifest["segments"])
        print(
            f"compacted {count} trajectories from "
            f"{len(manifest['segments'])} segments ({segment_bytes} bytes) "
            f"into {args.output} ({size} bytes)"
        )
        if sidecar is not None:
            print(
                f"wrote {sidecar}: StIU index sidecar (temporal layer; "
                f"spatial rows derived on first use)"
            )
        else:
            print(
                "note: no dataset provenance in the manifest; skipped the "
                "index sidecar (queries will rebuild the index on open)"
            )
    else:
        policy = SizeTieredPolicy(
            min_merge=args.min_merge, max_merge=args.max_merge
        )
        daemon = CompactionDaemon(
            args.directory, policy=policy, network=network
        )
        before = len(manifest["segments"])
        daemon.run_once()
        stats = daemon.stats
        after = len(load_manifest(args.directory)["segments"])
        print(
            f"{policy.describe()}: {stats.merges} merge(s), "
            f"{stats.segments_merged} segments in, {before} -> {after} "
            f"segments, {stats.bytes_read} bytes read / "
            f"{stats.bytes_written} written "
            f"(generation {daemon.store.state.generation})"
        )
        if network is None:
            print(
                "note: no dataset provenance in the manifest; merged "
                "segments got no index sidecars (live queries will "
                "rebuild for them)"
            )
    _telemetry_end(args, baseline)
    return 0


def _stream_gc(args) -> int:
    from .stream import ManifestStore, gc_segments

    store = ManifestStore.open(args.directory)
    dropped = gc_segments(
        store,
        drop_before=args.drop_before,
        ttl_seconds=args.ttl,
        dry_run=args.dry_run,
    )
    verb = "would drop" if args.dry_run else "dropped"
    print(
        f"{verb} {len(dropped)} segment(s), "
        f"{sum(s.trajectory_count for s in dropped)} trajectories, "
        f"{sum(s.file_bytes for s in dropped)} bytes"
    )
    for info in dropped:
        print(
            f"  {info.name}: times {info.min_time}..{info.max_time}, "
            f"ids {info.min_trajectory_id}..{info.max_trajectory_id}"
        )
    return 0


def _network_from_manifest_provenance(manifest: dict):
    """Best effort: rebuild the stream archive's network for the sidecar."""
    from .query.engine import QueryEngineError, build_network_from_provenance

    try:
        return build_network_from_provenance(manifest.get("provenance") or {})
    except QueryEngineError:
        return None


def _stream_stats(args) -> int:
    from .stream import load_manifest, manifest_segments

    manifest = load_manifest(args.directory)
    segments = manifest_segments(manifest)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(
        f"{args.directory}: stream archive, manifest "
        f"v{manifest['version']} generation {manifest.get('generation', 0)}"
    )
    print(
        f"  trajectories {manifest['trajectory_count']}, "
        f"instances {manifest['instance_count']}, "
        f"segments {len(segments)}"
    )
    if segments:
        print(
            f"  time span: {min(s.min_time for s in segments)} .. "
            f"{max(s.max_time for s in segments)}"
        )
        print(
            f"  on disk: {sum(s.file_bytes for s in segments)} bytes "
            f"of sealed segments"
        )
        for info in segments:
            print(
                f"    {info.name} (L{info.level}): "
                f"{info.trajectory_count} trajectories, "
                f"ids {info.min_trajectory_id}..{info.max_trajectory_id}, "
                f"{info.file_bytes} bytes"
            )
    if manifest.get("provenance"):
        pairs = ", ".join(
            f"{key}={value}"
            for key, value in sorted(manifest["provenance"].items())
        )
        print(f"  provenance: {pairs}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compress": cmd_compress,
        "info": cmd_info,
        "decompress": cmd_decompress,
        "query": cmd_query,
        "stream": cmd_stream,
        "serve-bench": cmd_serve_bench,
        "serve": cmd_serve,
        "obs": cmd_obs,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as error:
        # a malformed REPRO_* variable: one operator-facing line
        # instead of an uncaught ValueError traceback
        raise CliError(str(error))
    except ArchiveFormatError as error:
        # a foreign or damaged archive, wherever a command read it
        raise CliError(f"{error.path}: {error}" if error.path else f"{error}")
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed early; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
