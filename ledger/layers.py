"""Per-layer metrics of the traced run.

The benchmark measures the program from outside, so a layer's cost is
taken one of three ways:

* **spans** the workloads record around their own calls into a layer
  (``core.compress``, ``io.save``, ``stream.ingest`` ...): the stages
  of ``compress-batch`` and ``stream-ingest-live`` run one after the
  other, so their spans are the layer's time;
* the **staircase**: the read stack is a pile of layers each calling
  the next, so the same request list is replayed at five boundaries --
  ``WireClient.request``, ``QueryService.submit_many``,
  ``ShardedQueryEngine.run``, ``BatchQueryEngine.run``, and the query
  processor one query at a time -- and a layer's self time is the
  difference between its boundary and the next one down, request by
  request;
* **probes**: a codec or cache called directly on the workload's own
  bodies, plus the counters the program already keeps
  (``QueryCounters``, ``DecodeSpanCache.stats()``, ``telemetry()``).

Every traced run reports every metric.  The workload being traced is
measured at its full size; the other three run at their ``MINI`` size so
their layers are still real measurements, and the notes say which
fixture each group of metrics came from.
"""

from __future__ import annotations

import os
import random
import shutil
import time

import inputs
from harness import median, percentile, run_round, scratch_dir
from repro.bits import BitReader, BitWriter, expgolomb
from repro.core import CompressionStats
from repro.core.decoder import DecodeSpanCache
from repro.mapmatching import ProbabilisticMapMatcher
from repro.obs import get_registry, snapshot_delta
from repro.query import (
    BatchQueryEngine,
    RangeQuery,
    ShardedQueryEngine,
    StIUIndex,
    UTCQQueryProcessor,
    WhenQuery,
    WhereQuery,
)
from repro.query.transport import decode_answers_blob, encode_answers
from repro.serve import (
    QueryService,
    ServiceConfig,
    WireClient,
    WireServerThread,
)
from repro.serve.wire import (
    FRAME_REQUEST,
    decode_response_body,
    encode_frame,
    encode_request_body,
    encode_response_body,
)
from repro.ted import TEDCompressor
from workloads import FULL, MINI, WORKLOADS

STAIRCASE_TOLERANCE_PCT = 10.0
STAIRCASE_PASSES = 2  # timed passes per boundary, after one warm-up pass
COMPANION_ROUNDS = 2
SERVE_DEADLINE = 5.0  # what `repro serve` defaults to
BITS_VALUES = 60_000
TED_TRAJECTORIES = 300
MATCH_FEEDS = 40


class _Replay:
    """One request list, replayed in the same order at every boundary."""

    def __init__(self, speed, requests, expected) -> None:
        self.speed = speed
        self.requests = requests
        self.expected = expected
        self.wrong = 0  # answers that differed from the oracle's
        self.passes = STAIRCASE_PASSES + 1  # per boundary, warm-up included

    def seconds(self, call) -> list[float]:
        """Per request: one warm-up pass, then the median of
        ``STAIRCASE_PASSES`` timed passes, at reference machine speed --
        boundaries are measured minutes apart, and their differences are
        only as good as that correction."""
        for request in self.requests:
            call(request)
        passes = []
        for _ in range(STAIRCASE_PASSES):
            seconds = []
            for request, want in zip(self.requests, self.expected):
                factor = self.speed.refresh()
                started = time.perf_counter()
                got = call(request)
                seconds.append((time.perf_counter() - started) / factor)
                self.wrong += got != want
            passes.append(seconds)
        return [median(column) for column in zip(*passes)]


def _one_at_a_time(processor: UTCQQueryProcessor, request) -> list:
    answers = []
    for query in request:
        try:
            if isinstance(query, WhereQuery):
                answer = processor.where(
                    query.trajectory_id, query.t, query.alpha
                )
            elif isinstance(query, WhenQuery):
                answer = processor.when(
                    query.trajectory_id,
                    query.edge,
                    query.relative_distance,
                    query.alpha,
                )
            else:
                answer = processor.range(query.rect, query.t, query.alpha)
        except KeyError:  # the engine's serving semantics: unknown id
            answer = []
        answers.append(answer)
    return answers


def _counter(snapshot: dict, name: str) -> float:
    return sum(
        entry.get("value", 0.0)
        for full, entry in snapshot["metrics"].items()
        if full.split("{")[0] == name
    )


# ----------------------------------------------------------------------
# the read stack
# ----------------------------------------------------------------------
def read_stack(fixture, cleanup, speed) -> tuple[dict, int]:
    """Staircase and read-side probes over one read workload's fixture.

    Returns ``(metrics, wrong_answers)``.
    """
    network = fixture.network
    expected = [fixture.oracle.run(request) for request in fixture.requests]
    replay = _Replay(speed, fixture.requests, expected)
    root = scratch_dir("staircase")
    cleanup.add(lambda: shutil.rmtree(root, ignore_errors=True))
    # a read workload brings one archive or four shards; make the other
    archive_path = getattr(fixture, "archive_path", None)
    if archive_path is None:
        archive_path = os.path.join(root, "archive.utcq")
        inputs.save_with_sidecar(
            network, fixture.archive, archive_path, index=fixture.index
        )
    shard_paths = getattr(fixture, "shard_paths", None)
    if shard_paths is None:
        shard_paths, _ = inputs.save_shards(network, fixture.archive, root, 4)
    seconds: dict[str, list[float]] = {}
    metrics = _one_archive(replay, network, archive_path, seconds)
    metrics.update(
        _served(replay, network, shard_paths, seconds, cleanup, fixture.seed)
    )
    metrics.update(_staircase(seconds))
    metrics.update(_codecs(speed, fixture.requests, expected))
    return metrics, replay.wrong


def _one_archive(replay, network, archive_path, seconds) -> dict:
    """Processor and batch boundaries, and what one open archive tells:
    query counters, decode-cache deltas, cost by query kind."""
    speed, requests = replay.speed, replay.requests
    metrics: dict[str, float] = {}
    first = next(q for q in requests[0] if isinstance(q, WhereQuery))

    def open_and_answer() -> None:
        index = StIUIndex.over_file(network, archive_path)
        try:
            UTCQQueryProcessor(network, index.archive, index).where(
                first.trajectory_id, first.t, first.alpha
            )
        finally:
            index.archive.close()

    metrics["query.stiu.open_first_result_ms"] = (
        median([speed.timed(open_and_answer) for _ in range(5)]) * 1000
    )
    index = StIUIndex.over_file(network, archive_path)
    try:
        processor = UTCQQueryProcessor(network, index.archive, index)
        seconds["processor"] = replay.seconds(
            lambda request: _one_at_a_time(processor, request)
        )
        cache = DecodeSpanCache()
        engine = BatchQueryEngine(network, index.archive, index, cache=cache)
        for request in requests:  # a first pass, outside the counters
            engine.run(request)
        counters = engine.counters
        counters.reset()
        before = cache.stats()
        seconds["batch"] = replay.seconds(engine.run)
        after = cache.stats()
        queries = replay.passes * sum(len(r) for r in requests)
        metrics["query.processor.instances_decoded_per_query"] = (
            counters.instances_decoded / queries
        )
        metrics["query.processor.instances_pruned_per_query"] = (
            counters.instances_pruned / queries
        )
        metrics["query.processor.trajectories_pruned_per_query"] = (
            counters.trajectories_pruned / queries
        )

        def hit_ratio(*sections: str) -> float:
            hits = sum(after[s]["hits"] - before[s]["hits"] for s in sections)
            misses = sum(
                after[s]["misses"] - before[s]["misses"] for s in sections
            )
            # no lookup at all means nothing was missed
            return hits / (hits + misses) if hits + misses else 1.0

        metrics["core.decode_cache.times_hit_ratio"] = hit_ratio("times")
        # the three per-instance sections sit in front of one another
        # (a chainage hit never reaches the instance section), so they
        # are read as one
        metrics["core.decode_cache.instances_hit_ratio"] = hit_ratio(
            "references", "instances", "chainages"
        )
        metrics["core.decode_cache.evictions_per_op"] = sum(
            after[s]["evictions"] - before[s]["evictions"] for s in after
        ) / (replay.passes * len(requests))
        # one query per call, in the workload's own order and cache
        # regime: what each kind costs when nothing is grouped
        by_kind: dict[type, list[float]] = {
            WhereQuery: [], WhenQuery: [], RangeQuery: [],
        }
        for request in requests[:30]:
            for query in request:
                by_kind[type(query)].append(
                    speed.timed(lambda: engine.run([query]))
                )
        metrics["query.kind.where_ms"] = median(by_kind[WhereQuery]) * 1000
        metrics["query.kind.when_ms"] = median(by_kind[WhenQuery]) * 1000
        metrics["query.kind.range_ms"] = median(by_kind[RangeQuery]) * 1000
    finally:
        index.archive.close()
    return metrics


def _served(replay, network, shard_paths, seconds, cleanup, seed) -> dict:
    """Sharded, service and client boundaries: the worker pool alone,
    then one ``QueryService``, then the same service behind a socket --
    in this process, so that its telemetry and the registry are in
    reach."""
    speed, requests = replay.speed, replay.requests
    workers = min(2, os.cpu_count() or 1)
    with ShardedQueryEngine(
        shard_paths, network=network, workers=workers
    ) as sharded:
        seconds["sharded"] = replay.seconds(sharded.run)
    registry = get_registry()
    service = QueryService(
        shard_paths,
        network=network,
        workers=workers,
        config=ServiceConfig(deadline=SERVE_DEADLINE),
    )
    cleanup.add(service.close)
    try:
        told_before = service.telemetry()
        seconds["service"] = replay.seconds(
            lambda request: service.submit_many(request).results
        )
        with WireServerThread(service) as server, WireClient(
            "127.0.0.1", server.port, seed=seed
        ) as client:
            wire_before = registry.snapshot()
            seconds["client"] = replay.seconds(
                lambda request: client.request(request).results
            )
            wire = snapshot_delta(registry.snapshot(), wire_before)
            # the tail needs a thousand samples: keep replaying
            tail = []
            while len(tail) < 1000:
                tail.extend(
                    speed.timed(lambda: client.request(request))
                    for request in requests
                )
        told = service.telemetry()
    finally:
        cleanup.discard(service.close)
        service.close()

    def told_delta(group: str, *names: str) -> float:
        # no "supervisor" group on a single core: no pool to supervise
        now, then = told.get(group, {}), told_before.get(group, {})
        return float(sum(now.get(n, 0) - then.get(n, 0) for n in names))

    return {
        "serve.client.request_p99_ms": percentile(tail, 0.99) * 1000,
        "serve.wire.bytes_per_request": (
            _counter(wire, "repro_wire_bytes_read_total")
            + _counter(wire, "repro_wire_bytes_written_total")
        ) / (replay.passes * len(requests)),
        "serve.service.rejected": told_delta(
            "service",
            "overloaded", "deadline_exceeded", "quarantined", "failed",
        ),
        "serve.service.degraded": told_delta(
            "service", "served_degraded_batch", "served_degraded_single"
        ),
        "serve.service.retries": told_delta("supervisor", "retries"),
        "serve.service.hedges": told_delta("supervisor", "hedges_launched"),
        "obs.registry.snapshot_ms": median(
            [speed.timed(registry.snapshot) for _ in range(20)]
        ) * 1000,
    }


def _staircase(seconds: dict[str, list[float]]) -> dict:
    """Boundary medians, and self times as medians of the request-by-
    request differences between neighbouring boundaries."""

    def step(upper: str, lower: str) -> float:
        return median(
            [a - b for a, b in zip(seconds[upper], seconds[lower])]
        ) * 1000

    metrics = {
        metric: median(seconds[boundary]) * 1000
        for metric, boundary in (
            ("serve.client.request_ms", "client"),
            ("serve.service.request_ms", "service"),
            ("query.sharded.request_ms", "sharded"),
            ("query.batch.request_ms", "batch"),
            ("query.processor.request_ms", "processor"),
        )
    }
    metrics["serve.wire.self_ms"] = step("client", "service")
    metrics["serve.service.self_ms"] = step("service", "sharded")
    metrics["query.dispatch.self_ms"] = step("sharded", "batch")
    metrics["query.engine.grouping_gain_ms"] = step("processor", "batch")
    client_ms = metrics["serve.client.request_ms"]
    metrics["ledger.staircase_unattributed_pct"] = (
        client_ms
        - metrics["serve.wire.self_ms"]
        - metrics["serve.service.self_ms"]
        - metrics["query.dispatch.self_ms"]
        - metrics["query.batch.request_ms"]
    ) / client_ms * 100
    return metrics


def _codecs(speed, requests, expected) -> dict:
    """Wire and transport codecs on the workload's own bodies."""

    def median_us(call, items) -> float:
        return median([speed.timed(lambda: call(item)) for item in items]) * 1e6

    return {
        "serve.wire.encode_request_us": median_us(
            lambda request: encode_frame(
                FRAME_REQUEST, 1, encode_request_body(request)
            ),
            requests,
        ),
        "serve.wire.decode_response_us": median_us(
            decode_response_body,
            [encode_response_body("sharded", want) for want in expected],
        ),
        "query.transport.encode_answers_us": median_us(
            encode_answers, expected
        ),
        "query.transport.decode_answers_us": median_us(
            decode_answers_blob, [encode_answers(want) for want in expected]
        ),
    }


# ----------------------------------------------------------------------
# write side, from spans
# ----------------------------------------------------------------------
def compress_layers(workload, tracer) -> dict:
    job = workload.sizes["job"]

    def per_trajectory_us(name: str) -> float:
        return median(tracer.seconds(name)) / job * 1e6

    def per_job_ms(name: str) -> float:
        return median(tracer.seconds(name)) * 1000

    totals = CompressionStats()
    for stats in workload.job_stats:
        totals.add(stats)
    file_bytes = sum(
        os.path.getsize(workload.job_path(index))
        for index in range(len(workload.jobs))
    )
    table8 = totals.as_row()
    metrics = {
        "core.compress.traj_us": per_trajectory_us("core.compress"),
        "core.decode.traj_us": per_trajectory_us("core.decode"),
        "query.stiu.build_traj_us": per_trajectory_us("query.stiu.build"),
        "query.sidecar.save_ms": per_job_ms("query.sidecar.save"),
        "io.save_ms": per_job_ms("io.save"),
        "io.open_ms": per_job_ms("io.open"),
        "io.container_overhead_ratio": file_bytes
        / (totals.compressed.total / 8),
        "core.ratio.total": table8["Total"],
        "core.ratio.time": table8["T"],
        "core.ratio.edge": table8["E"],
        "core.ratio.distance": table8["D"],
        "core.ratio.flags": table8["T'"],
        "core.ratio.probability": table8["p"],
    }
    # the paper's baseline column, on the head of the same corpus
    corpus = workload.trajectories[:TED_TRAJECTORIES]
    ted = TEDCompressor(
        network=workload.network,
        default_interval=inputs.PROFILE.default_interval,
        eta_probability=inputs.PROFILE.default_eta_probability,
    )
    archives = []
    metrics["ted.compress.traj_us"] = (
        tracer.speed.timed(lambda: archives.append(ted.compress(corpus)))
        / len(corpus) * 1e6
    )
    metrics["ted.ratio.total"] = archives[0].stats.total_ratio
    return metrics


def stream_layers(workload, tracer) -> dict:
    def ms(name: str) -> float:
        return median(tracer.seconds(name)) * 1000

    merges = tracer.seconds("stream.compaction.run")
    live = workload.live
    loads = live.sidecar_hits + live.sidecar_misses + live.sidecar_stale
    frontier = workload.sessionizer.matcher.frontier_cache
    matcher = ProbabilisticMapMatcher(workload.network)
    feeds = workload.feeds[:MATCH_FEEDS]
    match_seconds = tracer.speed.timed(
        lambda: [matcher.match(feed) for feed in feeds]
    )
    return {
        "stream.ingest.fix_us": median(tracer.seconds("stream.ingest"))
        / workload.sizes["tick"] * 1e6,
        "mapmatching.match.point_us": match_seconds
        / sum(len(feed) for feed in feeds) * 1e6,
        "network.frontier.hit_ratio": frontier.hits
        / max(frontier.hits + frontier.misses, 1),
        "stream.writer.append_ms": ms("stream.writer.append"),
        "stream.writer.seal_ms": ms("stream.writer.seal"),
        # the mean: most calls find nothing to merge, and the median
        # would hide the few that do all the work
        "stream.compaction.run_ms": 1000 * sum(merges) / len(merges),
        "stream.compaction.write_amplification": (
            workload.daemon.stats.bytes_written / workload.bytes_sealed
        ),
        "stream.live.refresh_ms": ms("stream.live.refresh"),
        "stream.live.query_ms": ms("stream.live.query"),
        "stream.live.sidecar_hit_ratio": (
            live.sidecar_hits / loads if loads else 0.0
        ),
    }


# ----------------------------------------------------------------------
# bit I/O
# ----------------------------------------------------------------------
def bits_layers(seed: int, speed) -> dict:
    rng = random.Random(seed)
    widths = [rng.randint(1, 24) for _ in range(BITS_VALUES)]
    values = [rng.getrandbits(width) for width in widths]
    deviations = [
        int(rng.gauss(0, 3)) if rng.random() < 0.6 else 0
        for _ in range(BITS_VALUES)
    ]
    total_bits = sum(widths)
    write, read, codes = [], [], []
    for _ in range(3):
        writer = BitWriter()

        def write_all() -> None:
            for value, width in zip(values, widths):
                writer.write_uint(value, width)

        def read_all() -> None:
            reader = BitReader.from_writer(writer)
            if [reader.read_uint(width) for width in widths] != values:
                raise AssertionError("BitReader did not return what was written")

        def code_all() -> None:
            coded = expgolomb.encode_sequence(deviations)
            if expgolomb.decode_sequence(
                BitReader.from_writer(coded), len(deviations)
            ) != deviations:
                raise AssertionError("Exp-Golomb round trip changed a value")

        write.append(speed.timed(write_all))
        read.append(speed.timed(read_all))
        codes.append(speed.timed(code_all))
    return {
        "bits.write_mbit_s": total_bits / median(write) / 1e6,
        "bits.read_mbit_s": total_bits / median(read) / 1e6,
        "bits.expgolomb_codes_per_s": 2 * len(deviations) / median(codes),
    }


# ----------------------------------------------------------------------
# everything
# ----------------------------------------------------------------------
def measure(traced, log) -> tuple[dict, dict, int]:
    """Every per-layer metric except ``obs.tracing.overhead_pct``.

    ``traced`` is the workload of this run, set up and already run with
    tracing on.  Returns ``(metrics, notes, wrong_answers)``.
    """
    tracer, cleanup, seed = traced.tracer, traced.cleanup, traced.seed
    by_name = {traced.name: traced}
    failed = 0
    for name, cls in WORKLOADS.items():
        if name in by_name:
            continue
        companion = cls(
            seed, tracer, cleanup, MINI if traced.scale == FULL else traced.scale
        )
        companion.setup()
        run_round(companion, tracer)
        tracer.enabled = True
        for _ in range(COMPANION_ROUNDS):
            failed += run_round(companion, tracer).failed
        tracer.enabled = False
        by_name[name] = companion
        log(f"companion {name} at mini size: done")
    read_name = (
        traced.name
        if traced.name in ("wire-zipf-warm", "engine-uniform-cold")
        else "wire-zipf-warm"
    )
    # the traced workload's own server is not needed past its rounds,
    # and the staircase should not share the machine with it
    by_name["wire-zipf-warm"].release()
    metrics, wrong = read_stack(by_name[read_name], cleanup, tracer.speed)
    log(f"staircase over {read_name}: done")
    metrics.update(compress_layers(by_name["compress-batch"], tracer))
    metrics.update(stream_layers(by_name["stream-ingest-live"], tracer))
    metrics.update(bits_layers(seed, tracer.speed))
    notes = {
        "read_stack_fixture": read_name,
        "sizes": {name: w.sizes for name, w in by_name.items()},
        "staircase_passes": STAIRCASE_PASSES,
        "staircase_requests": len(by_name[read_name].requests),
    }
    for name, workload in by_name.items():
        if workload is not traced:
            workload.teardown()
    return metrics, notes, failed + wrong
