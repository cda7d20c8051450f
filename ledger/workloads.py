"""The four ledger workloads.

Each workload is an object the harness drives the same way::

    setup()                      # timed as setup_s; teardown() undoes it
    verify()                     # once: brute-force sample, [] when fine
    begin_round() / op(i) / end_round()   # one round = every op once
    stored_ratio()               # bytes on disk per raw byte

``op`` returns whether the program's output was correct.  Layer calls
inside an op sit in tracer spans named after the layer; with tracing
off a span is a no-op.  Names and sizes are fixed -- later issues cite
them.  ``MINI`` sizes exist only so that a traced run of one workload
can afford to measure the other three's layers as well, and ``TINY``
sizes only for the self-test; neither produces a benchmark number.
"""

from __future__ import annotations

import os
import random
import shutil

import inputs
from harness import ServerProcess, scratch_dir
from repro.core import decode_archive
from repro.core.decoder import DecodeSpanCache
from repro.io import FileBackedArchive
from repro.obs import counter as obs_counter
from repro.query import (
    BatchQueryEngine,
    StIUIndex,
    UTCQQueryProcessor,
    save_index,
)
from repro.query.sidecar import archive_fingerprint
from repro.serve import WireClient
from repro.stream import (
    AppendableArchiveWriter,
    CompactionDaemon,
    LiveArchive,
    TripSessionizer,
    compact,
)

FULL = "full"
MINI = "mini"
TINY = "tiny"

# what the writer itself counts as sealed, before any merge rewrites it
_BYTES_SEALED = obs_counter("repro_stream_bytes_sealed_total")


class Workload:
    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, tracer, cleanup, scale: str = FULL) -> None:
        self.seed = seed
        self.tracer = tracer
        self.cleanup = cleanup
        self.scale = scale
        self.sizes = dict(self.SIZES[scale])
        self.root = ""

    # -- lifecycle -----------------------------------------------------
    def setup(self) -> None:
        self.root = scratch_dir(self.name)
        self.cleanup.add(self.teardown)
        self._setup()

    def teardown(self) -> None:
        self.cleanup.discard(self.teardown)
        self.release()
        shutil.rmtree(self.root, ignore_errors=True)

    def _setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Close what ``_setup`` opened (files, sockets, the server)."""

    # -- rounds --------------------------------------------------------
    @property
    def ops_per_round(self) -> int:
        raise NotImplementedError

    def begin_round(self) -> None:
        pass

    def op(self, index: int) -> bool:
        raise NotImplementedError

    def end_round(self) -> int:
        """Checks that need the whole round; returns how many failed."""
        return 0

    def verify(self) -> list[str]:
        return []

    def stored_ratio(self) -> float:
        raise NotImplementedError


# ----------------------------------------------------------------------
# read side
# ----------------------------------------------------------------------
class _ReadWorkload(Workload):
    """What both read workloads share: a compressed CD dataset, request
    lists of 16 queries, the single-archive oracle, the brute sample."""

    BRUTE_SAMPLE_PER_KIND = 100

    def _build_dataset(self) -> None:
        self.network, self.trajectories = inputs.dataset(
            self.seed, self.sizes["trajectories"]
        )
        self.archive = inputs.compressor(self.network).compress(
            self.trajectories
        )
        # the oracle: one in-memory archive, one index built from it
        self.index = StIUIndex(self.network, self.archive)
        self.oracle = BatchQueryEngine(self.network, self.archive, self.index)
        self.raw_bytes = inputs.original_bytes(self.archive.stats)

    @property
    def ops_per_round(self) -> int:
        return len(self.requests)

    def verify(self) -> list[str]:
        rng = random.Random(self.seed)
        sample = [
            query
            for kind in inputs.KINDS
            for query in rng.sample(
                self.pools[kind],
                min(self.BRUTE_SAMPLE_PER_KIND, len(self.pools[kind])),
            )
        ]
        check = inputs.BruteCheck(
            self.network, self.trajectories, self.archive.params
        )
        return check.problems(sample, self.oracle.run(sample))

    def stored_ratio(self) -> float:
        return self.stored_bytes / self.raw_bytes


class WireZipfWarm(_ReadWorkload):
    """``repro serve`` over TCP; the working set fits the decode cache."""

    name = "wire-zipf-warm"
    SIZES = {
        FULL: dict(trajectories=2000, shards=4, distinct_per_kind=200,
                   requests=500),
        MINI: dict(trajectories=400, shards=4, distinct_per_kind=60,
                   requests=100),
        TINY: dict(trajectories=80, shards=2, distinct_per_kind=12,
                   requests=12),
    }
    client = None
    server = None

    def _setup(self) -> None:
        sizes = self.sizes
        self._build_dataset()
        self.shard_paths, self.stored_bytes = inputs.save_shards(
            self.network, self.archive, self.root, sizes["shards"]
        )
        rng = random.Random(self.seed)
        self.pools = inputs.query_pools(
            self.network, self.trajectories, sizes["distinct_per_kind"], rng
        )
        self.requests = inputs.zipf_requests(
            self.pools, sizes["requests"], rng
        )
        distinct = [q for kind in inputs.KINDS for q in self.pools[kind]]
        answers = dict(zip(distinct, self.oracle.run(distinct)))
        self.expected = [
            [answers[query] for query in request] for request in self.requests
        ]
        self.workers = min(2, os.cpu_count() or 1)
        self.server = ServerProcess(
            self.shard_paths,
            workers=self.workers,
            log_path=os.path.join(self.root, "serve.log"),
        )
        port = self.server.start()
        self.client = WireClient("127.0.0.1", port, seed=self.seed)
        self.client.connect()

    def release(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def op(self, index: int) -> bool:
        with self.tracer.span("serve.client.request"):
            result = self.client.request(self.requests[index])
        return result.results == self.expected[index]


class EngineUniformCold(_ReadWorkload):
    """``BatchQueryEngine`` in process; the archive is several times
    larger than the decode cache and no query repeats inside a round."""

    name = "engine-uniform-cold"
    SIZES = {
        FULL: dict(trajectories=4000, requests=300, oracle_every=5),
        MINI: dict(trajectories=1200, requests=60, oracle_every=5),
        TINY: dict(trajectories=80, requests=6, oracle_every=2),
    }
    served_archive = None

    def _setup(self) -> None:
        sizes = self.sizes
        self._build_dataset()
        self.archive_path = os.path.join(self.root, "archive.utcq")
        self.stored_bytes = inputs.save_with_sidecar(
            self.network, self.archive, self.archive_path, index=self.index
        )
        rng = random.Random(self.seed)
        self.pools = inputs.query_pools(
            self.network,
            self.trajectories,
            inputs.pool_size_for(sizes["requests"]),
            rng,
        )
        self.requests = inputs.uniform_requests(
            self.pools, sizes["requests"], rng
        )
        # The engine under test is this same class, so the oracle is
        # kept independent by construction instead: in-memory archive
        # and a freshly built index, against the file-backed archive and
        # the index loaded from the sidecar.  It answers every n-th
        # request; the others must repeat their first answer each round.
        self.expected: list = [None] * len(self.requests)
        for position in range(0, len(self.requests), sizes["oracle_every"]):
            self.expected[position] = self.oracle.run(self.requests[position])
        served = StIUIndex.over_file(self.network, self.archive_path)
        self.served_archive = served.archive
        self.cache = DecodeSpanCache()
        self.engine = BatchQueryEngine(
            self.network, served.archive, served, cache=self.cache
        )

    def release(self) -> None:
        if self.served_archive is not None:
            self.served_archive.close()
            self.served_archive = None

    def op(self, index: int) -> bool:
        with self.tracer.span("query.batch.request"):
            answers = self.engine.run(self.requests[index])
        if self.expected[index] is None:
            self.expected[index] = answers
        return answers == self.expected[index]


# ----------------------------------------------------------------------
# write side
# ----------------------------------------------------------------------
class CompressBatch(Workload):
    """The paper's pipeline plus the index build, one job of 50
    trajectories at a time, from matched input to a verified file."""

    name = "compress-batch"
    SIZES = {
        FULL: dict(trajectories=2000, job=50),
        MINI: dict(trajectories=300, job=50),
        TINY: dict(trajectories=60, job=20),
    }

    def _setup(self) -> None:
        sizes = self.sizes
        self.network, self.trajectories = inputs.dataset(
            self.seed, sizes["trajectories"]
        )
        self.jobs = [
            self.trajectories[start:start + sizes["job"]]
            for start in range(0, len(self.trajectories), sizes["job"])
        ]
        self.compressor = inputs.compressor(self.network)
        self.provenance = inputs.provenance()
        self.digests: list = [None] * len(self.jobs)
        self.job_stats: list = [None] * len(self.jobs)

    @property
    def ops_per_round(self) -> int:
        return len(self.jobs)

    def job_path(self, index: int) -> str:
        return os.path.join(self.root, f"job-{index}.utcq")

    def op(self, index: int) -> bool:
        span = self.tracer.span
        job = self.jobs[index]
        path = self.job_path(index)
        with span("core.compress"):
            archive = self.compressor.compress(job)
        with span("io.save"):
            archive.save(path, provenance=self.provenance)
        with span("query.stiu.build"):
            index_built = StIUIndex(self.network, archive)
        with span("query.sidecar.save"):
            save_index(index_built, path)
        with span("io.open"):
            on_disk = FileBackedArchive.open(path)
        try:
            with span("core.decode"):
                decoded = decode_archive(self.network, on_disk)
            params = on_disk.params
        finally:
            on_disk.close()
        with span("ledger.verify"):
            self.job_stats[index] = archive.stats
            digest = archive_fingerprint(path)
            if self.digests[index] is None:
                self.digests[index] = digest
            return digest == self.digests[index] and self._lossless(
                job, decoded, params
            )

    def _lossless(self, originals, decoded, params) -> bool:
        """The paper's guarantee: edge sequences and timestamps come
        back identical, distances and probabilities within eta."""
        network = self.network
        if len(decoded) != len(originals):
            return False
        for original, restored in zip(originals, decoded):
            if (
                restored.trajectory_id != original.trajectory_id
                or list(restored.times) != list(original.times)
                or len(restored.instances) != len(original.instances)
            ):
                return False
            slack = (len(original.instances) + 1) * params.eta_probability
            for ours, theirs in zip(original.instances, restored.instances):
                if theirs.path != ours.path:
                    return False
                if abs(theirs.probability - ours.probability) > slack:
                    return False
                for a, b in zip(
                    ours.relative_distances(network),
                    theirs.relative_distances(network),
                ):
                    if abs(a - b) > params.eta_distance + 1e-9:
                        return False
        return True

    def stored_ratio(self) -> float:
        stored = sum(
            inputs.stored_bytes(self.job_path(index))
            for index in range(len(self.jobs))
        )
        raw = sum(inputs.original_bytes(stats) for stats in self.job_stats)
        return stored / raw


class StreamIngestLive(Workload):
    """Raw GPS in, sealed segments out, queries served meanwhile: one
    tick ingests 16 fixes and answers 4 where queries on sealed trips."""

    name = "stream-ingest-live"
    SIZES = {
        FULL: dict(vehicles=240, tick=16, segment=16, reads=4, evict=64),
        MINI: dict(vehicles=60, tick=16, segment=16, reads=4, evict=64),
        TINY: dict(vehicles=24, tick=16, segment=4, reads=4, evict=32),
    }
    live = None

    def _setup(self) -> None:
        sizes = self.sizes
        self.network = inputs.network()
        self.feeds, self.ticks = inputs.tick_feed(
            self.network, self.seed, sizes["vehicles"], sizes["tick"]
        )
        self.fixes = sum(len(tick) for tick in self.ticks)
        self.rounds_begun = 0
        self.final_digest = None
        self.directory = ""

    def release(self) -> None:
        if self.live is not None and not self.live.closed:
            self.live.close()

    @property
    def ops_per_round(self) -> int:
        return len(self.ticks)

    def begin_round(self) -> None:
        sizes = self.sizes
        if self.directory:
            shutil.rmtree(self.directory, ignore_errors=True)
        self.rounds_begun += 1
        self.directory = os.path.join(self.root, f"round-{self.rounds_begun}")
        # idle vehicles are swept every `evict` fixes instead of the
        # default 1,024, so trips seal all through a round of ~3k fixes
        self.sessionizer = TripSessionizer(
            self.network, evict_interval=sizes["evict"]
        )
        self.writer = AppendableArchiveWriter(
            self.directory,
            self.network,
            default_interval=inputs.PROFILE.default_interval,
            eta_probability=inputs.PROFILE.default_eta_probability,
            segment_max_trajectories=sizes["segment"],
            provenance=inputs.provenance(),
        )
        # merges run inline, on the tick that rotated a segment, so
        # that every round does the same work in the same order
        self.daemon = CompactionDaemon(self.writer)
        self.live = LiveArchive(self.directory)
        self.read_rng = random.Random(self.seed)
        self.live_answers: list = []
        self._sealed_before = _BYTES_SEALED.value

    def _append(self, trip) -> None:
        sealing = (
            self.writer.pending_count + 1 >= self.sizes["segment"]
        )
        name = "stream.writer.seal" if sealing else "stream.writer.append"
        with self.tracer.span(name):
            self.writer.append(trip)

    def op(self, index: int) -> bool:
        span = self.tracer.span
        trips = []
        with span("stream.ingest"):
            for vehicle, fix in self.ticks[index]:
                trips.extend(self.sessionizer.observe(vehicle, fix))
        segments = self.writer.segment_count
        for trip in trips:
            self._append(trip)
        if self.writer.segment_count != segments:
            with span("stream.compaction.run"):
                self.daemon.run_once()
        with span("stream.live.refresh"):
            self.live.refresh()
            processor = (
                self.live.query_processor(self.network)
                if self.live.trajectory_count
                else None
            )
        if processor is not None:
            sealed = self.live.trajectory_ids()
            for _ in range(self.sizes["reads"]):
                trajectory_id = self.read_rng.choice(sealed)
                trip = self.live.trajectory(trajectory_id)
                t = (trip.start_time + trip.end_time) // 2
                with span("stream.live.query"):
                    answer = processor.where(trajectory_id, t, inputs.ALPHA)
                self.live_answers.append((trajectory_id, t, answer))
        return True

    def end_round(self) -> int:
        """Seal what is left, merge everything into one archive, and
        hold every answer given mid-ingestion against that archive."""
        for trip in self.sessionizer.flush():
            self._append(trip)
        self.writer.close()
        self.daemon.run_once()
        self.live.close()
        self.stored_bytes = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(self.directory)
            for name in names
        )
        self.raw_bytes = inputs.original_bytes(self.writer.stats)
        self.bytes_sealed = _BYTES_SEALED.value - self._sealed_before
        final = os.path.join(self.root, "final.utcq")
        compact(self.directory, final, network=self.network)
        digest = archive_fingerprint(final)
        if self.final_digest is None:
            self.final_digest = digest
        failed = int(digest != self.final_digest)
        index = StIUIndex.over_file(self.network, final)
        try:
            processor = UTCQQueryProcessor(self.network, index.archive, index)
            for trajectory_id, t, answer in self.live_answers:
                failed += processor.where(
                    trajectory_id, t, inputs.ALPHA
                ) != answer
        finally:
            index.archive.close()
        return failed

    def stored_ratio(self) -> float:
        return self.stored_bytes / self.raw_bytes


WORKLOADS = {
    cls.name: cls
    for cls in (WireZipfWarm, EngineUniformCold, CompressBatch, StreamIngestLive)
}
