"""The TED baseline adapted to uncertain trajectories (§6.1).

"As this is the first study on the compression of uncertain trajectories,
we adapt the state-of-the-art work for the compression of accurate
trajectories, i.e., the TED framework, to compress each uncertain
trajectory instance while using the same [PDDP scheme] to compress
probability as our UTCQ.  We omit bitmap compression, as it is time
consuming and it is also applicable to UTCQ."

Per instance TED stores: the 32-bit start vertex, the edge sequence via
the dataset-wide matrix store (fixed-width codes, length-grouped
matrices, per-column width reduction), the *untrimmed* time-flag
bit-string raw (ratio 1, matching Table 8's TED T' column), PDDP
distances, and a PDDP probability.  The shared time sequence uses TED's
boundary-pair codec once per uncertain trajectory (the fair adaptation —
duplicating it per instance would only worsen TED).

Unlike UTCQ's one-trajectory-at-a-time streaming, TED buffers every edge
sequence before it can form matrices — the source of its memory
footprint in Fig. 6/7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bits import bitmap, expgolomb
from ..bits.bitio import BitReader, BitWriter, uint_width
from ..network.graph import RoadNetwork
from ..trajectories.model import TrajectoryInstance, UncertainTrajectory
from ..core.archive import CompressionStats
from ..core.decoder import read_probability
from ..core.encoder import START_VERTEX_BITS, write_probability
from ..core.improved_ted import InstanceTuple, decode_instance, encode_instance
from ..core.pddp import PddpDecoder, PddpEncoder
from . import time_codec
from .matrix import MatrixStore


@dataclass
class TedInstance:
    """One TED-compressed instance."""

    start_vertex: int
    group_key: int
    row_index: int
    payload: bytes  # T' + D + p stream
    payload_bits: int
    flags_bits: int
    distance_bits: int
    probability_bits: int
    probability: float  # decoded, for query processing
    point_count: int


@dataclass
class TedTrajectory:
    """One uncertain trajectory in a TED archive."""

    trajectory_id: int
    time_payload: bytes
    time_payload_bits: int
    point_count: int
    start_time: int
    end_time: int
    instances: list[TedInstance]


@dataclass
class TedArchive:
    """The TED baseline's compressed output."""

    eta_distance: float
    eta_probability: float
    symbol_width: int
    time_bits: int
    matrix_store: MatrixStore
    trajectories: list[TedTrajectory]
    stats: CompressionStats = field(default_factory=CompressionStats)
    use_bitmap: bool = False

    @property
    def trajectory_count(self) -> int:
        return len(self.trajectories)

    def trajectory(self, trajectory_id: int) -> TedTrajectory:
        for candidate in self.trajectories:
            if candidate.trajectory_id == trajectory_id:
                return candidate
        raise KeyError(f"no trajectory {trajectory_id} in the archive")


@dataclass
class TEDCompressor:
    """The baseline compressor (per-instance TED + shared-time adaptation)."""

    network: RoadNetwork
    default_interval: int  # unused by TED's codec; kept for a uniform API
    eta_distance: float = 1 / 128
    eta_probability: float = 1 / 512
    use_bitmap: bool = False  # the paper's comparison omits it

    def compress(self, trajectories: list[UncertainTrajectory]) -> TedArchive:
        symbol_width = uint_width(self.network.max_out_degree)
        max_time = max((t.end_time for t in trajectories), default=0)
        time_bits = max(17, uint_width(max_time))
        # Step 1 (the memory-heavy part): collect *all* edge sequences.
        store = MatrixStore(symbol_width)
        stats = CompressionStats()
        compressed: list[TedTrajectory] = []
        for trajectory in trajectories:
            compressed.append(
                self._compress_trajectory(
                    trajectory, store, stats, symbol_width, time_bits
                )
            )
        # Step 2: matrix (multiple-bases) compression over the whole store.
        stats.compressed.edge += store.serialized_size()
        archive = TedArchive(
            eta_distance=self.eta_distance,
            eta_probability=self.eta_probability,
            symbol_width=symbol_width,
            time_bits=time_bits,
            matrix_store=store,
            trajectories=compressed,
            stats=stats,
            use_bitmap=self.use_bitmap,
        )
        return archive

    def _compress_trajectory(
        self,
        trajectory: UncertainTrajectory,
        store: MatrixStore,
        stats: CompressionStats,
        symbol_width: int,
        time_bits: int,
    ) -> TedTrajectory:
        times = list(trajectory.times)
        time_writer = BitWriter()
        time_codec.encode(time_writer, times, time_bits=time_bits)
        stats.compressed.time += len(time_writer)
        stats.original.time += 32 * len(times)

        instances: list[TedInstance] = []
        for instance in trajectory.instances:
            encoded = encode_instance(self.network, instance)
            instances.append(
                self._compress_instance(encoded, store, stats)
            )
        stats.compressed.overhead += expgolomb.encoded_length(
            len(trajectory.instances)
        )
        return TedTrajectory(
            trajectory_id=trajectory.trajectory_id,
            time_payload=time_writer.getvalue(),
            time_payload_bits=len(time_writer),
            point_count=len(times),
            start_time=times[0],
            end_time=times[-1],
            instances=instances,
        )

    def _compress_instance(
        self,
        encoded: InstanceTuple,
        store: MatrixStore,
        stats: CompressionStats,
    ) -> TedInstance:
        group_key, row_index = store.add_sequence(encoded.edge_numbers)
        # start vertex + per-instance share of the matrix store accrues to E;
        # the matrix bits themselves are added archive-wide after grouping.
        stats.compressed.edge += START_VERTEX_BITS
        stats.original.edge += 32 * (len(encoded.edge_numbers) + 1)

        writer = BitWriter()
        if self.use_bitmap:
            bitmap_writer = bitmap.compress(list(encoded.time_flags))
            writer.extend(bitmap_writer)
        else:
            writer.write_bits(encoded.time_flags)  # untrimmed, raw: ratio 1
        flags_bits = len(writer)
        stats.compressed.flags += flags_bits
        stats.original.flags += len(encoded.time_flags)

        pddp = PddpEncoder(self.eta_distance)
        pddp.add_all(list(encoded.relative_distances))
        pddp.serialize(writer)
        distance_bits = len(writer) - flags_bits
        stats.compressed.distance += distance_bits
        stats.original.distance += 32 * len(encoded.relative_distances)

        probability_bits, probability = write_probability(
            writer, encoded.probability, self.eta_probability
        )
        stats.compressed.probability += probability_bits
        stats.original.probability += 32

        return TedInstance(
            start_vertex=encoded.start_vertex,
            group_key=group_key,
            row_index=row_index,
            payload=writer.getvalue(),
            payload_bits=len(writer),
            flags_bits=flags_bits,
            distance_bits=distance_bits,
            probability_bits=probability_bits,
            probability=probability,
            point_count=encoded.point_count,
        )


def decode_ted_times(archive: TedArchive, trajectory: TedTrajectory) -> list[int]:
    """Decode a trajectory's shared time sequence."""
    reader = BitReader(trajectory.time_payload, trajectory.time_payload_bits)
    return time_codec.decode(reader, time_bits=archive.time_bits)


def decode_ted_instance_tuple(
    archive: TedArchive, instance: TedInstance
) -> InstanceTuple:
    """Decode one TED instance back to an improved-TED tuple."""
    entries = archive.matrix_store.sequence(
        instance.group_key, instance.row_index
    )
    reader = BitReader(instance.payload, instance.payload_bits)
    if archive.use_bitmap:
        flags = tuple(bitmap.decompress(reader))
    else:
        flags = tuple(reader.read_bits(len(entries)))
    distances = tuple(PddpDecoder(reader, archive.eta_distance).values)
    probability = read_probability(reader, archive.eta_probability)
    return InstanceTuple(
        start_vertex=instance.start_vertex,
        edge_numbers=entries,
        relative_distances=distances,
        time_flags=flags,
        probability=probability,
    )


def decode_ted_trajectory(
    network: RoadNetwork, archive: TedArchive, trajectory: TedTrajectory
) -> UncertainTrajectory:
    """Fully decode one trajectory from a TED archive."""
    times = decode_ted_times(archive, trajectory)
    instances: list[TrajectoryInstance] = []
    total = 0.0
    for compressed in trajectory.instances:
        encoded = decode_ted_instance_tuple(archive, compressed)
        instances.append(decode_instance(network, encoded))
        total += encoded.probability
    if total > 0:
        for instance in instances:
            instance.probability /= total
    return UncertainTrajectory(trajectory.trajectory_id, instances, times)
