"""Decompression: full archives, single instances, and partial streams.

The query processor (§5) never calls ``decode_archive`` — it uses the
partial entry points (time prefixes, single references, factor streams)
together with the StIU index.  Full decoding exists for round-trip
verification and for consumers who want the data back.

:class:`DecodeSpanCache` sits between the query layer and these entry
points: a bounded LRU of decoded spans (time sequences, reference
tuples, materialized instances, chainage tables) keyed by trajectory or
instance, so repeated probes of a hot trajectory cost O(span) instead
of a full re-decode.  One cache can be shared by several query
processors over the same archive + network (e.g. through a
:class:`~repro.stream.live.LiveArchive` while ingestion continues).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, NamedTuple

from ..config import env_int
from ..bits import expgolomb
from ..bits.bitio import BitReader, uint_width
from ..obs import metrics as obs_metrics
from ..network.graph import RoadNetwork
from ..trajectories.model import TrajectoryInstance, UncertainTrajectory
from . import siar
from .archive import (
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
    CompressionParams,
)
from .factors import (
    EdgeFactor,
    apply_distance_patches,
    apply_edge_factors,
    read_distance_patches,
    read_edge_factors,
    read_flag_stream,
)
from .improved_ted import InstanceTuple, decode_instance, restore_time_flags
from .pddp import PddpDecoder, decode_fraction, max_code_length


def _read_probability(reader: BitReader, eta: float) -> float:
    code_length = reader.read_uint(uint_width(max_code_length(eta)))
    return decode_fraction(reader.read_bits(code_length))


def decode_times(
    trajectory: CompressedTrajectory, params: CompressionParams
) -> list[int]:
    """Decode the full shared time sequence of a trajectory."""
    reader = BitReader(trajectory.time_payload, trajectory.time_payload_bits)
    return siar.decode(
        reader, params.default_interval, t0_bits=params.t0_bits
    )


def decode_times_prefix(
    trajectory: CompressedTrajectory,
    params: CompressionParams,
    stop_after: int,
) -> list[int]:
    """Decode only the first ``stop_after`` timestamps (partial)."""
    reader = BitReader(trajectory.time_payload, trajectory.time_payload_bits)
    return siar.decode_prefix(
        reader,
        params.default_interval,
        t0_bits=params.t0_bits,
        stop_after=stop_after,
    )


def _read_reference_edges(
    reader: BitReader, symbol_width: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``E`` and the full ``T'`` from the head of a reference payload."""
    entry_count = expgolomb.decode_unsigned(reader)
    edge_numbers = tuple(
        reader.read_uint(symbol_width) for _ in range(entry_count)
    )
    trimmed = reader.read_bits(max(entry_count - 2, 0))
    return edge_numbers, restore_time_flags(trimmed)


def decode_reference_tuple(
    instance: CompressedInstance, params: CompressionParams
) -> InstanceTuple:
    """Decode a reference payload back into an improved-TED tuple."""
    if not instance.is_reference:
        raise ValueError("decode_reference_tuple expects a reference")
    reader = BitReader(instance.payload, instance.payload_bits)
    edge_numbers, flags = _read_reference_edges(reader, params.symbol_width)
    distances = tuple(PddpDecoder(reader, params.eta_distance).values)
    probability = _read_probability(reader, params.eta_probability)
    return InstanceTuple(
        start_vertex=instance.start_vertex,
        edge_numbers=edge_numbers,
        relative_distances=distances,
        time_flags=flags,
        probability=probability,
    )


def decode_non_reference_tuple(
    instance: CompressedInstance,
    reference: InstanceTuple,
    params: CompressionParams,
) -> InstanceTuple:
    """Decode a non-reference payload against its decoded reference."""
    if instance.is_reference:
        raise ValueError("decode_non_reference_tuple expects a non-reference")
    reader = BitReader(instance.payload, instance.payload_bits)
    reader.seek(instance.edge_offset)  # skip the reference index
    factors = read_edge_factors(
        reader, len(reference.edge_numbers), params.symbol_width
    )
    edge_numbers = tuple(apply_edge_factors(factors, reference.edge_numbers))
    trimmed = read_flag_stream(
        reader,
        list(reference.trimmed_time_flags),
        max(len(edge_numbers) - 2, 0),
    )
    flags = restore_time_flags(trimmed)
    patches = read_distance_patches(
        reader, len(reference.relative_distances), params.eta_distance
    )
    distances = tuple(
        apply_distance_patches(list(reference.relative_distances), patches)
    )
    probability = _read_probability(reader, params.eta_probability)
    return InstanceTuple(
        start_vertex=reference.start_vertex,
        edge_numbers=edge_numbers,
        relative_distances=distances,
        time_flags=flags,
        probability=probability,
    )


def decode_trajectory_tuples(
    trajectory: CompressedTrajectory, params: CompressionParams
) -> list[InstanceTuple]:
    """Decode every instance of one trajectory to improved-TED tuples."""
    references: dict[int, InstanceTuple] = {}
    for instance in trajectory.instances:
        if instance.is_reference:
            references[instance.reference_ordinal] = decode_reference_tuple(
                instance, params
            )
    tuples: list[InstanceTuple] = []
    for instance in trajectory.instances:
        if instance.is_reference:
            tuples.append(references[instance.reference_ordinal])
        else:
            tuples.append(
                decode_non_reference_tuple(
                    instance, references[instance.reference_ordinal], params
                )
            )
    return tuples


class InstanceEdges(NamedTuple):
    """The edge side of one instance, as :func:`decode_trajectory_edges`
    returns it: ``time_flags`` (full ``T'``) for references only,
    ``factors`` (the E factor stream) for non-references only."""

    start_vertex: int
    edge_numbers: tuple[int, ...]
    time_flags: tuple[int, ...] | None
    factors: list[EdgeFactor] | None


def decode_trajectory_edges(
    trajectory: CompressedTrajectory, params: CompressionParams
) -> list[InstanceEdges]:
    """Decode only what the StIU build reads (§5.2): ``E`` of every
    instance, ``T'`` of references and the E factor stream of
    non-references.  Distances, patches and probabilities are left
    undecoded; the index takes their positions and values from the
    fields already recorded on each :class:`CompressedInstance`."""
    references: dict[int, InstanceEdges] = {}
    for instance in trajectory.instances:
        if instance.is_reference:
            reader = BitReader(instance.payload, instance.payload_bits)
            edge_numbers, flags = _read_reference_edges(
                reader, params.symbol_width
            )
            references[instance.reference_ordinal] = InstanceEdges(
                instance.start_vertex, edge_numbers, flags, None
            )
    edges: list[InstanceEdges] = []
    for instance in trajectory.instances:
        reference = references[instance.reference_ordinal]
        if instance.is_reference:
            edges.append(reference)
            continue
        reader = BitReader(instance.payload, instance.payload_bits)
        reader.seek(instance.edge_offset)  # skip the reference index
        factors = read_edge_factors(
            reader, len(reference.edge_numbers), params.symbol_width
        )
        edges.append(
            InstanceEdges(
                reference.start_vertex,
                tuple(apply_edge_factors(factors, reference.edge_numbers)),
                None,
                factors,
            )
        )
    return edges


def decode_trajectory(
    network: RoadNetwork,
    trajectory: CompressedTrajectory,
    params: CompressionParams,
) -> UncertainTrajectory:
    """Fully decode one compressed uncertain trajectory."""
    times = decode_times(trajectory, params)
    instances: list[TrajectoryInstance] = []
    total_probability = 0.0
    for encoded in decode_trajectory_tuples(trajectory, params):
        instances.append(decode_instance(network, encoded))
        total_probability += encoded.probability
    # PDDP probability coding is lossy; renormalize so the model invariant
    # (probabilities sum to one) holds after decoding.
    if total_probability > 0:
        for instance in instances:
            instance.probability /= total_probability
    return UncertainTrajectory(
        trajectory.trajectory_id, instances, times
    )


def decode_archive(
    network: RoadNetwork, archive: CompressedArchive
) -> list[UncertainTrajectory]:
    """Fully decode an archive (verification / export path)."""
    return [
        decode_trajectory(network, trajectory, archive.params)
        for trajectory in archive.trajectories
    ]


#: "use the environment / built-in default" — distinct from None, which
#: means an explicitly unbounded section
_UNSET = object()

DEFAULT_TRAJECTORY_CAPACITY = 1024
_DEFAULT_INSTANCE_CAPACITY = 8192


def _env_capacity(name: str, default: int) -> int:
    return env_int(name, default, minimum=0)


def resolve_trajectory_capacity(explicit=_UNSET) -> int | None:
    """Per-trajectory section capacity: explicit argument (``None`` =
    unbounded) > ``REPRO_DECODE_CACHE_TRAJECTORIES`` > 1024."""
    if explicit is not _UNSET:
        return explicit
    return _env_capacity(
        "REPRO_DECODE_CACHE_TRAJECTORIES", DEFAULT_TRAJECTORY_CAPACITY
    )


def resolve_instance_capacity(explicit=_UNSET) -> int | None:
    """Per-instance section capacity: explicit argument (``None`` =
    unbounded) > ``REPRO_DECODE_CACHE_INSTANCES`` > 8192."""
    if explicit is not _UNSET:
        return explicit
    return _env_capacity(
        "REPRO_DECODE_CACHE_INSTANCES", _DEFAULT_INSTANCE_CAPACITY
    )


class _LruSection:
    """One bounded LRU map inside a :class:`DecodeSpanCache`.

    ``capacity`` of ``None`` means unbounded; ``0`` disables the section
    entirely (every lookup misses — reachable through
    ``REPRO_DECODE_CACHE_TRAJECTORIES=0`` / ``..._INSTANCES=0``).
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int | None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


class DecodeSpanCache:
    """Shared, bounded LRU of decoded trajectory spans.

    Four sections, sized independently:

    * ``times`` — full SIAR time sequences, keyed by trajectory id;
    * ``references`` — decoded reference tuples, keyed by
      ``(trajectory_id, reference_ordinal)``;
    * ``instances`` — materialized :class:`TrajectoryInstance` objects,
      keyed by ``(trajectory_id, instance_index)``;
    * ``chainages`` — cumulative-length chainage tables over those
      instances (network-dependent: share a cache only across
      processors using the same road network).

    Thread-safe: lookups take a lock around LRU mutation only; the
    decode itself (the ``factory``) runs unlocked, so concurrent misses
    on the same key may decode twice and harmlessly overwrite each
    other with equal values.
    """

    _SECTION_NAMES = ("times", "references", "instances", "chainages")

    def __init__(
        self,
        *,
        trajectory_capacity: int | None = _UNSET,
        instance_capacity: int | None = _UNSET,
        register: bool = True,
    ) -> None:
        # capacities resolve explicit > REPRO_DECODE_CACHE_* env > the
        # built-in defaults, so cache-size sweeps need no code changes
        self.trajectory_capacity = resolve_trajectory_capacity(
            trajectory_capacity
        )
        self.instance_capacity = resolve_instance_capacity(instance_capacity)
        self.times = _LruSection(self.trajectory_capacity)
        self.references = _LruSection(self.instance_capacity)
        self.instances = _LruSection(self.instance_capacity)
        self.chainages = _LruSection(self.instance_capacity)
        self._lock = threading.Lock()
        if register:
            # weak-ref collector: the registry asks this cache for its
            # counters at scrape time only, so the ~100k-lookups/s hot
            # path never touches a registry lock
            obs_metrics.get_registry().register_collector(self)

    def _lookup(self, section: _LruSection, key, factory: Callable):
        with self._lock:
            value = section.get(key)
        if value is not None:
            return value
        value = factory()
        with self._lock:
            section.put(key, value)
        return value

    def times_for(self, trajectory_id: int, factory: Callable):
        return self._lookup(self.times, trajectory_id, factory)

    def reference_for(
        self, trajectory_id: int, ordinal: int, factory: Callable
    ):
        return self._lookup(
            self.references, (trajectory_id, ordinal), factory
        )

    def instance_for(self, trajectory_id: int, index: int, factory: Callable):
        return self._lookup(self.instances, (trajectory_id, index), factory)

    def chainage_for(self, trajectory_id: int, index: int, factory: Callable):
        return self._lookup(self.chainages, (trajectory_id, index), factory)

    def clear(self) -> None:
        with self._lock:
            for section in (
                self.times, self.references, self.instances, self.chainages
            ):
                section.clear()

    def _sections(self):
        return tuple(
            (name, getattr(self, name)) for name in self._SECTION_NAMES
        )

    def stats(self) -> dict[str, dict[str, int]]:
        """A consistent hit/miss/eviction/resident snapshot per section.

        All four sections are read under the one cache lock, so the
        numbers are from a single instant even while other threads keep
        querying — no torn hits-without-their-misses reads.
        """
        with self._lock:
            return {
                name: {
                    "hits": section.hits,
                    "misses": section.misses,
                    "evictions": section.evictions,
                    "resident": len(section),
                }
                for name, section in self._sections()
            }

    def collect_metrics(self):
        """Registry-collector view of :meth:`stats` (see
        :meth:`repro.obs.metrics.MetricsRegistry.register_collector`)."""
        for name, counts in self.stats().items():
            labels = {"section": name}
            yield (
                "counter", "repro_decode_cache_hits_total", labels,
                {"value": float(counts["hits"])},
            )
            yield (
                "counter", "repro_decode_cache_misses_total", labels,
                {"value": float(counts["misses"])},
            )
            yield (
                "counter", "repro_decode_cache_evictions_total", labels,
                {"value": float(counts["evictions"])},
            )
            yield (
                "gauge", "repro_decode_cache_resident", labels,
                {"value": float(counts["resident"])},
            )


def decode_instance_by_index(
    network: RoadNetwork,
    trajectory: CompressedTrajectory,
    params: CompressionParams,
    index: int,
) -> TrajectoryInstance:
    """Decode a single instance, touching at most one reference payload.

    This is the "partial decompression" granularity queries rely on: a
    non-reference costs its own payload plus its reference's, never the
    whole trajectory.
    """
    target = trajectory.instances[index]
    if target.is_reference:
        return decode_instance(network, decode_reference_tuple(target, params))
    reference = decode_reference_tuple(
        trajectory.reference_by_ordinal(target.reference_ordinal), params
    )
    return decode_instance(
        network, decode_non_reference_tuple(target, reference, params)
    )
