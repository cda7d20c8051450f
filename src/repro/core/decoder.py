"""Decompression: full archives, single instances, and the edge side.

The query processor (§5) never calls ``decode_archive``: it decodes one
trajectory's whole time stream and one instance at a time (a
non-reference against its decoded reference), each from the start of
its payload, and the StIU spatial derive decodes only the edge side of
a trajectory.  No stream is resumed partway, so no bit offset is kept.
Full decoding exists for round-trip verification and for consumers who
want the data back.

:class:`DecodeSpanCache` sits between the query layer and these entry
points: one LRU, budgeted in bytes, of parsed records and decoded spans
(time sequences, reference tuples, materialized instances, chainage
tables) keyed by trajectory or instance, so repeated probes of a hot
trajectory cost O(span) instead of a re-parse and a re-decode.  One
cache can be shared by several query processors over the same archive +
network (e.g. through a :class:`~repro.stream.live.LiveArchive` while
ingestion continues).
"""

from __future__ import annotations

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
    DECODE_FAILURES,
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
    CompressionParams,
    CorruptPayloadError,
    reference_index_width,
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
from .pddp import PddpDecoder, max_code_length, read_fraction


def read_probability(reader: BitReader, eta: float) -> float:
    """Inverse of :func:`~repro.core.encoder.write_probability`."""
    return read_fraction(reader, uint_width(max_code_length(eta)))


def decode_times(
    trajectory: CompressedTrajectory, params: CompressionParams
) -> list[int]:
    """Decode the full shared time sequence of a trajectory."""
    reader = BitReader(trajectory.time_payload, trajectory.time_payload_bits)
    try:
        return siar.decode(
            reader, params.default_interval, t0_bits=params.t0_bits
        )
    except DECODE_FAILURES as error:
        raise CorruptPayloadError.wrapping(error) from error


def _read_reference_edges(
    reader: BitReader, symbol_width: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``E`` and the full ``T'`` from the head of a reference payload.

    The fixed-width ``E`` row is read with one ``read_uint`` and split,
    as the writer packs it into one push."""
    entry_count = expgolomb.decode_unsigned(reader)
    row = reader.read_uint(symbol_width * entry_count)
    mask = (1 << symbol_width) - 1
    edge_numbers = tuple(
        (row >> shift) & mask
        for shift in range(symbol_width * (entry_count - 1), -1, -symbol_width)
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
    try:
        edge_numbers, flags = _read_reference_edges(
            reader, params.symbol_width
        )
        distances = tuple(PddpDecoder(reader, params.eta_distance).values)
        probability = read_probability(reader, params.eta_probability)
        return InstanceTuple(
            start_vertex=instance.start_vertex,
            edge_numbers=edge_numbers,
            relative_distances=distances,
            time_flags=flags,
            probability=probability,
        )
    except DECODE_FAILURES as error:
        raise CorruptPayloadError.wrapping(error) from error


def decode_non_reference_tuple(
    instance: CompressedInstance,
    reference: InstanceTuple,
    params: CompressionParams,
    reference_count: int,
) -> InstanceTuple:
    """Decode a non-reference payload against its decoded reference;
    ``reference_count`` (the trajectory's) sizes the reference index
    the payload opens with."""
    if instance.is_reference:
        raise ValueError("decode_non_reference_tuple expects a non-reference")
    reader = BitReader(instance.payload, instance.payload_bits)
    try:
        reader.seek(reference_index_width(reference_count))
        factors = read_edge_factors(
            reader, len(reference.edge_numbers), params.symbol_width
        )
        edge_numbers = tuple(
            apply_edge_factors(factors, reference.edge_numbers)
        )
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
        probability = read_probability(reader, params.eta_probability)
        return InstanceTuple(
            start_vertex=reference.start_vertex,
            edge_numbers=edge_numbers,
            relative_distances=distances,
            time_flags=flags,
            probability=probability,
        )
    except DECODE_FAILURES as error:
        raise CorruptPayloadError.wrapping(error) from error


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
    reference_count = trajectory.reference_count
    tuples: list[InstanceTuple] = []
    for instance in trajectory.instances:
        if instance.is_reference:
            tuples.append(references[instance.reference_ordinal])
        else:
            tuples.append(
                decode_non_reference_tuple(
                    instance,
                    references[instance.reference_ordinal],
                    params,
                    reference_count,
                )
            )
    return tuples


class InstanceEdges(NamedTuple):
    """The edge side of one instance, as :func:`decode_trajectory_edges`
    returns it: ``factors`` (the E factor stream) for non-references
    only."""

    start_vertex: int
    edge_numbers: tuple[int, ...]
    factors: list[EdgeFactor] | None


def decode_trajectory_edges(
    trajectory: CompressedTrajectory, params: CompressionParams
) -> list[InstanceEdges]:
    """Decode only what the StIU spatial derive reads (§5.2): ``E`` of
    every instance and the E factor stream of non-references.  A
    reference's ``T'`` is read too, and must hold one bit per E entry
    and mark one location per timestamp, as a full decode requires
    (:class:`~repro.core.improved_ted.InstanceTuple`, the model's
    :class:`~repro.trajectories.model.UncertainTrajectory`); distances,
    patches and probabilities are left undecoded.  A payload that fails
    either raises :class:`CorruptPayloadError`, so a damaged trajectory
    is never derived as one that enters no region."""
    try:
        references: dict[int, InstanceEdges] = {}
        for instance in trajectory.instances:
            if instance.is_reference:
                reader = BitReader(instance.payload, instance.payload_bits)
                edge_numbers, flags = _read_reference_edges(
                    reader, params.symbol_width
                )
                marked = sum(flags)
                if (
                    len(flags) != len(edge_numbers)
                    or marked != trajectory.point_count
                ):
                    raise ValueError(
                        f"T' of reference {instance.reference_ordinal} marks "
                        f"{marked} locations on {len(edge_numbers)} E "
                        f"entries for {trajectory.point_count} timestamps"
                    )
                references[instance.reference_ordinal] = InstanceEdges(
                    instance.start_vertex, edge_numbers, None
                )
        index_width = reference_index_width(trajectory.reference_count)
        edges: list[InstanceEdges] = []
        for instance in trajectory.instances:
            reference = references[instance.reference_ordinal]
            if instance.is_reference:
                edges.append(reference)
                continue
            reader = BitReader(instance.payload, instance.payload_bits)
            reader.seek(index_width)
            factors = read_edge_factors(
                reader, len(reference.edge_numbers), params.symbol_width
            )
            edges.append(
                InstanceEdges(
                    reference.start_vertex,
                    tuple(apply_edge_factors(factors, reference.edge_numbers)),
                    factors,
                )
            )
    except DECODE_FAILURES as error:
        raise CorruptPayloadError.wrapping(error) from error
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
    try:
        return UncertainTrajectory(
            trajectory.trajectory_id, instances, times
        )
    except ValueError as error:  # times and instances disagree
        raise CorruptPayloadError.wrapping(error) from error


def decode_archive(
    network: RoadNetwork, archive: CompressedArchive
) -> list[UncertainTrajectory]:
    """Fully decode an archive (verification / export path)."""
    return [
        decode_trajectory(network, trajectory, archive.params)
        for trajectory in archive.trajectories
    ]


#: The decode cache's budget in charged bytes: what the entry caps it
#: replaced (1,024 trajectories, 8,192 instances per section) held at
#: the entry sizes of ``engine-uniform-cold``, rounded up; the
#: derivation is in docs/architecture.md ("Decode cache").
DECODE_CACHE_BYTES = 32 << 20


def configured_budget_bytes() -> int:
    """``REPRO_DECODE_CACHE_BYTES``, else :data:`DECODE_CACHE_BYTES`."""
    return env_int("REPRO_DECODE_CACHE_BYTES", DECODE_CACHE_BYTES, minimum=0)


class _Section:
    """The counters of one kind of cached value, and what an entry of
    that kind is charged: ``base + per_element * elements(value)``."""

    __slots__ = (
        "name", "base", "per_element", "elements",
        "hits", "misses", "evictions", "resident", "bytes",
    )

    def __init__(self, name: str, base: int, per_element: int, elements):
        self.name = name
        self.base = base
        self.per_element = per_element
        self.elements = elements
        self.hits = self.misses = self.evictions = 0
        self.resident = self.bytes = 0

    def charge(self, value) -> int:
        return self.base + self.per_element * self.elements(value)


# name, bytes per entry, bytes per element, what an element is: the
# retained bytes tracemalloc measures per entry on the CD profile, the
# cache's own bookkeeping included (tests/test_decode_cache.py holds
# every section's charge within 0.5-2x of that measurement)
_SECTIONS = (
    ("records", 720, 165, lambda record: len(record.instances)),
    ("times", 400, 42, len),
    ("references", 620, 20, lambda encoded: len(encoded.edge_numbers)),
    ("instances", 540, 94, lambda i: len(i.path) + len(i.locations)),
    ("chainages", 530, 33, lambda c: len(c.path) + len(c.location_chainages)),
)


class DecodeSpanCache:
    """Shared LRU of parsed records and decoded spans, budgeted in bytes.

    Five sections share one recency order and one budget:

    * ``records`` — parsed :class:`CompressedTrajectory` records, keyed
      by trajectory id;
    * ``times`` — full SIAR time sequences, keyed by trajectory id;
    * ``references`` — decoded reference tuples, keyed by
      ``(trajectory_id, reference_ordinal)``;
    * ``instances`` — materialized :class:`TrajectoryInstance` objects,
      keyed by ``(trajectory_id, instance_index)``;
    * ``chainages`` — cumulative-length chainage tables over those
      instances (network-dependent: share a cache only across
      processors using the same road network).

    An entry is charged once, when it is stored, by its section's
    estimate; the least recently used entries of any section leave
    until the charged total fits ``budget_bytes`` again (``None``:
    ``REPRO_DECODE_CACHE_BYTES``, else :data:`DECODE_CACHE_BYTES`).
    A budget of 0 memoizes nothing.

    Thread-safe: lookups take a lock around the LRU only; the decode
    itself (the ``factory``) runs unlocked, so concurrent misses on the
    same key may decode twice — the first value stored is kept, and
    every caller gets it.
    """

    def __init__(
        self, *, budget_bytes: int | None = None, register: bool = True
    ) -> None:
        if budget_bytes is None:
            budget_bytes = configured_budget_bytes()
        if budget_bytes < 0:
            raise ValueError(f"budget_bytes must be >= 0, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.resident_bytes = 0
        self._sections = {spec[0]: _Section(*spec) for spec in _SECTIONS}
        (
            self._records, self._times, self._references,
            self._instances, self._chainages,
        ) = self._sections.values()
        # (section name, key) -> (value, charge, section), oldest first
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        if register:
            # weak-ref collector: the registry asks this cache for its
            # counters at scrape time only, so the ~100k-lookups/s hot
            # path never touches a registry lock
            obs_metrics.get_registry().register_collector(self)

    def _lookup(self, section: _Section, key, factory: Callable):
        slot = (section.name, key)
        entries = self._entries
        with self._lock:
            entry = entries.get(slot)
            if entry is not None:
                entries.move_to_end(slot)
                section.hits += 1
                return entry[0]
            section.misses += 1
        value = factory()
        charge = section.charge(value)
        if charge > self.budget_bytes:
            return value
        with self._lock:
            entry = entries.get(slot)
            if entry is not None:  # a concurrent miss stored it first
                entries.move_to_end(slot)
                return entry[0]
            entries[slot] = (value, charge, section)
            section.resident += 1
            section.bytes += charge
            self.resident_bytes += charge
            while self.resident_bytes > self.budget_bytes:
                _, (_, freed, owner) = entries.popitem(last=False)
                owner.resident -= 1
                owner.bytes -= freed
                owner.evictions += 1
                self.resident_bytes -= freed
        return value

    def record_for(self, trajectory_id: int, factory: Callable):
        return self._lookup(self._records, trajectory_id, factory)

    def times_for(self, trajectory_id: int, factory: Callable):
        return self._lookup(self._times, trajectory_id, factory)

    def reference_for(
        self, trajectory_id: int, ordinal: int, factory: Callable
    ):
        return self._lookup(
            self._references, (trajectory_id, ordinal), factory
        )

    def instance_for(self, trajectory_id: int, index: int, factory: Callable):
        return self._lookup(self._instances, (trajectory_id, index), factory)

    def chainage_for(self, trajectory_id: int, index: int, factory: Callable):
        return self._lookup(self._chainages, (trajectory_id, index), factory)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.resident_bytes = 0
            for section in self._sections.values():
                section.resident = section.bytes = 0

    def stats(self) -> dict[str, dict[str, int]]:
        """A consistent hit/miss/eviction/resident/bytes snapshot per
        section, read under the one cache lock — no torn
        hits-without-their-misses reads while other threads query."""
        with self._lock:
            return {
                name: {
                    "hits": section.hits,
                    "misses": section.misses,
                    "evictions": section.evictions,
                    "resident": section.resident,
                    "bytes": section.bytes,
                }
                for name, section in self._sections.items()
            }

    def collect_metrics(self):
        """Registry-collector view of :meth:`stats` and the budget (see
        :meth:`repro.obs.metrics.MetricsRegistry.register_collector`)."""
        for name, counts in self.stats().items():
            labels = {"section": name}
            for event in ("hits", "misses", "evictions"):
                yield (
                    "counter", f"repro_decode_cache_{event}_total", labels,
                    {"value": float(counts[event])},
                )
            yield (
                "gauge", "repro_decode_cache_resident", labels,
                {"value": float(counts["resident"])},
            )
            yield (
                "gauge", "repro_decode_cache_bytes", labels,
                {"value": float(counts["bytes"])},
            )
        yield (
            "gauge", "repro_decode_cache_budget_bytes", None,
            {"value": float(self.budget_bytes)},
        )
