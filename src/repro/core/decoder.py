"""Decompression: full archives, single instances, and the edge side.

The query processor (§5) never calls ``decode_archive``: it decodes one
trajectory's whole time stream and one instance at a time (a
non-reference against its decoded reference), each from the start of
its payload, and the StIU spatial derive decodes only the edge side of
a trajectory.  No stream is resumed partway, so no bit offset is kept.
Full decoding exists for round-trip verification and for consumers who
want the data back.

:class:`DecodeSpanCache` sits between the query layer and these entry
points: one LRU, budgeted in bytes, of parsed records and one
:class:`TrajectoryBlock` per trajectory — its record, its time stream,
and one chainage slot per instance, decoded the first time a query
needs it — so repeated probes of a hot trajectory cost one lookup
instead of a re-parse and a re-decode.  One cache can be shared by
several query processors over the same archive + network (e.g. through
a :class:`~repro.stream.live.LiveArchive` while ingestion continues).
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
from ..trajectories.path import InstanceChainage
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
        probability = read_probability(reader, params.eta_probability)
        edge_numbers, flags = _read_reference_edges(
            reader, params.symbol_width
        )
        distances = tuple(PddpDecoder(reader, params.eta_distance).values)
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
        probability = read_probability(reader, params.eta_probability)
        reader.read_uint(reference_index_width(reference_count))
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
    :class:`~repro.trajectories.model.UncertainTrajectory`); distances
    and patches are left undecoded, and the leading probability code is
    only read past.  A payload that fails
    either raises :class:`CorruptPayloadError`, so a damaged trajectory
    is never derived as one that enters no region."""
    eta = params.eta_probability
    try:
        references: dict[int, InstanceEdges] = {}
        for instance in trajectory.instances:
            if instance.is_reference:
                reader = BitReader(instance.payload, instance.payload_bits)
                read_probability(reader, eta)
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
            read_probability(reader, eta)
            reader.read_uint(index_width)
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


#: The decode cache's budget in charged bytes: room for every block of
#: ``engine-uniform-cold``'s working set with every slot filled, with
#: headroom; the derivation is in docs/architecture.md ("Decode cache").
DECODE_CACHE_BYTES = 32 << 20


def configured_budget_bytes() -> int:
    """``REPRO_DECODE_CACHE_BYTES``, else :data:`DECODE_CACHE_BYTES`."""
    return env_int("REPRO_DECODE_CACHE_BYTES", DECODE_CACHE_BYTES, minimum=0)


def _less_probable(pair: tuple[int, float]) -> float:
    return -pair[1]


class TrajectoryBlock:
    """What the where / when / range queries read of one trajectory.

    Built from the parsed ``record`` and its decoded ``times``, which
    every instance shares:

    * ``chains`` — one slot per instance: its chainage table, ``None``
      until a query first needs it (:meth:`decode_chain`, then
      :meth:`DecodeSpanCache.fill`);
    * ``references`` — reference ordinal -> the decoded reference tuple,
      kept once the first slot of its group is decoded, so the other
      members of the group decode against it;
    * :meth:`ranked` and :meth:`members`, worked out the first time a
      range or a when query asks (a where-only trajectory never pays
      for them).
    """

    __slots__ = (
        "record", "times", "chains", "references", "_ranked", "_members",
    )

    def __init__(self, record: CompressedTrajectory, times: list[int]) -> None:
        self.record = record
        self.times = times
        self.chains: list[InstanceChainage | None] = (
            [None] * len(record.instances)
        )
        self.references: dict[int, InstanceTuple] = {}
        self._ranked: tuple[list[tuple[int, float]], float] | None = None
        self._members: dict[int, list[int]] | None = None

    def ranked(self) -> tuple[list[tuple[int, float]], float]:
        """The instances' ``(index, probability)`` pairs, most probable
        first (a stable sort: ties keep instance order), and their total
        probability, summed in instance order."""
        ranked = self._ranked
        if ranked is None:
            instances = self.record.instances
            order = sorted(
                (
                    (index, instance.probability)
                    for index, instance in enumerate(instances)
                ),
                key=_less_probable,
            )
            mass = sum(instance.probability for instance in instances)
            ranked = self._ranked = (order, mass)
        return ranked

    def members(self, ordinal: int) -> list[int]:
        """The ascending indices of the non-references decoded against
        reference ``ordinal``."""
        members = self._members
        if members is None:
            members = {}
            for index, instance in enumerate(self.record.instances):
                if not instance.is_reference:
                    members.setdefault(instance.reference_ordinal, []).append(
                        index
                    )
            self._members = members
        return members.get(ordinal, [])

    def decode_chain(
        self, network: RoadNetwork, params: CompressionParams, index: int
    ) -> tuple[InstanceChainage, InstanceTuple | None]:
        """Decode instance ``index`` into its chainage table, without
        storing it.  Returns the table and the reference tuple decoded
        on the way (``None`` when the block already held it).

        The instance is reconstructed by :func:`decode_instance`, so
        every check of the codec and of
        :class:`~repro.trajectories.model.TrajectoryInstance` applies: a
        damaged payload raises :class:`CorruptPayloadError`.  Only the
        table is kept.
        """
        record = self.record
        compressed = record.instances[index]
        ordinal = compressed.reference_ordinal
        reference = self.references.get(ordinal)
        decoded = None
        if reference is None:
            reference = decoded = decode_reference_tuple(
                record.reference_by_ordinal(ordinal), params
            )
        if compressed.is_reference:
            encoded = reference
        else:
            encoded = decode_non_reference_tuple(
                compressed, reference, params, record.reference_count
            )
        chain = InstanceChainage(network, decode_instance(network, encoded))
        return chain, decoded


# What an entry is charged, in bytes: a base plus a cost per element.
# The constants are the retained bytes tracemalloc measures on the CD
# profile, the cache's own bookkeeping included;
# tests/test_decode_cache.py holds each charge within 0.5-2x of that.
def _record_charge(record: CompressedTrajectory) -> int:
    return 720 + 165 * len(record.instances)


def _block_charge(block: TrajectoryBlock) -> int:
    # the block's own record is in it: a block parses its record itself
    return 800 + 60 * len(block.times) + 340 * len(block.chains)


def _slot_charge(chain: InstanceChainage) -> int:
    return 375 + 69 * (len(chain.path) + len(chain.location_chainages))


def _reference_charge(encoded: InstanceTuple) -> int:
    return 440 + 29 * len(encoded.edge_numbers)


class _Section:
    """The counters of one kind of cached value."""

    __slots__ = ("hits", "misses", "evictions", "resident", "bytes")

    def __init__(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.resident = self.bytes = 0


#: the sections :meth:`DecodeSpanCache.stats` reports, in its order
SECTIONS = ("records", "times", "references", "instances", "chainages")


class DecodeSpanCache:
    """Shared LRU of parsed records and trajectory blocks, budgeted in
    bytes.

    Two kinds of entry share one recency order and one budget:

    * parsed :class:`CompressedTrajectory` records, keyed
      ``("records", trajectory_id)`` (:meth:`record_for`), held only
      while no block of that id is: a block holds its record, so
      :meth:`record_for` returns a resident block's, and storing a block
      drops its id's record entry and that entry's charge;
    * one :class:`TrajectoryBlock` per trajectory, keyed by its id
      (:meth:`block_for`).  A block's slots are filled later, one
      instance at a time (:meth:`fill`).  Chainage tables depend on the
      road network: share a cache only across processors using the same
      one.

    :meth:`stats` reports five sections:

    * ``records`` — record lookups (one served by a resident block is a
      hit), and the records held outside blocks;
    * ``times`` — block lookups, and the blocks held (each block holds
      its own record and time stream);
    * ``chainages`` — slot probes: a hit is a probe of a filled slot
      (:meth:`count_slot_hits`), a miss a slot decode (:meth:`fill`);
      resident are the filled slots of resident blocks;
    * ``references`` — per slot decode, whether the block already held
      the reference tuple (a hit) or the decode read one (a miss);
      resident are the tuples resident blocks hold;
    * ``instances`` — always zero: a block keeps no
      :class:`~repro.trajectories.model.TrajectoryInstance`.

    A record or block is charged when it is stored, and a slot or
    reference tuple when it is stored into a resident block; the least
    recently used entries leave — a block with its slots and tuples —
    until the charged total fits ``budget_bytes`` again (``None``:
    ``REPRO_DECODE_CACHE_BYTES``, else :data:`DECODE_CACHE_BYTES`).  A
    fill can evict its own block.  An entry charged more than the whole
    budget is not stored, and a budget of 0 memoizes nothing: every
    lookup builds a fresh block, whose slots live as long as its caller
    holds it.

    Thread-safe: lookups and fills take a lock around the LRU only; the
    decode itself (the ``factory``, :meth:`TrajectoryBlock.decode_chain`)
    runs unlocked, so concurrent misses on the same key or slot may
    decode twice — the first value stored is kept, and every caller
    gets it.
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
        self._sections = {name: _Section() for name in SECTIONS}
        (
            self._records, self._times, self._references,
            self._instances, self._chainages,
        ) = self._sections.values()
        # key -> record or block, oldest first
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        if register:
            # weak-ref collector: the registry asks this cache for its
            # counters at scrape time only, so the ~100k-lookups/s hot
            # path never touches a registry lock
            obs_metrics.get_registry().register_collector(self)

    def _lookup(self, key, section: _Section, charge_of, factory: Callable):
        entries = self._entries
        with self._lock:
            value = entries.get(key)
            if value is not None:
                entries.move_to_end(key)
                section.hits += 1
                return value
            section.misses += 1
        value = factory()
        charge = charge_of(value)
        if charge > self.budget_bytes:
            return value
        with self._lock:
            stored = entries.get(key)
            if stored is not None:  # a concurrent miss stored it first
                entries.move_to_end(key)
                return stored
            entries[key] = value
            section.resident += 1
            section.bytes += charge
            self.resident_bytes += charge
            if section is self._times:
                # the block holds the record: its own entry would charge
                # the same object twice
                record = entries.pop(("records", key), None)
                if record is not None:
                    self._release(self._records, _record_charge(record))
            self._evict()
        return value

    def record_for(self, trajectory_id: int, factory: Callable):
        """The parsed record of ``trajectory_id``: a resident block's
        (a records hit), else the records entry; ``factory()`` parses it
        on a miss."""
        with self._lock:
            block = self._entries.get(trajectory_id)
            if block is not None:
                self._entries.move_to_end(trajectory_id)
                self._records.hits += 1
                return block.record
        return self._lookup(
            ("records", trajectory_id), self._records, _record_charge,
            factory,
        )

    def block_for(
        self, trajectory_id: int, factory: Callable[[], TrajectoryBlock]
    ) -> TrajectoryBlock:
        """The block of ``trajectory_id``; ``factory()`` builds it on a
        miss."""
        return self._lookup(
            trajectory_id, self._times, _block_charge, factory
        )

    def fill(
        self,
        block: TrajectoryBlock,
        index: int,
        chain: InstanceChainage,
        reference: InstanceTuple | None,
    ) -> InstanceChainage:
        """Store ``chain`` in slot ``index`` of ``block``, and the
        reference tuple its decode read (``None``: the block held it),
        unless a concurrent fill stored them first; returns the slot's
        value.  While ``block`` is resident, what is stored is charged
        to the budget, and least recently used entries leave until it
        holds again."""
        added = 0
        with self._lock:
            resident = self._entries.get(block.record.trajectory_id) is block
            references = self._references
            if reference is None:
                references.hits += 1
            else:
                references.misses += 1
                ordinal = block.record.instances[index].reference_ordinal
                if ordinal not in block.references:
                    block.references[ordinal] = reference
                    if resident:
                        charge = _reference_charge(reference)
                        references.resident += 1
                        references.bytes += charge
                        added += charge
            slots = self._chainages
            slots.misses += 1
            stored = block.chains[index]
            if stored is not None:
                chain = stored
            else:
                block.chains[index] = chain
                if resident:
                    charge = _slot_charge(chain)
                    slots.resident += 1
                    slots.bytes += charge
                    added += charge
            if added:
                self.resident_bytes += added
                self._evict()
        return chain

    def count_slot_hits(self, count: int) -> None:
        """Count ``count`` probes of filled slots (one call per query
        and trajectory, not one per probe)."""
        with self._lock:
            self._chainages.hits += count

    def _evict(self) -> None:
        """Drop least recently used entries until the budget holds;
        the caller holds the lock."""
        entries = self._entries
        while self.resident_bytes > self.budget_bytes:
            key, value = entries.popitem(last=False)
            if isinstance(value, TrajectoryBlock):
                self._drop(self._times, _block_charge(value))
                for encoded in value.references.values():
                    self._drop(self._references, _reference_charge(encoded))
                for chain in value.chains:
                    if chain is not None:
                        self._drop(self._chainages, _slot_charge(chain))
            else:
                self._drop(self._records, _record_charge(value))

    def _drop(self, section: _Section, charge: int) -> None:
        self._release(section, charge)
        section.evictions += 1

    def _release(self, section: _Section, charge: int) -> None:
        section.resident -= 1
        section.bytes -= charge
        self.resident_bytes -= charge

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
