"""Binary encoding of references and non-references (§4.4).

The encoder turns improved-TED instance tuples plus a reference selection
into the bit-level payloads held by :class:`~repro.core.archive.
CompressedTrajectory`.  References are stored directly (fixed-width edge
numbers, raw trimmed T', PDDP distances); non-references store factor
streams against their reference.  Every payload opens with its
probability code.  All component sizes are measured from
the actual bit positions, so the Table 8 accounting is exact.
"""

from __future__ import annotations

from ..bits import expgolomb
from ..bits.bitio import BitWriter, uint_width
from . import siar
from .archive import (
    ComponentBits,
    CompressedInstance,
    CompressedTrajectory,
    CompressionParams,
    CompressionStats,
    reference_index_width,
)
from .factors import (
    distance_patches,
    factorize_edges,
    write_distance_patches,
    write_edge_factors,
    write_flag_stream,
)
from .improved_ted import InstanceTuple
from .pddp import (
    PddpEncoder,
    fraction_word,
    max_code_length,
    probability_word,
)
from .refselect import ReferenceSelection

START_VERTEX_BITS = 32  # paper convention: vertex ids are 32-bit


def write_probability(
    writer: BitWriter, probability: float, eta: float
) -> tuple[int, float]:
    """Write one probability as a direct PDDP fraction code (length
    field and code bits in one push; never a code that decodes to 0, see
    :func:`~repro.core.pddp.probability_word`).  UTCQ and the TED
    baseline both write probabilities through it; a UTCQ payload opens
    with it, so a record parser reads the probability from the payload's
    leading bytes (:func:`~repro.core.pddp.leading_probability`).

    Returns ``(bits_written, decoded_value)``.
    """
    code, length, value = probability_word(probability, eta)
    width = uint_width(max_code_length(eta)) + length
    writer.append_bits((length << length) | code, width)
    return width, value


def encode_reference(
    encoded: InstanceTuple,
    ordinal: int,
    params: CompressionParams,
) -> tuple[CompressedInstance, ComponentBits]:
    """Serialize one reference instance."""
    writer = BitWriter()
    bits = ComponentBits()
    bits.probability, decoded_probability = write_probability(
        writer, encoded.probability, params.eta_probability
    )

    before = len(writer)
    expgolomb.encode_unsigned(writer, len(encoded.edge_numbers))
    if encoded.edge_numbers:
        # fixed-width row, packed into one accumulator push; every
        # out_number fits params.symbol_width by construction
        symbol_width = params.symbol_width
        row = 0
        for number in encoded.edge_numbers:
            row = (row << symbol_width) | number
        writer.append_bits(row, symbol_width * len(encoded.edge_numbers))
    bits.edge = len(writer) - before + START_VERTEX_BITS

    before = len(writer)
    writer.write_bits(encoded.trimmed_time_flags)
    bits.flags = len(writer) - before

    pddp = PddpEncoder(params.eta_distance)
    pddp.add_all(list(encoded.relative_distances))
    before = len(writer)
    pddp.serialize(writer)
    bits.distance = len(writer) - before

    instance = CompressedInstance(
        is_reference=True,
        payload=writer.getvalue(),
        payload_bits=len(writer),
        start_vertex=encoded.start_vertex,
        reference_ordinal=ordinal,
        probability=decoded_probability,
    )
    return instance, bits


def encode_non_reference(
    encoded: InstanceTuple,
    reference: InstanceTuple,
    reference_decoded_distances: list[float],
    reference_ordinal: int,
    reference_count: int,
    params: CompressionParams,
) -> tuple[CompressedInstance, ComponentBits]:
    """Serialize one non-reference against its (already encoded) reference."""
    writer = BitWriter()
    bits = ComponentBits()
    bits.probability, decoded_probability = write_probability(
        writer, encoded.probability, params.eta_probability
    )

    before = len(writer)
    writer.write_uint(
        reference_ordinal, reference_index_width(reference_count)
    )
    bits.overhead = len(writer) - before
    before = len(writer)

    factors = factorize_edges(encoded.edge_numbers, reference.edge_numbers)
    write_edge_factors(
        writer, factors, len(reference.edge_numbers), params.symbol_width
    )
    bits.edge = len(writer) - before

    before = len(writer)
    write_flag_stream(
        writer, encoded.trimmed_time_flags, reference.trimmed_time_flags
    )
    bits.flags = len(writer) - before

    patches = distance_patches(
        list(encoded.relative_distances),
        reference_decoded_distances,
        params.eta_distance,
    )
    before = len(writer)
    write_distance_patches(
        writer, patches, len(reference.relative_distances), params.eta_distance
    )
    bits.distance = len(writer) - before

    instance = CompressedInstance(
        is_reference=False,
        payload=writer.getvalue(),
        payload_bits=len(writer),
        start_vertex=None,
        reference_ordinal=reference_ordinal,
        probability=decoded_probability,
    )
    return instance, bits


def original_instance_bits(encoded: InstanceTuple) -> ComponentBits:
    """Uncompressed size of one instance under the paper's conventions."""
    return ComponentBits(
        edge=32 * (len(encoded.edge_numbers) + 1),  # entries + start vertex
        distance=32 * len(encoded.relative_distances),
        flags=len(encoded.time_flags),
        probability=32,
    )


def encode_trajectory(
    trajectory_id: int,
    tuples: list[InstanceTuple],
    selection: ReferenceSelection,
    times: list[int],
    params: CompressionParams,
) -> CompressedTrajectory:
    """Assemble one compressed uncertain trajectory.

    ``tuples`` are the improved-TED tuples of all instances (original
    order); ``selection`` is Algorithm 1's output over the same indices.
    """
    stats = CompressionStats()

    time_writer = BitWriter()
    siar.encode(
        time_writer, times, params.default_interval, t0_bits=params.t0_bits
    )
    stats.compressed.time = len(time_writer)
    stats.original.time = 32 * len(times)

    ordinal_of = {
        instance_index: ordinal
        for ordinal, instance_index in enumerate(selection.references)
    }
    reference_count = len(selection.references)

    encoded_references: dict[int, tuple[CompressedInstance, list[float]]] = {}
    for instance_index in selection.references:
        instance, bits = encode_reference(
            tuples[instance_index], ordinal_of[instance_index], params
        )
        decoded_distances = [
            fraction_word(rd, params.eta_distance)[2]
            for rd in tuples[instance_index].relative_distances
        ]
        encoded_references[instance_index] = (instance, decoded_distances)
        stats.compressed.add(bits)

    instances: list[CompressedInstance] = [None] * len(tuples)  # type: ignore[list-item]
    for instance_index in selection.references:
        instances[instance_index] = encoded_references[instance_index][0]
    for reference_index, members in selection.assignments.items():
        _, reference_decoded = encoded_references[reference_index]
        for member in members:
            instance, bits = encode_non_reference(
                tuples[member],
                tuples[reference_index],
                reference_decoded,
                ordinal_of[reference_index],
                reference_count,
                params,
            )
            instances[member] = instance
            stats.compressed.add(bits)

    for encoded in tuples:
        stats.original.add(original_instance_bits(encoded))

    # structural overhead: instance count + one reference flag per instance
    stats.compressed.overhead += expgolomb.encoded_length(len(tuples)) + len(tuples)

    return CompressedTrajectory(
        trajectory_id=trajectory_id,
        time_payload=time_writer.getvalue(),
        time_payload_bits=len(time_writer),
        point_count=len(times),
        start_time=times[0],
        end_time=times[-1],
        instances=instances,
        stats=stats,
    )
