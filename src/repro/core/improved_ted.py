"""Improved TED representation of trajectory instances (§4.1, Table 3).

Each instance ``Tu^j_w`` becomes the tuple
``(SV, E, D, T', p)``:

* ``SV`` — the start vertex id of the first traversed edge, split out of
  the edge sequence (the paper separates ``SV(Tu)`` from ``E(Tu)`` "to
  achieve a more compact format");
* ``E`` — outgoing edge numbers along the path, where an edge carrying
  ``r > 1`` mapped locations is followed by ``r - 1`` zeros (§2.2);
* ``D`` — relative distances of the mapped locations (Definition 7);
* ``T'`` — one bit per ``E`` entry marking entries that carry a mapped
  location; the improved representation *stores* it without its first and
  last bits, which are always 1 (the first and last edges must carry a
  point);
* ``p`` — the instance probability.

``decode_instance`` reconstructs a :class:`TrajectoryInstance` from the
tuple plus the road network, which makes the whole pipeline losslessly
invertible (up to the D quantization chosen at compression time).

Queries do not decode a tuple part way, as the paper's flag and
original arrays (§5.1) would: each queried trajectory is decoded once
into a cached block (:class:`~repro.core.decoder.DecodeSpanCache`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..network.graph import RoadNetwork
from ..trajectories.model import (
    EdgeKey,
    MappedLocation,
    TrajectoryInstance,
)
from .archive import DECODE_FAILURES, CorruptPayloadError


@dataclass(frozen=True)
class InstanceTuple:
    """The improved TED tuple of one trajectory instance."""

    start_vertex: int
    edge_numbers: tuple[int, ...]
    relative_distances: tuple[float, ...]
    time_flags: tuple[int, ...]  # full T', including first/last bits
    probability: float

    def __post_init__(self) -> None:
        if len(self.edge_numbers) != len(self.time_flags):
            raise ValueError("T' must have exactly one bit per E entry")
        if self.edge_numbers and self.edge_numbers[0] == 0:
            raise ValueError("E cannot start with a repeat marker (0)")
        ones = sum(self.time_flags)
        if ones != len(self.relative_distances):
            raise ValueError(
                f"T' marks {ones} locations but D has "
                f"{len(self.relative_distances)} entries"
            )
        if self.time_flags and (self.time_flags[0] != 1 or self.time_flags[-1] != 1):
            raise ValueError("first and last T' bits must be 1")

    @property
    def trimmed_time_flags(self) -> tuple[int, ...]:
        """T' as stored: without the (always-1) first and last bits."""
        return self.time_flags[1:-1]

    @property
    def point_count(self) -> int:
        return len(self.relative_distances)

    @property
    def edge_sequence_length(self) -> int:
        return len(self.edge_numbers)


def restore_time_flags(trimmed: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Re-attach the omitted first and last 1-bits to a stored T'."""
    return (1, *trimmed, 1)


#: rd of a point exactly on the end vertex (see
#: :meth:`MappedLocation.relative_distance`, which this module inlines)
_RD_CEILING = 1.0 - 1e-12


def encode_instance(
    network: RoadNetwork, instance: TrajectoryInstance
) -> InstanceTuple:
    """Derive the improved TED tuple of ``instance``.

    One pass over the locations, walking the network's frozen tables:
    path edges without a location become ``(number, T'=0)`` entries, a
    location's edge ``(number, 1)`` and each further location on the
    same edge ``(0, 1)``; ``rd`` is computed inline from the edge's
    length in :meth:`RoadNetwork.out_table`.
    """
    numbering = network.numbering()
    out_table = network.out_table()
    path = instance.path
    try:
        numbers = [numbering[edge] for edge in path]
    except KeyError:
        edge = next(edge for edge in path if edge not in numbering)
        raise KeyError(
            f"edge ({edge[0]}, {edge[1]}) is not in the network"
        ) from None
    edge_numbers: list[int] = []
    time_flags: list[int] = []
    distances: list[float] = []
    previous = -1
    length = 0.0
    for location, index in zip(
        instance.locations, instance.location_edge_indices
    ):
        if index == previous:
            edge_numbers.append(0)
        else:
            for skipped in range(previous + 1, index):
                edge_numbers.append(numbers[skipped])
                time_flags.append(0)
            number = numbers[index]
            length = out_table[path[index][0]][number - 1].length
            edge_numbers.append(number)
            previous = index
        time_flags.append(1)
        rd = location.ndist / length
        if not 0.0 <= rd <= 1.0:
            raise ValueError(
                f"ndist {location.ndist} outside edge {location.edge} "
                f"of length {length}"
            )
        distances.append(rd if rd < _RD_CEILING else _RD_CEILING)
    for skipped in range(previous + 1, len(path)):
        edge_numbers.append(numbers[skipped])
        time_flags.append(0)
    return InstanceTuple(
        start_vertex=path[0][0],
        edge_numbers=tuple(edge_numbers),
        relative_distances=tuple(distances),
        time_flags=tuple(time_flags),
        probability=instance.probability,
    )


def decode_instance(
    network: RoadNetwork, encoded: InstanceTuple
) -> TrajectoryInstance:
    """Reconstruct a :class:`TrajectoryInstance` from its tuple.

    Walks the network's frozen :meth:`RoadNetwork.out_table`.  A tuple
    that does not describe an instance of this network (an edge number
    its vertex does not have, a path the model rejects) raises
    :class:`~repro.core.archive.CorruptPayloadError`.
    """
    try:
        return _decode_instance(network.out_table(), encoded)
    except DECODE_FAILURES as error:
        raise CorruptPayloadError.wrapping(error) from error


def _decode_instance(out_table, encoded: InstanceTuple) -> TrajectoryInstance:
    path: list[EdgeKey] = []
    locations: list[MappedLocation] = []
    edge_indices: list[int] = []
    current_vertex = encoded.start_vertex
    distances = encoded.relative_distances
    distance_cursor = 0
    edge_key: EdgeKey = (0, 0)
    length = 0.0
    index = -1  # of the current edge in path
    last_index = -1
    last_ndist = 0.0
    for number, flag in zip(encoded.edge_numbers, encoded.time_flags):
        if number:
            edges = out_table[current_vertex]
            try:
                _, end, length = edges[number - 1]
            except IndexError:
                raise KeyError(
                    f"vertex {current_vertex} has {len(edges)} out-edges; "
                    f"number {number} invalid"
                ) from None
            edge_key = (current_vertex, end)
            current_vertex = end
            path.append(edge_key)
            index += 1
        elif index < 0:
            raise ValueError("E starts with a repeat marker")
        if flag:
            ndist = distances[distance_cursor] * length
            distance_cursor += 1
            # lossy distance codes may invert two same-edge locations by
            # less than eta * length; clamping keeps the model's order
            # invariant without leaving the error bound
            if last_index == index and ndist < last_ndist:
                ndist = last_ndist
            locations.append(MappedLocation(edge_key, ndist))
            edge_indices.append(index)
            last_index, last_ndist = index, ndist
    if distance_cursor != len(distances):
        raise ValueError("D has more entries than T' marks")
    return TrajectoryInstance(
        path=path,
        locations=locations,
        probability=encoded.probability,
        location_edge_indices=edge_indices,
    )

