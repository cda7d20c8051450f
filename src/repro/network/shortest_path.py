"""Shortest-path search over road networks.

Used by the probabilistic map matcher (transition probabilities need
network distances between candidate locations) and by the workload
generators (alternative sub-paths for detour instances).  A bounded
Dijkstra keeps map matching tractable: GPS sampling gaps limit how far a
vehicle can travel between points, so searches are cut off at a radius —
the matcher's through one :class:`SharedFrontier` per source vertex,
which takes the radius per query.
"""

from __future__ import annotations

import heapq
from typing import Callable

from ..config import env_int
from .graph import RoadNetwork

INFINITY = float("inf")


def dijkstra(
    network: RoadNetwork,
    source: int,
    *,
    target: int | None = None,
    cutoff: float = INFINITY,
    forbidden_edges: set[tuple[int, int]] | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest path distances (and predecessors).

    Stops early when ``target`` is settled or when the frontier exceeds
    ``cutoff``.  ``forbidden_edges`` are skipped, which the detour
    generator uses to force alternative routes.

    Returns ``(distances, predecessors)`` where ``predecessors[v]`` is the
    vertex preceding ``v`` on its shortest path from ``source``.

    Stale heap entries are detected by comparing the popped distance with
    the best known one (entries for a vertex are pushed with strictly
    decreasing distances, so a popped entry is current iff it matches) —
    no separate settled set.  The ``forbidden_edges`` membership test is
    hoisted out of the relaxation loop: the common no-forbidden case runs
    a branch-free inner loop.
    """
    if not network.has_vertex(source):
        raise KeyError(f"unknown source vertex {source}")
    distances: dict[int, float] = {source: 0.0}
    predecessors: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop = heapq.heappop
    push = heapq.heappush
    out_edges = network.out_edges
    while heap:
        dist, vertex = pop(heap)
        if dist > distances[vertex]:
            continue  # stale entry; vertex already settled closer
        if vertex == target:
            break
        if forbidden_edges:
            edges = [
                edge
                for edge in out_edges(vertex)
                if edge.key not in forbidden_edges
            ]
        else:
            edges = out_edges(vertex)
        for edge in edges:
            candidate = dist + edge.length
            if candidate > cutoff:
                continue
            end = edge.end
            if candidate < distances.get(end, INFINITY):
                distances[end] = candidate
                predecessors[end] = vertex
                push(heap, (candidate, end))
    return distances, predecessors


class SharedFrontier:
    """A lazily-settled Dijkstra from one source, shared across targets
    and cutoffs.

    The map matcher routes from the end of a previous-step candidate's
    edge to every current-step candidate, with a cutoff that changes
    from fix to fix; every such query from one source vertex shares one
    search.  Relaxation is not pruned: the cutoff is an argument of the
    query, which settles vertices only while the heap's smallest
    distance is within it (and below the target's) and keeps the heap
    between calls, so the search grows to the largest cutoff asked of it
    and no further.

    Answers equal a fresh :func:`shortest_path` with the same cutoff,
    whatever was asked before.  Edge lengths are strictly positive
    (:meth:`RoadNetwork.add_edge` rejects the rest), so (1) vertices
    settle in ``(distance, vertex)`` order, and that order up to
    distance ``c`` does not depend on heap entries beyond ``c``; (2) a
    vertex's predecessor is the first-settled vertex that gives it its
    final distance, which lies within ``c`` whenever the vertex does;
    hence (3) distance and path to any target within ``c`` are those of
    the search pruned at ``c`` — byte-identical matchings.
    """

    __slots__ = ("network", "source", "_distances", "_predecessors", "_heap")

    def __init__(self, network: RoadNetwork, source: int) -> None:
        if not network.has_vertex(source):
            raise KeyError(f"unknown source vertex {source}")
        self.network = network
        self.source = source
        self._distances: dict[int, float] = {source: 0.0}
        self._predecessors: dict[int, int] = {}
        self._heap: list[tuple[float, int]] = [(0.0, source)]

    def distance_to(self, target: int, cutoff: float = INFINITY) -> float:
        """Shortest distance to ``target``; ``inf`` beyond ``cutoff``."""
        distances = self._distances
        predecessors = self._predecessors
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        out_edges = self.network.out_edges
        # a known distance (and its predecessor) is final once nothing
        # closer waits in the heap: whatever is relaxed later is longer
        while heap and heap[0][0] <= cutoff and (
            heap[0][0] < distances.get(target, INFINITY)
        ):
            dist, vertex = pop(heap)
            if dist > distances[vertex]:
                continue  # stale entry; vertex already settled closer
            for edge in out_edges(vertex):
                candidate = dist + edge.length
                end = edge.end
                if candidate < distances.get(end, INFINITY):
                    distances[end] = candidate
                    predecessors[end] = vertex
                    push(heap, (candidate, end))
        known = distances.get(target, INFINITY)
        return known if known <= cutoff else INFINITY

    def path_to(
        self, target: int, cutoff: float = INFINITY
    ) -> tuple[list[tuple[int, int]], float] | None:
        """Shortest path to ``target`` as edge keys, or ``None`` when it
        is farther than ``cutoff``.

        Matches :func:`shortest_path`: a ``source == target`` query is an
        empty path of length zero.
        """
        if target == self.source:
            return [], 0.0
        length = self.distance_to(target, cutoff)
        if length == INFINITY:
            return None
        predecessors = self._predecessors
        path: list[tuple[int, int]] = []
        vertex = target
        source = self.source
        while vertex != source:
            previous = predecessors[vertex]
            path.append((previous, vertex))
            vertex = previous
        path.reverse()
        return path, length


_DEFAULT_FRONTIER_CACHE = 512


def resolve_frontier_cache_size(explicit: int | None = None) -> int:
    """Frontier-cache capacity: explicit argument >
    ``REPRO_FRONTIER_CACHE`` > 512 (a frontier is required state — the
    floor is 1, not 0)."""
    if explicit is not None:
        return int(explicit)
    return env_int(
        "REPRO_FRONTIER_CACHE", _DEFAULT_FRONTIER_CACHE, minimum=1
    )


class FrontierCache:
    """LRU cache of :class:`SharedFrontier` searches keyed by source
    vertex.

    One matcher-owned cache serves every transition of a Viterbi step
    and stays warm across steps, trips and vehicles: an entry is one
    vertex's search, grown to the largest cutoff asked of it — the
    streaming ingestion matcher shares the batch matcher's cache by
    construction, since
    :class:`~repro.stream.ingest.StreamingMapMatcher` wraps the same
    :class:`~repro.mapmatching.hmm.ProbabilisticMapMatcher` instance.
    """

    __slots__ = ("network", "maxsize", "hits", "misses", "_entries")

    def __init__(
        self, network: RoadNetwork, maxsize: int | None = None
    ) -> None:
        maxsize = resolve_frontier_cache_size(maxsize)
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.network = network
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: dict[int, SharedFrontier] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, source: int) -> SharedFrontier:
        """The (possibly cached) shared frontier of ``source``."""
        entries = self._entries
        frontier = entries.get(source)
        if frontier is not None:
            self.hits += 1
            # refresh recency (dicts preserve insertion order)
            del entries[source]
            entries[source] = frontier
            return frontier
        self.misses += 1
        frontier = SharedFrontier(self.network, source)
        if len(entries) >= self.maxsize:
            entries.pop(next(iter(entries)))
        entries[source] = frontier
        return frontier

    def clear(self) -> None:
        self._entries.clear()


def shortest_path(
    network: RoadNetwork,
    source: int,
    target: int,
    *,
    cutoff: float = INFINITY,
    forbidden_edges: set[tuple[int, int]] | None = None,
) -> tuple[list[tuple[int, int]], float] | None:
    """Shortest path from ``source`` to ``target`` as a list of edge keys.

    Returns ``(edges, length)`` or ``None`` when ``target`` is unreachable
    within ``cutoff``.  A trivial ``source == target`` query returns an
    empty path of length zero.
    """
    if source == target:
        return [], 0.0
    distances, predecessors = dijkstra(
        network,
        source,
        target=target,
        cutoff=cutoff,
        forbidden_edges=forbidden_edges,
    )
    if target not in distances:
        return None
    path: list[tuple[int, int]] = []
    vertex = target
    while vertex != source:
        prev = predecessors[vertex]
        path.append((prev, vertex))
        vertex = prev
    path.reverse()
    return path, distances[target]


def network_distance(
    network: RoadNetwork,
    source: int,
    target: int,
    *,
    cutoff: float = INFINITY,
) -> float:
    """Network distance between two vertices, ``inf`` when unreachable."""
    result = shortest_path(network, source, target, cutoff=cutoff)
    return result[1] if result is not None else INFINITY


def k_alternative_paths(
    network: RoadNetwork,
    source: int,
    target: int,
    k: int,
    *,
    cutoff: float = INFINITY,
) -> list[tuple[list[tuple[int, int]], float]]:
    """Up to ``k`` loop-free alternative paths, shortest first.

    A simple edge-penalty variant: after each found path, one of its edges
    is forbidden and the search repeated.  Sufficient for generating detour
    instances; not a full k-shortest-paths implementation by design.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    results: list[tuple[list[tuple[int, int]], float]] = []
    seen_paths: set[tuple[tuple[int, int], ...]] = set()
    forbidden_sets: list[set[tuple[int, int]]] = [set()]
    while forbidden_sets and len(results) < k:
        forbidden = forbidden_sets.pop(0)
        found = shortest_path(
            network, source, target, cutoff=cutoff, forbidden_edges=forbidden
        )
        if found is None:
            continue
        path, length = found
        key = tuple(path)
        if key in seen_paths:
            continue
        seen_paths.add(key)
        results.append((path, length))
        for edge in path:
            forbidden_sets.append(forbidden | {edge})
    results.sort(key=lambda item: item[1])
    return results[:k]


def reachable_within(
    network: RoadNetwork, source: int, radius: float
) -> dict[int, float]:
    """All vertices reachable from ``source`` within network distance
    ``radius`` (used to bound candidate transitions in map matching)."""
    distances, _ = dijkstra(network, source, cutoff=radius)
    return {v: d for v, d in distances.items() if d <= radius}


def random_walk_path(
    network: RoadNetwork,
    source: int,
    edge_count: int,
    rng_choice: Callable[[list], object],
) -> list[tuple[int, int]]:
    """A connected path of ``edge_count`` edges starting at ``source``.

    ``rng_choice`` is ``random.Random.choice``-compatible.  Immediate
    U-turns are avoided when another out-edge exists; the walk stops early
    at dead ends.
    """
    if edge_count < 1:
        raise ValueError(f"edge_count must be >= 1, got {edge_count}")
    path: list[tuple[int, int]] = []
    current = source
    previous: int | None = None
    for _ in range(edge_count):
        candidates = list(network.out_edges(current))
        if not candidates:
            break
        non_backtracking = [e for e in candidates if e.end != previous]
        pool = non_backtracking or candidates
        edge = rng_choice(pool)
        path.append(edge.key)
        previous = current
        current = edge.end
    return path
