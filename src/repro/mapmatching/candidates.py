"""Candidate generation for probabilistic map matching.

For every raw GPS fix, the matcher considers the road positions it may
have been recorded from: projections onto all edges within a search
radius, scored by an emission probability (a zero-mean Gaussian over the
projection distance, the standard choice in HMM map matching [2, 15]).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..network.spatial_index import EdgeSpatialIndex
from ..trajectories.model import EdgeKey, RawPoint


class Candidate(NamedTuple):
    """One possible road position of a raw GPS fix (a named tuple:
    immutable, and cheap to build -- a matcher builds one per candidate
    of every fix)."""

    edge: EdgeKey
    ndist: float
    distance: float  # Euclidean distance from the raw fix
    emission_log_probability: float


def emission_log_probability(distance: float, sigma: float) -> float:
    """Log of the Gaussian emission density (up to a shared constant)."""
    return -0.5 * (distance / sigma) ** 2 - math.log(sigma)


def candidates_for_point(
    index: EdgeSpatialIndex,
    point: RawPoint,
    *,
    search_radius: float,
    sigma: float,
    max_candidates: int = 6,
) -> list[Candidate]:
    """Candidate road positions for one fix, best (nearest) first.

    Falls back to the single nearest edge when nothing lies within the
    search radius (GPS outliers should not abort the whole trajectory).
    """
    hits = index.edges_near(point.x, point.y, search_radius)
    if not hits:
        nearest = index.nearest_edge(point.x, point.y)
        if nearest is None:
            return []
        hits = [nearest]
    edge_length = index.network.edge_length
    return [
        Candidate(
            edge_key,
            t * edge_length(*edge_key),
            distance,
            emission_log_probability(distance, sigma),
        )
        for edge_key, t, distance in hits[:max_candidates]
    ]
