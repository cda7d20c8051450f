"""Golden-matching regression: the map matcher's output is pinned.

The codec has ``test_golden_archive.py`` and the index has
``test_stiu_golden.py``; the matcher had only batch-vs-streaming
equivalence, which a bug in the beam code both paths share passes.
Every step of the matcher is deterministic (seeded feeds, stable sorts,
``(distance, vertex)``-ordered Dijkstra), so matching the feeds below
must produce the same instances, bit for bit, forever.  Both digests
were computed with the list-Viterbi as it stood before it became a
lattice (PR 20) and have not been touched since.
"""

import hashlib

import pytest

from repro.mapmatching import ProbabilisticMapMatcher, synthesize_raw_dataset
from repro.network.generators import dataset_network
from repro.stream import TripSessionizer
from repro.stream.replay import feed_events
from repro.trajectories.datasets import CD

GOLDEN_BATCH_SHA256 = (
    "74908a54c8e38b98fbbfde6f8ee92a266042a54d2e7667fc859f8d2e51bb6f7e"
)
GOLDEN_STREAM_SHA256 = (
    "3293e039a6223e7ba09e91a8e6e2b23d31814bfe5f31eeabd5d89df922017cc6"
)


def matching_digest(trajectories) -> str:
    """SHA-256 over everything the matcher decides: per trajectory the
    times and, per instance, the path, the location → path-edge indices,
    the mapped locations and the probability (``repr`` of a float is
    exact)."""
    return hashlib.sha256(
        repr(
            [
                (
                    list(trajectory.times),
                    [
                        (
                            list(instance.path),
                            list(instance.location_edge_indices),
                            [(loc.edge, loc.ndist) for loc in instance.locations],
                            instance.probability,
                        )
                        for instance in trajectory.instances
                    ],
                )
                for trajectory in trajectories
            ]
        ).encode()
    ).hexdigest()


@pytest.fixture(scope="module")
def network():
    return dataset_network("CD")


@pytest.fixture(scope="module")
def feeds(network):
    return synthesize_raw_dataset(network, CD.generation_config(), 24, seed=41)


def test_batch_matchings_are_pinned(network, feeds):
    matched = ProbabilisticMapMatcher(network).match_many(feeds)
    assert len(matched) == 24
    assert matching_digest(matched) == GOLDEN_BATCH_SHA256


def test_streamed_matchings_are_pinned(network, feeds):
    sessionizer = TripSessionizer(network, evict_interval=64)
    sealed = []
    for vehicle, point in feed_events(feeds):
        sealed.extend(sessionizer.observe(vehicle, point))
    sealed.extend(sessionizer.flush())
    assert len(sealed) == 24
    assert matching_digest(sealed) == GOLDEN_STREAM_SHA256
