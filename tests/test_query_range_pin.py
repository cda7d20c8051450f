"""The range kernel is pinned: same answers, same counters.

``UTCQQueryProcessor.range`` is free to get faster, not to change what it
answers or what its counters report.

A seeded sweep over two datasets digests every range answer together
with the :class:`~repro.query.QueryCounters` it left behind, and the
where answers that place the sweep's rectangles.  ``t`` is the first,
the middle and the last timestamp of sampled trajectories (the last one
is the "at the final location" branch of the position at a time),
``alpha`` is 0, 0.25, 0.9 and 1, and most rectangles have a decoded
position on their boundary or are that single point, so ``Rect``'s
closed bounds decide.  (``test_query_processor.py`` checks the Lemma 4
bound against the plain rule.)
"""

import hashlib
import random

import pytest

from repro.core.compressor import compress_dataset
from repro.network.grid import Rect
from repro.query import StIUIndex, UTCQQueryProcessor
from repro.trajectories.datasets import load_dataset

SEEDS = (41, 7)
ALPHAS = (0.0, 0.25, 0.9, 1.0)
TRAJECTORIES = 24
SAMPLED = 6
MARGIN = 150.0  # metres

# SHA-256 of the sweep below, recorded from the range kernel that summed
# every pair's mass and built a path position per instance
RANGE_SWEEP_SHA256 = {
    41: "7fe8cab68e0c646d5fd26f2d561fdfe5677fd39d3e39980cfd0cac95fbd8364a",
    7: "48b08380d19bed6f258d54734ee8869a0745d98bd003d8b93f4eb4e40e9e93d0",
}


def _point(network, result) -> tuple[float, float]:
    """A where answer's coordinates, by the same float operations as the
    range point test."""
    a = network.vertex(result.edge[0])
    b = network.vertex(result.edge[1])
    fraction = result.ndist / network.edge_length(*result.edge)
    return a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction


def _rects(x: float, y: float) -> list[Rect]:
    """Rectangles with ``(x, y)`` on a corner, on an edge, or as the
    whole (degenerate) rectangle."""
    return [
        Rect(x, y, x, y),
        Rect(x, y, x + MARGIN, y + MARGIN),
        Rect(x - MARGIN, y - MARGIN, x, y),
        Rect(x - MARGIN, y, x + MARGIN, y + MARGIN),
    ]


def sweep(seed: int):
    """Yield one ``repr``-able record per where and range query of the
    sweep over ``seed``'s dataset."""
    network, trajectories = load_dataset(
        "CD", TRAJECTORIES, seed=seed, network_scale=12
    )
    archive = compress_dataset(network, trajectories, default_interval=10)
    index = StIUIndex(
        network, archive, grid_cells_per_side=16, time_partition_seconds=900
    )
    # the points are placed by their own processor, so the range
    # counters start from a cold decode cache
    probe = UTCQQueryProcessor(network, archive, index)
    processor = UTCQQueryProcessor(network, archive, index)
    rng = random.Random(seed)
    for trajectory in rng.sample(trajectories, SAMPLED):
        tid = trajectory.trajectory_id
        times = trajectory.times
        for t in (times[0], times[len(times) // 2], times[-1]):
            located = probe.where(tid, t, 0.0)
            yield ("where", tid, t, located)
            rects = [
                rect
                for result in located[:3]
                for rect in _rects(*_point(network, result))
            ]
            x, y = _point(network, located[0])
            wide = 4 * MARGIN
            rects.append(Rect(x - wide, y - wide, x + wide, y + wide))
            for rect in rects:
                for alpha in ALPHAS:
                    processor.counters.reset()
                    answer = processor.range(rect, t, alpha)
                    yield ("range", rect, t, alpha, answer, processor.counters)


@pytest.mark.parametrize("seed", SEEDS)
def test_range_sweep_is_pinned(seed):
    digest = hashlib.sha256()
    hits = closed = 0
    for record in sweep(seed):
        digest.update(repr(record).encode())
        if record[0] == "range" and record[4]:
            hits += 1
            rect = record[1]
            closed += rect.min_x == rect.max_x
    # the sweep exercises what it claims: answers, and hits inside a
    # rectangle that is a single point
    assert hits and closed
    assert digest.hexdigest() == RANGE_SWEEP_SHA256[seed]
