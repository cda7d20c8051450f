"""The UTCQ compressor: the paper's full pipeline (Fig. 3) end to end.

For each uncertain trajectory the compressor

1. converts instances to improved-TED tuples (§4.1),
2. selects pivots and builds pivot representations of ``E`` (§4.3),
3. scores instance pairs with FJD and runs Algorithm 1 to choose
   references and their referential representation sets,
4. serializes references directly and non-references as factor streams
   (§4.2, §4.4), with SIAR + improved Exp-Golomb for the shared time
   sequence.

The output :class:`~repro.core.archive.CompressedArchive` carries exact
per-component sizes for the Table 8 accounting and all offsets the StIU
index needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..bits.bitio import uint_width
from ..network.graph import RoadNetwork
from ..trajectories.model import UncertainTrajectory
from .archive import CompressedArchive, CompressedTrajectory, CompressionParams
from .encoder import encode_trajectory
from .fjd import score_matrix
from .improved_ted import encode_instance
from .pivots import select_pivots
from .refselect import ReferenceSelection, select_references

DEFAULT_ETA_DISTANCE = 1 / 128  # Table 7 default
DEFAULT_ETA_PROBABILITY = 1 / 512  # Table 7 default (1/2048 for HZ)


@dataclass
class UTCQCompressor:
    """Compresses uncertain trajectories over a fixed road network.

    Parameters mirror Table 7: the PDDP error bounds, the number of
    pivots for reference selection, and the dataset's default sample
    interval.  ``seed`` drives the randomized pivot seeding and makes
    compression deterministic.
    """

    network: RoadNetwork
    default_interval: int
    eta_distance: float = DEFAULT_ETA_DISTANCE
    eta_probability: float = DEFAULT_ETA_PROBABILITY
    pivot_count: int = 1
    seed: int = 17
    #: ablation switch: store every instance standalone (no references)
    disable_referential: bool = False

    def __post_init__(self) -> None:
        if self.pivot_count < 1:
            raise ValueError(f"pivot_count must be >= 1, got {self.pivot_count}")
        if self.default_interval < 1:
            raise ValueError(
                f"default_interval must be >= 1, got {self.default_interval}"
            )

    def trajectory_rng(self, trajectory_id: int) -> random.Random:
        """Deterministic RNG for one trajectory, independent of order.

        Seeding per trajectory (rather than threading one stream through
        the whole dataset) makes compression embarrassingly parallel: any
        sharding of the dataset across workers produces bit-identical
        payloads (see :mod:`repro.pipeline.batch`).  The mix is plain
        integer arithmetic so it is stable across processes and platforms.
        """
        return random.Random(
            (self.seed * 0x9E3779B97F4A7C15 + trajectory_id) & (2**64 - 1)
        )

    def params_for(
        self, trajectories: list[UncertainTrajectory]
    ) -> CompressionParams:
        """Archive-wide parameters derived from network and data."""
        max_t0 = max((t.start_time for t in trajectories), default=0)
        return CompressionParams(
            eta_distance=self.eta_distance,
            eta_probability=self.eta_probability,
            default_interval=self.default_interval,
            symbol_width=uint_width(self.network.max_out_degree),
            t0_bits=max(17, uint_width(max_t0)),
            pivot_count=self.pivot_count,
        )

    def compress_trajectory(
        self,
        trajectory: UncertainTrajectory,
        params: CompressionParams,
        rng: random.Random,
    ) -> CompressedTrajectory:
        """Compress a single uncertain trajectory."""
        tuples = [
            encode_instance(self.network, instance)
            for instance in trajectory.instances
        ]
        if len(tuples) == 1 or self.disable_referential:
            selection = ReferenceSelection(
                references=list(range(len(tuples))),
                assignments={i: [] for i in range(len(tuples))},
            )
        else:
            pivots = select_pivots(
                [t.edge_numbers for t in tuples], self.pivot_count, rng
            )
            matrix = score_matrix(
                [t.probability for t in tuples],
                [t.start_vertex for t in tuples],
                pivots,
            )
            selection = select_references(matrix)
        return encode_trajectory(
            trajectory.trajectory_id,
            tuples,
            selection,
            list(trajectory.times),
            params,
        )

    def compress(
        self, trajectories: list[UncertainTrajectory]
    ) -> CompressedArchive:
        """Compress a whole dataset, one trajectory at a time.

        Processing trajectory-by-trajectory is the source of UTCQ's small
        memory footprint compared to TED's dataset-wide matrices (Fig. 6's
        memory annotations).  Each trajectory gets its own RNG stream via
        :meth:`trajectory_rng`, so the result is byte-identical to what
        :func:`repro.pipeline.compress_parallel` produces for any worker
        count.
        """
        params = self.params_for(trajectories)
        compressed = [
            self.compress_trajectory(
                trajectory, params, self.trajectory_rng(trajectory.trajectory_id)
            )
            for trajectory in trajectories
        ]
        return CompressedArchive(params=params, trajectories=compressed)


def compress_dataset(
    network: RoadNetwork,
    trajectories: list[UncertainTrajectory],
    *,
    default_interval: int,
    eta_distance: float = DEFAULT_ETA_DISTANCE,
    eta_probability: float = DEFAULT_ETA_PROBABILITY,
    pivot_count: int = 1,
    seed: int = 17,
) -> CompressedArchive:
    """Functional convenience wrapper around :class:`UTCQCompressor`."""
    compressor = UTCQCompressor(
        network=network,
        default_interval=default_interval,
        eta_distance=eta_distance,
        eta_probability=eta_probability,
        pivot_count=pivot_count,
        seed=seed,
    )
    return compressor.compress(trajectories)
