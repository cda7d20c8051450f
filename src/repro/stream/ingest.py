"""Online map matching over a live point feed.

:class:`StreamingMapMatcher` consumes GPS fixes one at a time and
maintains exactly the list-Viterbi beam the batch matcher builds: every
accepted fix runs one :meth:`~repro.mapmatching.hmm.ProbabilisticMapMatcher.
candidate_step` + :meth:`~repro.mapmatching.hmm.ProbabilisticMapMatcher.
extend_beam`, so :meth:`finish` produces the **same**
:class:`~repro.trajectories.model.UncertainTrajectory` a batch
:meth:`~repro.mapmatching.hmm.ProbabilisticMapMatcher.match` call would
produce over the accepted points (the equivalence tests assert this).

Two things make the matcher suitable for an unbounded feed:

* **admission control** — stale fixes (timestamp not after the last
  accepted one) are dropped, and a fix that cannot be joined to the
  running beam (no candidates, or no plausible route from any surviving
  partial) is *rejected without corrupting the trip*: the beam is left
  untouched so the caller can seal the trip-so-far and start a new one
  at the offending fix (what :class:`~repro.stream.session.
  TripSessionizer` does);
* **fixed-lag decoding** — :meth:`fixed_lag_estimate` reads the best
  partial's position ``fixed_lag`` steps behind the feed head.  By then
  the beam has usually collapsed onto one history
  (:meth:`agreed_prefix_length` reports how far the collapse has
  progressed), so the estimate is stable under future evidence while
  costing ``fixed_lag`` back-pointer hops per call — the standard
  fixed-lag approximation of full Viterbi smoothing.

Transition scoring routes through the underlying matcher's shared
:class:`~repro.network.shortest_path.FrontierCache` — one lazily-settled
Dijkstra per source vertex, reused across candidate pairs, fixes and
cutoffs.
Because the sessionizer hands every vehicle's streaming matcher the same
:class:`~repro.mapmatching.hmm.ProbabilisticMapMatcher`, the whole fleet
shares one cache: a vehicle crossing an intersection another vehicle
just crossed reuses its settled frontier.  Sealed outputs are identical
with or without the cache (see :class:`~repro.network.shortest_path.
SharedFrontier` for the argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..mapmatching.candidates import Candidate
from ..mapmatching.hmm import (
    BeamPartial,
    MatcherConfig,
    ProbabilisticMapMatcher,
)
from ..network.graph import RoadNetwork
from ..trajectories.model import MappedLocation, RawPoint, UncertainTrajectory


class ObserveStatus(Enum):
    """What happened to one fix offered to :meth:`StreamingMapMatcher.observe`."""

    #: the fix extended the beam and is now part of the trip
    ACCEPTED = "accepted"
    #: timestamp not after the last accepted fix; dropped
    STALE = "stale"
    #: no candidate/transition joins the fix to the trip; beam unchanged,
    #: the trip should be cut here
    UNMATCHABLE = "unmatchable"


@dataclass
class StreamCounters:
    """Feed accounting of one streaming matcher."""

    accepted: int = 0
    stale: int = 0
    unmatchable: int = 0


class StreamingMapMatcher:
    """Incremental HMM map matching of one vehicle's point feed.

    Either pass a ``network`` (and optional ``config``) to build a
    private :class:`ProbabilisticMapMatcher`, or pass an existing
    ``matcher`` so many streaming matchers share one spatial index (the
    sessionizer does this for its whole fleet).
    """

    def __init__(
        self,
        network: RoadNetwork | None = None,
        config: MatcherConfig | None = None,
        *,
        matcher: ProbabilisticMapMatcher | None = None,
        fixed_lag: int = 8,
    ) -> None:
        if matcher is None:
            if network is None:
                raise ValueError("pass either a network or a matcher")
            matcher = ProbabilisticMapMatcher(network, config)
        if fixed_lag < 0:
            raise ValueError(f"fixed_lag must be >= 0, got {fixed_lag}")
        self.matcher = matcher
        self.fixed_lag = fixed_lag
        self.counters = StreamCounters()
        self._points: list[RawPoint] = []
        self._steps: list[list[Candidate]] = []
        self._beam: list[BeamPartial] = []

    # ------------------------------------------------------------------
    # feed state
    # ------------------------------------------------------------------
    @property
    def point_count(self) -> int:
        """Accepted fixes in the current trip."""
        return len(self._points)

    @property
    def frontier_cache(self):
        """The routing cache shared with (and owned by) the matcher."""
        return self.matcher.frontier_cache

    @property
    def start_time(self) -> int:
        if not self._points:
            raise ValueError("no accepted fix yet")
        return self._points[0].t

    @property
    def last_time(self) -> int:
        if not self._points:
            raise ValueError("no accepted fix yet")
        return self._points[-1].t

    def reset(self) -> None:
        """Drop the current trip state (counters are kept)."""
        self._points.clear()
        self._steps.clear()
        self._beam = []

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def observe(self, point: RawPoint) -> ObserveStatus:
        """Offer one fix to the trip; see :class:`ObserveStatus`.

        A rejected fix (``STALE`` / ``UNMATCHABLE``) leaves the trip
        state exactly as it was.
        """
        if self._points and point.t <= self._points[-1].t:
            self.counters.stale += 1
            return ObserveStatus.STALE
        step = self.matcher.candidate_step(point)
        if not step:
            self.counters.unmatchable += 1
            return ObserveStatus.UNMATCHABLE
        if not self._points:
            beam = self.matcher.initial_beam(step)
        else:
            previous = self._points[-1]
            straight = math.hypot(
                point.x - previous.x, point.y - previous.y
            )
            beam = self.matcher.extend_beam(
                self._beam, self._steps[-1], step, straight
            )
        if not beam:
            self.counters.unmatchable += 1
            return ObserveStatus.UNMATCHABLE
        self._points.append(point)
        self._steps.append(step)
        self._beam = beam
        self.counters.accepted += 1
        return ObserveStatus.ACCEPTED

    def finish(self) -> UncertainTrajectory | None:
        """Seal the trip: assemble the beam and reset for the next one.

        Returns the same uncertain trajectory a batch ``match()`` over
        the accepted points would return (``None`` for an empty feed or
        a degenerate beam).
        """
        if not self._points:
            return None
        trajectory = self.matcher.finalize(
            self._steps, self._beam, [p.t for p in self._points]
        )
        self.reset()
        return trajectory

    # ------------------------------------------------------------------
    # fixed-lag decoding
    # ------------------------------------------------------------------
    def agreed_prefix_length(self) -> int:
        """Steps on which *every* surviving partial agrees.

        This prefix is committed: no future evidence can change it,
        because extending a beam never rewrites partial histories.
        """
        nodes = set(self._beam)
        agreed = len(self._points)
        # distinct lattice nodes are distinct histories, so the agreed
        # prefix ends at the beam's lowest common ancestor
        while len(nodes) > 1:
            nodes = {node.parent for node in nodes}
            agreed -= 1
        return agreed

    def fixed_lag_estimate(self) -> tuple[int, MappedLocation] | None:
        """Best current position ``fixed_lag`` steps behind the head.

        Returns ``(step_index, location)`` read from the most probable
        partial, or ``None`` before the first accepted fix.  With the
        default lag the estimate is almost always inside the agreed
        prefix, i.e. final.  Costs ``fixed_lag`` back-pointer hops.
        """
        if not self._beam:
            return None
        head = len(self._points) - 1
        index = max(0, head - self.fixed_lag)
        node = max(self._beam, key=lambda p: p.log_probability)
        for _ in range(head - index):
            node = node.parent
        candidate = self._steps[index][node.candidate_index]
        return index, self.matcher.candidate_location(candidate)
