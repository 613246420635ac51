"""Node failure/recovery injection: the event type no old loop could host.

A :class:`FailureTrace` is a deterministic schedule of node outages the
serving simulators turn into kernel ``FAIL``/``RECOVER`` events.  The
semantics (implemented by the fleet loops, pinned by ``serve-chaos``):

* at ``start_s`` the victim node goes dark: its queued requests and its
  in-flight batch are lost (recorded as *failed* requests — the batch's
  service never completes, and the node's busy-time credit is truncated
  to the seconds actually served), and the router stops resolving to it;
* while down, arrivals route among the surviving replicas; a model whose
  every replica is down drops its arrivals at the door;
* elastic policies see the loss — a failed node leaves the owned set, so
  the next control tick observes the smaller fleet and can order a
  replacement;
* at ``end_s`` the node rejoins empty (repair time is the outage length,
  so MTTR already covers any state restore) and routable.

Two constructors: :meth:`FailureTrace.scripted` for pinned outages (the
golden chaos scenarios) and :meth:`FailureTrace.poisson` for seeded
MTBF/MTTR sampling per node — exponential up-times and repair times, the
textbook availability model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.sim.kernel import DiscreteEventKernel, EventKind

__all__ = ["Outage", "FailureTrace"]


@dataclass(frozen=True)
class Outage:
    """One node's downtime interval ``[start_s, end_s)``."""

    node_id: int
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if not 0.0 <= self.start_s < self.end_s < math.inf:
            # An outage that never recovers within the run just ends past
            # its horizon; an infinite end would put inf on the clock.
            raise ValueError("need 0 <= start_s < end_s, all finite")

    @property
    def duration_s(self) -> float:
        """Seconds the node is down."""
        return self.end_s - self.start_s


class FailureTrace:
    """A deterministic outage schedule over a simulation's node ids.

    Node ids name *spawn order*: a static fleet's nodes are ``0..n-1``,
    an elastic fleet's initial nodes are ``0..initial-1`` and later
    spawns count up.  An outage naming a node that does not exist (or is
    not serving) when it strikes is a recorded no-op — this keeps one
    trace meaningful across fleets of different shapes, which is exactly
    how ``serve-chaos`` compares a static and an elastic fleet under the
    *same* failures.
    """

    def __init__(self, outages: Iterable[Outage]) -> None:
        self.outages: Tuple[Outage, ...] = tuple(
            sorted(outages, key=lambda o: (o.start_s, o.node_id, o.end_s))
        )
        by_node: dict = {}
        for o in self.outages:
            prev = by_node.get(o.node_id)
            if prev is not None and o.start_s < prev:
                raise ValueError(
                    f"overlapping outages for node {o.node_id}: "
                    f"{o.start_s} < {prev}"
                )
            by_node[o.node_id] = o.end_s

    @classmethod
    def scripted(cls, outages: Sequence[Tuple[int, float, float]]) -> "FailureTrace":
        """A pinned schedule from ``(node_id, start_s, end_s)`` triples.

        Args:
            outages: The downtime intervals, any order.

        Returns:
            The trace (sorted, overlap-checked per node).
        """
        return cls(Outage(nid, t0, t1) for nid, t0, t1 in outages)

    @classmethod
    def poisson(
        cls,
        n_nodes: int,
        mtbf_s: float,
        mttr_s: float,
        horizon_s: float,
        seed: int = 0,
    ) -> "FailureTrace":
        """Seeded exponential up/down cycling per node.

        Each node alternates exponentially distributed up-times (mean
        ``mtbf_s``) and repair times (mean ``mttr_s``) from t=0.  No
        outage *starts* at or after the horizon, but a repair begun
        before it may finish past it (events beyond the workload's tail
        are harmless no-ops).  Steady-state availability of one node is
        ``mtbf / (mtbf + mttr)``.

        Args:
            n_nodes: Nodes 0..n-1 draw independent outage processes.
            mtbf_s: Mean seconds between failures (up-time).
            mttr_s: Mean seconds to repair (down-time).
            horizon_s: No outage starts at or after this time.
            seed: RNG seed; same seed, same trace.

        Returns:
            The sampled trace.
        """
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        if mtbf_s <= 0 or mttr_s <= 0 or horizon_s <= 0:
            raise ValueError("mtbf_s, mttr_s, and horizon_s must be positive")
        outages: List[Outage] = []
        for nid in range(n_nodes):
            rng = random.Random(seed * 1_000_003 + nid)
            t = 0.0
            while True:
                t += rng.expovariate(1.0 / mtbf_s)
                if t >= horizon_s:
                    break
                down = rng.expovariate(1.0 / mttr_s)
                outages.append(Outage(nid, t, t + down))
                t += down
        return cls(outages)

    def __len__(self) -> int:
        return len(self.outages)

    def schedule_on(self, kernel: DiscreteEventKernel) -> None:
        """Emit this trace as FAIL/RECOVER events on a kernel.

        Args:
            kernel: The run's kernel; each outage becomes one ``FAIL`` at
                its start and one ``RECOVER`` at its end, tie-broken by
                node id like every other event.
        """
        for o in self.outages:
            kernel.schedule(o.start_s, EventKind.FAIL, o.node_id)
            kernel.schedule(o.end_s, EventKind.RECOVER, o.node_id)
