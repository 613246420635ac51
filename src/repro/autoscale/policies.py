"""Autoscaler policies: map windowed fleet observations to a node target.

Every control interval the elastic cluster hands the policy one
:class:`ControlObservation` — the window's offered/completed/rejected
counts, the windowed p99, utilization, and backlog — and the policy
answers with the *desired* fleet size (active + provisioning nodes).  The
cluster clamps the answer to its ``[min_nodes, max_nodes]`` bounds and
orders or drains the difference.

Three families (plus the static baseline):

* :class:`TargetUtilizationPolicy` — classic reactive scaling: size the
  fleet so measured busy-fraction sits at a target, with a hysteresis band
  so scale-down needs real slack.
* :class:`SLOFeedbackPolicy` — windowed p99 feedback against an explicit
  latency SLO: additive-increase on violation, cautious decrease when the
  tail is comfortable, and a time-local *floor memory* of node counts that
  recently violated (so the policy converges to the minimum feasible count
  instead of oscillating around it — the property the capacity-planner
  cross-check relies on).
* :class:`PredictiveTracePolicy` — trace lookahead: provision for the peak
  rate over the next ``lookahead_s`` seconds (covering the provisioning
  delay) divided by a per-node capacity estimate.

All policies are pure state machines over observations; ``reset()``
restores the initial state before a run.

The per-pool interface every fleet loop drives,
:class:`HeteroAutoscalePolicy`, lives here too, with
:class:`PerPoolPolicy`, which wraps one homogeneous policy per pool (the
homogeneous elastic fleet is its one-pool case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.serving.engine import OnlineServingEngine
from repro.serving.nodespec import NodeSpec

if TYPE_CHECKING:
    from repro.autoscale.traces import RateTrace

__all__ = [
    "ControlObservation",
    "AutoscalePolicy",
    "StaticPolicy",
    "TargetUtilizationPolicy",
    "SLOFeedbackPolicy",
    "PredictiveTracePolicy",
    "HeteroAutoscalePolicy",
    "PerPoolPolicy",
    "node_capacity_rps",
]


@dataclass(frozen=True)
class ControlObservation:
    """What the autoscaler sees at one control tick."""

    #: Tick instant (end of the observation window), seconds.
    t: float
    #: Window length, seconds.
    interval_s: float
    #: Node counts by lifecycle state at the tick.
    active: int
    provisioning: int
    draining: int
    #: Requests routed / completed / rejected during the window.
    arrivals: int
    completions: int
    rejections: int
    #: Nearest-rank p99 latency of the window's completions (NaN if none).
    window_p99_s: float
    #: Busy fraction of the serving set (active + draining nodes) over the
    #: window, clamped to [0, 1]; approximate while membership changes.
    utilization: float
    #: Queued + in-flight requests across the fleet at the tick.
    backlog: int
    #: Nodes down with an injected failure at the tick (they left the
    #: owned set, so a fixed desired size orders a replacement).
    failed: int = 0

    @property
    def fleet(self) -> int:
        """Nodes owned at the tick (active + still provisioning)."""
        return self.active + self.provisioning

    @property
    def offered_rps(self) -> float:
        """Arrival rate measured over the window, req/s."""
        return self.arrivals / self.interval_s if self.interval_s > 0 else 0.0


class AutoscalePolicy:
    """Interface: desired fleet size from one windowed observation."""

    name = "base"

    def desired_nodes(self, obs: ControlObservation) -> int:
        """Desired fleet size (active + provisioning) after one tick.

        Args:
            obs: The windowed fleet observation at this control tick.

        Returns:
            The desired node count (the cluster clamps it to bounds).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear run-local state (called once at the start of each run)."""


class StaticPolicy(AutoscalePolicy):
    """A fixed fleet — the baseline every elastic policy is judged against."""

    name = "static"

    def __init__(self, nodes: int) -> None:
        if nodes <= 0:
            raise ValueError("static fleet needs at least one node")
        self.nodes = nodes

    def desired_nodes(self, obs: ControlObservation) -> int:
        """The fixed fleet size, regardless of the observation."""
        return self.nodes


class TargetUtilizationPolicy(AutoscalePolicy):
    """Reactive demand-based scaling toward a target capacity fraction.

    Busy-fraction is a *broken* scaling signal under batched serving:
    spreading the same offered load over more nodes shrinks each node's
    batches, and smaller batches cost more service time per request (the
    weight-streaming economy of §V-A), so lightly loaded nodes still look
    nearly 100% busy and a busy-fraction controller rides straight into
    its node cap.  This policy therefore measures *demand*: the window's
    offered rate against a per-node capacity estimate
    (:func:`node_capacity_rps`), sized so each node runs at ``target`` of
    capacity — ``desired = ceil(offered_rps / (target x capacity_rps))``.

    Upward moves apply immediately (a ramp is caught within one window);
    downward moves release one node per tick and only after ``patience``
    consecutive windows sized below the current fleet, so Poisson noise
    does not flap the fleet.
    """

    name = "target-util"

    def __init__(
        self,
        capacity_rps: float,
        target: float = 0.70,
        patience: int = 2,
    ) -> None:
        if capacity_rps <= 0:
            raise ValueError("per-node capacity must be positive")
        if not 0 < target <= 1:
            raise ValueError("target capacity fraction must be in (0, 1]")
        if patience < 1:
            raise ValueError("patience must be at least one window")
        self.capacity_rps = capacity_rps
        self.target = target
        self.patience = patience
        self._down_streak = 0

    def reset(self) -> None:
        """Forget the scale-down streak."""
        self._down_streak = 0

    def desired_nodes(self, obs: ControlObservation) -> int:
        """Demand-sized fleet: offered rate over per-node target capacity."""
        sized = max(1, math.ceil(obs.offered_rps / (self.target * self.capacity_rps)))
        if sized >= obs.fleet:
            self._down_streak = 0
            return sized
        self._down_streak += 1
        if self._down_streak >= self.patience:
            self._down_streak = 0
            return obs.fleet - 1
        return obs.fleet


class SLOFeedbackPolicy(AutoscalePolicy):
    """Windowed-p99 feedback against an explicit latency SLO.

    * **Violation** (window p99 over the SLO, or rejections with no
      completions): remember the current fleet size as recently infeasible
      (the *floor memory*) and scale up one node.
    * **Comfort** (window p99 under ``down_margin x SLO``, or an idle
      window with no rejections) held for ``patience`` consecutive
      windows: *probe* one node fewer — unless that count violated within
      the last ``floor_ttl_s`` seconds, in which case hold.  A failed
      probe costs a brief violation, but its floor mark is what turns
      hunt-and-oscillate into convergence on the minimum feasible count;
      the TTL keeps the memory time-local so a count that was infeasible
      at the diurnal peak can be retried at the trough.
    * For ``settle_s`` seconds after an *upward* move the policy holds and
      marks nothing: the violating backlog inherited from the smaller fleet
      is still draining, and blaming (or growing) the new count on it would
      overshoot.  Downward probes get no such grace — a violation right
      after trying ``n - 1`` is exactly the evidence the floor memory
      needs.
    """

    name = "slo-feedback"

    def __init__(
        self,
        p99_slo_s: float,
        down_margin: float = 0.75,
        patience: int = 2,
        settle_s: float = 2.0,
        floor_ttl_s: float = math.inf,
    ) -> None:
        if p99_slo_s <= 0:
            raise ValueError("p99 SLO must be positive")
        if not 0 < down_margin <= 1:
            raise ValueError("down_margin must be in (0, 1]")
        if patience < 1:
            raise ValueError("patience must be at least one window")
        self.p99_slo_s = p99_slo_s
        self.down_margin = down_margin
        self.patience = patience
        self.settle_s = settle_s
        self.floor_ttl_s = floor_ttl_s
        self._violated_at: Dict[int, float] = {}
        self._comfort_streak = 0
        self._last_up_t = -math.inf

    def reset(self) -> None:
        """Clear the floor memory, comfort streak, and settle timer."""
        self._violated_at.clear()
        self._comfort_streak = 0
        self._last_up_t = -math.inf

    def _floor(self, t: float) -> int:
        """Largest fleet size with a live (un-expired) violation mark."""
        live = [
            n
            for n, when in self._violated_at.items()
            if t - when <= self.floor_ttl_s
        ]
        return max(live, default=0)

    def desired_nodes(self, obs: ControlObservation) -> int:
        """One up on violation, one probed down after sustained comfort."""
        settling = obs.t - self._last_up_t < self.settle_s
        p99 = obs.window_p99_s
        violated = (p99 == p99 and p99 > self.p99_slo_s) or (
            obs.completions == 0 and obs.rejections > 0
        )
        comfortable = not violated and (
            p99 != p99 or p99 <= self.down_margin * self.p99_slo_s
        )
        if violated:
            self._comfort_streak = 0
            if settling:
                return obs.fleet  # inherited backlog is still draining
            self._violated_at[obs.fleet] = obs.t
            self._last_up_t = obs.t
            return obs.fleet + 1
        if comfortable:
            self._comfort_streak += 1
        else:
            self._comfort_streak = 0
        if (
            self._comfort_streak >= self.patience
            and obs.fleet - 1 > self._floor(obs.t)
            and obs.fleet > 1
        ):
            self._comfort_streak = 0
            return obs.fleet - 1
        return obs.fleet


class PredictiveTracePolicy(AutoscalePolicy):
    """Trace-lookahead provisioning: cover the worst rate coming up.

    Knows the offered :class:`~repro.autoscale.traces.RateTrace` (a
    provider forecasting its own diurnal pattern) and a per-node capacity
    estimate; each tick it provisions ``ceil(headroom x peak_rate(t, t +
    lookahead_s) / capacity)`` nodes.  ``lookahead_s`` should be at least
    the provisioning delay, so capacity is ready *before* the ramp
    arrives.
    """

    name = "predictive"

    def __init__(
        self,
        trace: RateTrace,
        capacity_rps: float,
        lookahead_s: float,
        headroom: float = 1.2,
    ) -> None:
        if capacity_rps <= 0:
            raise ValueError("per-node capacity must be positive")
        if lookahead_s < 0:
            raise ValueError("lookahead must be non-negative")
        if headroom < 1.0:
            raise ValueError("headroom must be at least 1.0")
        self.trace = trace
        self.capacity_rps = capacity_rps
        self.lookahead_s = lookahead_s
        self.headroom = headroom

    def desired_nodes(self, obs: ControlObservation) -> int:
        """Provision for the trace's peak over the lookahead window."""
        peak = self.trace.peak_rate(obs.t, obs.t + self.lookahead_s)
        return max(1, math.ceil(self.headroom * peak / self.capacity_rps))


class HeteroAutoscalePolicy:
    """Interface: per-pool desired sizes from per-pool observations."""

    name = "hetero-base"

    def desired_by_pool(
        self, obs: Mapping[str, ControlObservation]
    ) -> Dict[str, int]:
        """Desired owned size per pool.

        Args:
            obs: Pool name -> that pool's windowed observation (its
                ``arrivals`` count the requests routed to the pool).

        Returns:
            Pool name -> desired node count (clamped by the cluster).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear run-local state (called once at the start of each run)."""


class PerPoolPolicy(HeteroAutoscalePolicy):
    """Run one homogeneous autoscale policy per pool, independently.

    Args:
        policies: Pool name -> an
            :class:`~repro.autoscale.policies.AutoscalePolicy` that sees
            only that pool's observation.  Pools without a policy hold
            their current size.
    """

    name = "per-pool"

    def __init__(self, policies: Mapping[str, AutoscalePolicy]) -> None:
        if not policies:
            raise ValueError("need at least one pool policy")
        self.policies = dict(policies)

    def reset(self) -> None:
        """Reset every wrapped policy."""
        for p in self.policies.values():
            p.reset()

    def desired_by_pool(
        self, obs: Mapping[str, ControlObservation]
    ) -> Dict[str, int]:
        """Delegate each pool's sizing to its wrapped policy."""
        out: Dict[str, int] = {}
        for pool, ob in obs.items():
            policy = self.policies.get(pool)
            out[pool] = policy.desired_nodes(ob) if policy else ob.fleet
        return out


def node_capacity_rps(
    engine: OnlineServingEngine,
    mix: Mapping[str, float],
    policy: str,
    batch: Optional[int] = None,
    spec: Optional["NodeSpec"] = None,
) -> float:
    """Steady-state req/s one node sustains on a traffic mix.

    At full batches the node serves ``batch / batch_latency`` of each model;
    a mix costs the share-weighted harmonic combination (time to serve one
    request averaged over the mix).  This is the per-node capacity estimate
    the predictive and baseline-burst policies divide by.

    With a ``spec``, mix models that do not fit the node's memory are
    excluded — the node will never host them (the elastic pools and the
    saturating placement both skip them), so its capacity covers only the
    traffic share it can actually absorb, mirroring
    :meth:`~repro.cluster.planner.HeteroCapacityPlanner.capacity_rps`.

    Args:
        engine: The shared latency model.
        mix: Model name -> traffic share (normalized internally).
        policy: StepStone dispatch policy (``cpu``/``pim``/``hybrid``).
        batch: Batch size the estimate assumes; defaults to the engine cap.
        spec: Node hardware; ``None`` means the default StepStone node.

    Returns:
        Requests per second at steady state.

    Raises:
        ValueError: If the shares do not sum positive, or no mix model
            fits the spec's memory.
    """
    capacity = engine.mix_capacity_rps(mix, policy, batch=batch, spec=spec)
    if capacity <= 0:
        raise ValueError(
            f"no mix model fits the {spec.name if spec else 'node'} memory"
        )
    return capacity
