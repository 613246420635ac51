"""Heterogeneous elastic fleets: per-node-type pools scaled independently.

The homogeneous :class:`~repro.autoscale.elastic.ElasticCluster` turns one
node count into a control variable; this module turns a *vector* of
counts into one — a pool per :class:`~repro.serving.NodeSpec`, all serving
the same request stream on one simulated clock, each scaled on its own by
the autoscaler.  That is the datacenter shape the paper's cross-substrate
comparison implies: cheap StepStone sockets carry the baseline load while
expensive, high-throughput GPU nodes are rented only for the peak.

* :class:`NodePool` — bounds and initial size of one node type's pool;
* :class:`HeteroElasticCluster` — the discrete-event simulator: the same
  node lifecycle as the homogeneous elastic fleet (provisioning with a
  weight-copy delay, draining, retiring, control ticks), but membership,
  hosting, and scaling decisions are per pool.  Each pool hosts the
  served models that fit its spec's memory (largest first), so a 12 GB
  GPU pool naturally skips datacenter-scale weights;
* :class:`HeteroAutoscalePolicy` and friends — policies that answer with
  a per-pool target: a static mix, per-pool wrappers around the
  homogeneous policies, and :class:`BaselineBurstPolicy` (fixed baseline
  pool, demand-sized burst pool).  The interface and
  :class:`PerPoolPolicy` live in :mod:`~repro.autoscale.policies`, which
  the homogeneous fleet's run needs, and are re-exported here;
* :class:`HeteroAutoscaleReport` — the cost view: $ paid per pool
  (node-seconds times the spec's hourly price), spec-grounded energy, and
  a per-pool size timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.autoscale._loop import FleetLoop, Pool
from repro.autoscale.policies import ControlObservation, HeteroAutoscalePolicy, PerPoolPolicy
from repro.autoscale.report import AutoscaleReport
from repro.cluster.node import ClusterNode
from repro.cluster.placement import ModelPlacement
from repro.cluster.router import Router, make_router
from repro.serving.engine import POLICIES, OnlineServingEngine, Request
from repro.serving.nodespec import NodeSpec
from repro.sim.failures import FailureTrace
from repro.sim.stats import MetricsRecorder

__all__ = [
    "NodePool",
    "HeteroAutoscalePolicy",
    "StaticMixPolicy",
    "PerPoolPolicy",
    "BaselineBurstPolicy",
    "HeteroAutoscaleReport",
    "HeteroElasticCluster",
]

@dataclass(frozen=True)
class NodePool:
    """One node type's elastic pool.

    Args:
        spec: Hardware of every node in the pool.
        min_nodes: Lower clamp on the pool's owned size (may be 0 for a
            burst-only pool).
        max_nodes: Upper clamp on the pool's owned size.
        initial_nodes: Pool size at t=0 (within the clamps).
    """

    spec: NodeSpec
    min_nodes: int = 0
    max_nodes: int = 16
    initial_nodes: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 0 <= min_nodes <= max_nodes")
        if not self.min_nodes <= self.initial_nodes <= self.max_nodes:
            raise ValueError("initial_nodes must lie in [min_nodes, max_nodes]")


class StaticMixPolicy(HeteroAutoscalePolicy):
    """A fixed composition — the baseline every elastic mix is judged
    against (e.g. the peak-sized plan of
    :class:`~repro.cluster.planner.HeteroCapacityPlanner`).

    Args:
        counts: Pool name -> fixed node count.
    """

    name = "static-mix"

    def __init__(self, counts: Mapping[str, int]) -> None:
        if not counts or any(c < 0 for c in counts.values()):
            raise ValueError("counts must be non-negative, at least one pool")
        self.counts = dict(counts)

    def desired_by_pool(
        self, obs: Mapping[str, ControlObservation]
    ) -> Dict[str, int]:
        """Return the fixed composition regardless of the observation."""
        return dict(self.counts)


class BaselineBurstPolicy(HeteroAutoscalePolicy):
    """Fixed cheap baseline, demand-sized expensive burst capacity.

    The heterogeneous division of labor: the baseline pool (e.g.
    StepStone sockets) stays at a fixed size covering trough traffic, and
    the burst pool (e.g. GPU nodes) is sized every tick for whatever
    *total* offered rate exceeds the baseline's capacity.  Upward moves
    apply immediately (the ramp must be caught within a window);
    downward moves release one burst node per tick after ``patience``
    consecutive windows sized below the current pool, so Poisson noise
    does not flap the expensive nodes.

    Args:
        baseline: Pool name of the always-on capacity.
        burst: Pool name of the elastic capacity.
        baseline_nodes: Fixed baseline pool size.
        baseline_capacity_rps: Steady-state req/s one baseline node
            sustains (see
            :func:`~repro.autoscale.policies.node_capacity_rps`).
        burst_capacity_rps: Steady-state req/s one burst node sustains.
        target: Capacity fraction each node is sized to run at.
        patience: Consecutive down-sized windows before releasing one
            burst node.
    """

    name = "baseline-burst"

    def __init__(
        self,
        baseline: str,
        burst: str,
        baseline_nodes: int,
        baseline_capacity_rps: float,
        burst_capacity_rps: float,
        target: float = 0.75,
        patience: int = 2,
    ) -> None:
        if baseline == burst:
            raise ValueError("baseline and burst must be different pools")
        if baseline_nodes < 1:
            raise ValueError("need at least one baseline node")
        if not (0 < baseline_capacity_rps < math.inf and 0 < burst_capacity_rps < math.inf):
            raise ValueError("per-node capacities must be positive and finite")
        if not 0 < target <= 1:
            raise ValueError("target capacity fraction must be in (0, 1]")
        if patience < 1:
            raise ValueError("patience must be at least one window")
        self.baseline = baseline
        self.burst = burst
        self.baseline_nodes = baseline_nodes
        self.baseline_capacity_rps = baseline_capacity_rps
        self.burst_capacity_rps = burst_capacity_rps
        self.target = target
        self.patience = patience
        self._down_streak = 0

    def reset(self) -> None:
        """Forget the scale-down streak."""
        self._down_streak = 0

    def desired_by_pool(
        self, obs: Mapping[str, ControlObservation]
    ) -> Dict[str, int]:
        """Hold the baseline; size the burst pool for the excess demand."""
        offered = sum(ob.offered_rps for ob in obs.values())
        excess = offered - self.baseline_nodes * self.baseline_capacity_rps * self.target
        sized = max(0, math.ceil(excess / (self.burst_capacity_rps * self.target)))
        current = obs[self.burst].fleet if self.burst in obs else 0
        out = {pool: ob.fleet for pool, ob in obs.items()}
        out[self.baseline] = self.baseline_nodes
        if sized >= current:
            self._down_streak = 0
            out[self.burst] = sized
        else:
            self._down_streak += 1
            if self._down_streak >= self.patience:
                self._down_streak = 0
                out[self.burst] = current - 1
            else:
                out[self.burst] = current
        return out


@dataclass
class HeteroAutoscaleReport(AutoscaleReport):
    """An :class:`~repro.autoscale.report.AutoscaleReport` plus the
    per-pool cost view of a mixed fleet."""

    #: node id -> pool name.
    node_pool: Dict[int, str] = field(default_factory=dict)
    #: pool name -> hardware spec.
    pool_specs: Dict[str, NodeSpec] = field(default_factory=dict)
    #: One row per control tick: ``{"t_s": ..., "<pool>_nodes": owned}``.
    pool_timeline: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-pool recorders of a streaming run (empty on full runs) — each
    #: is the parent of that pool's node recorders, so pool-level
    #: percentiles survive without per-request records.  A single pool's
    #: recorder is the run recorder (``stats``) itself.
    pool_stats: Dict[str, MetricsRecorder] = field(default_factory=dict)

    def node_seconds_by_pool(self) -> Dict[str, float]:
        """Paid machine seconds per pool (provisioning included)."""
        out = {pool: 0.0 for pool in self.pool_specs}
        for nid, life in self.lifetimes.items():
            out[self.node_pool[nid]] += life.seconds(self.sim_end_s)
        return out

    @property
    def cost_usd(self) -> float:
        """Dollars paid over the run: each node's lifetime at its pool's
        hourly price."""
        return sum(
            sec * self.pool_specs[pool].hourly_cost / 3600.0
            for pool, sec in self.node_seconds_by_pool().items()
        )

    @property
    def mean_hourly_cost(self) -> float:
        """Average fleet price in $/hr over the horizon (scale-free: a
        static mix reports exactly its catalog price)."""
        if self.sim_end_s <= 0:
            return 0.0
        return self.cost_usd * 3600.0 / self.sim_end_s

    def energy_j(self, power=None) -> float:
        """Fleet energy; with ``power=None`` each node is charged its own
        spec's idle/busy watts (the heterogeneous grounding), otherwise
        the given :class:`~repro.autoscale.report.FleetPowerModel` is
        applied fleet-wide like the homogeneous report."""
        if power is not None:
            return super().energy_j(power)
        total = 0.0
        for nid, life in self.lifetimes.items():
            spec = self.pool_specs[self.node_pool[nid]]
            total += spec.energy_j(
                life.seconds(self.sim_end_s), self.node_busy_s.get(nid, 0.0)
            )
        return total

    def summary(self) -> str:
        """One-line outcome: serving quality plus dollars."""
        base = super().summary()
        return f"{base}, ${self.cost_usd:.4f} (${self.mean_hourly_cost:.2f}/hr)"


class HeteroElasticCluster:
    """A mixed-substrate fleet whose per-pool sizes an autoscaler drives.

    Event ordering matches the homogeneous fleets exactly (arrivals
    before finishes at equal timestamps, finishes tie-broken by node id),
    and a run under :class:`StaticMixPolicy` with a single all-StepStone
    pool reproduces the homogeneous
    :class:`~repro.autoscale.elastic.ElasticCluster` under a static
    policy.

    Args:
        pools: Pool name -> :class:`NodePool` (name keys the policies and
            reports).
        engine: Shared latency model; a default one when omitted.
        policy: StepStone dispatch policy for StepStone pools.
        router: Routing policy name or instance (``backend-affinity``
            pairs naturally with mixed pools).
        models: Served model names; ``None`` serves the engine's zoo.
            Each pool hosts the served models that fit its spec's memory,
            largest first; every model must fit some pool with
            ``min_nodes >= 1`` so routing never goes dark.
        control_interval_s: Autoscaler tick period.
        provision_base_s: Spin-up seconds before the weight copy.
        copy_gbps: Weight-copy bandwidth into a provisioning node.
        max_batch: Per-node batch cap; defaults to the engine's.
    """

    def __init__(
        self,
        pools: Mapping[str, NodePool],
        engine: Optional[OnlineServingEngine] = None,
        policy: str = "hybrid",
        router: "Router | str" = "least-loaded",
        models: Optional[Iterable[str]] = None,
        control_interval_s: float = 1.0,
        provision_base_s: float = 0.15,
        copy_gbps: float = 10.0,
        max_batch: Optional[int] = None,
        record: str = "full",
    ) -> None:
        if not pools:
            raise ValueError("need at least one pool")
        if record not in ("full", "streaming"):
            raise ValueError(
                f"unknown record mode {record!r}; choose 'full' or 'streaming'"
            )
        self.record = record
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if not 0 < control_interval_s < math.inf:  # NaN fails every comparison
            raise ValueError("control interval must be positive and finite")
        if not (0 <= provision_base_s < math.inf and 0 < copy_gbps < math.inf):
            raise ValueError("finite provision_base_s >= 0 and copy_gbps > 0 required")
        self.engine = engine or OnlineServingEngine()
        self.policy = policy
        self.router = make_router(router) if isinstance(router, str) else router
        names = sorted(models) if models is not None else sorted(self.engine.models)
        unknown = [m for m in names if m not in self.engine.models]
        if unknown:
            raise KeyError(f"models unknown to the engine: {unknown}")
        if not names:
            raise ValueError("need at least one served model")
        self.models = names
        self.pools: Dict[str, NodePool] = dict(pools)
        self.control_interval_s = control_interval_s
        self.provision_base_s = provision_base_s
        self.copy_gbps = copy_gbps
        self.max_batch = max_batch
        # Each pool hosts the served models that fit its spec's memory —
        # the same saturating rule the hetero capacity planner places by.
        pool_order = list(self.pools)
        placement = ModelPlacement.saturate(
            {m: self.engine.models[m] for m in names},
            [self.pools[p].spec for p in pool_order],
        )
        self.hosted: Dict[str, List[str]] = {
            p: placement.models_on(i) for i, p in enumerate(pool_order)
        }
        for m in names:
            anchors = [
                p
                for p, pool in self.pools.items()
                if m in self.hosted[p] and pool.min_nodes >= 1
            ]
            if not anchors:
                raise ValueError(
                    f"model {m!r} is not hosted by any pool with "
                    "min_nodes >= 1; routing could go dark"
                )
        if sum(p.initial_nodes for p in self.pools.values()) <= 0:
            raise ValueError("need at least one initial node across pools")
        # The last run's loop (membership queries read it).
        self._loop = None

    # ------------------------------------------------------------------ #
    # Provisioning model
    # ------------------------------------------------------------------ #

    def pool_weight_bytes(self, pool: str) -> float:
        """Bytes a new node of ``pool`` copies before serving."""
        return float(
            sum(self.engine.models[m].total_weight_bytes for m in self.hosted[pool])
        )

    def provision_delay_s(self, pool: str) -> float:
        """Spin-up plus weight-copy seconds for one new ``pool`` node."""
        return self.provision_base_s + self.pool_weight_bytes(pool) / (
            self.copy_gbps * 1e9
        )


    def replicas_for(self, model: str) -> List[ClusterNode]:
        """Routable (active) nodes of the last run hosting ``model``, id
        order."""
        return self._loop.routable(model) if self._loop is not None else []

    def run(
        self,
        requests: Iterable[Request],
        autoscaler: HeteroAutoscalePolicy,
        failures: Optional[FailureTrace] = None,
        obs=None,
        fast: bool = False,
    ) -> HeteroAutoscaleReport:
        """Serve an arrival-ordered stream while ``autoscaler`` resizes
        every pool each control interval.

        Args:
            requests: Timestamped requests (sorted internally).
            autoscaler: A per-pool policy.
            failures: Optional outage schedule (node ids are spawn
                order) — failed nodes drop their work, leave their
                pool's owned set, and rejoin on recovery.
            obs: Optional :class:`~repro.obs.RunObserver` — every node
                (across all pools, including mid-run spawns) emits
                request lifecycle spans, and the event loop self-profiles
                when a profiler is attached.  Default off.
            fast: Accepted and ignored.  Every run takes the kernel's
                one event loop; the keyword stays because existing
                callers still pass it.

        Returns:
            The :class:`HeteroAutoscaleReport` for the run.
        """
        loop = self._loop = FleetLoop(
            "hetero",
            self,
            {
                name: Pool(
                    spec=pool.spec,
                    hosted=self.hosted[name],
                    min_nodes=pool.min_nodes,
                    max_nodes=pool.max_nodes,
                    initial_nodes=pool.initial_nodes,
                    provision_delay_s=self.provision_delay_s(name),
                )
                for name, pool in self.pools.items()
            },
        )
        report = HeteroAutoscaleReport(
            policy=self.policy,
            autoscaler=autoscaler.name,
            control_interval_s=self.control_interval_s,
            pool_specs={p: pool.spec for p, pool in self.pools.items()},
        )
        loop.run(report, requests, autoscaler, failures=failures, obs=obs)
        report.pool_timeline = loop.timeline
        report.pool_stats = dict(loop.pool_stats)
        report.node_pool = {nid: slot.pool for nid, slot in loop.slots.items()}
        return report
