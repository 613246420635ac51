"""The elastic fleet simulator: nodes join and drain mid-run.

Extends the :mod:`repro.cluster` fleet with a node lifecycle and a
control loop, all expressed as events on the shared :mod:`repro.sim`
kernel:

* **provisioning** — a newly ordered node becomes routable only after a
  provisioning delay modeling weight-copy time (a ``READY`` event): a
  base spin-up plus the hosted models' total weight bytes over a copy
  bandwidth (the placement's per-model bytes are exactly what must
  stream into the node's PIM-enabled DRAM before it can serve);
* **draining** — a node picked for scale-down leaves the routing set
  immediately, finishes its queued work, then retires; it can be
  *reactivated* for free if the autoscaler changes its mind before the
  drain completes (and nodes still provisioning are cancelled first,
  since they never held traffic);
* **control ticks** — every ``control_interval_s`` (a ``CONTROL``
  event) the :class:`~repro.autoscale.policies.AutoscalePolicy` sees a
  windowed observation (arrivals, completions, rejections, exact
  busy-time utilization via :class:`~repro.sim.metrics.BusyWindow`,
  windowed p99) and answers with a desired fleet size, clamped to
  ``[min_nodes, max_nodes]``;
* **failures** — an optional :class:`~repro.sim.failures.FailureTrace`
  injects ``FAIL``/``RECOVER`` events: a failed node drops its queue
  and in-flight batch (counted as failed requests), leaves the owned
  set (so the policy's next tick sees the loss and can order a
  replacement), and rejoins empty on recovery.

Every node replicates the full served-model set — the same convention the
static :class:`~repro.cluster.planner.CapacityPlanner` uses, since a model
pinned to fewer replicas than nodes would cap elasticity regardless of
fleet size.  Event ordering is the kernel's documented total order
(arrivals before control ticks before finishes at equal timestamps,
ties by node id), so an :class:`ElasticCluster` run under a static
policy with the same node count reproduces a
:class:`~repro.cluster.fleet.Cluster` run request for request.  The run
itself is the shared fleet loop (:mod:`repro.autoscale._loop`) with one
pool that hosts every served model.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.autoscale._loop import (
    ACTIVE,
    DRAINING,
    FAILED,
    PROVISIONING,
    RETIRED,
    FleetLoop,
    Pool,
)
from repro.autoscale.policies import AutoscalePolicy, PerPoolPolicy
from repro.autoscale.report import AutoscaleReport
from repro.cluster.node import ClusterNode
from repro.cluster.router import Router, make_router
from repro.serving.engine import POLICIES, OnlineServingEngine, Request
from repro.serving.nodespec import STEPSTONE_NODE

if TYPE_CHECKING:
    from repro.sim.failures import FailureTrace

__all__ = ["ElasticCluster", "NodeState"]

#: Exposed for introspection/tests.
NodeState = (PROVISIONING, ACTIVE, DRAINING, FAILED, RETIRED)

#: The one pool an elastic fleet runs as.
_POOL = "fleet"


class ElasticCluster:
    """A routed fleet whose size an autoscaler adjusts while it serves."""

    def __init__(
        self,
        engine: Optional[OnlineServingEngine] = None,
        policy: str = "hybrid",
        router: "Router | str" = "least-loaded",
        models: Optional[Iterable[str]] = None,
        initial_nodes: int = 1,
        min_nodes: int = 1,
        max_nodes: int = 64,
        control_interval_s: float = 1.0,
        provision_base_s: float = 0.15,
        copy_gbps: float = 10.0,
        max_batch: Optional[int] = None,
        record: str = "full",
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        if record not in ("full", "streaming"):
            raise ValueError(
                f"unknown record mode {record!r}; choose 'full' or 'streaming'"
            )
        self.record = record
        if initial_nodes <= 0:
            raise ValueError("need at least one initial node")
        if not 1 <= min_nodes <= max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if not min_nodes <= initial_nodes <= max_nodes:
            raise ValueError("initial_nodes must lie in [min_nodes, max_nodes]")
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
        self.initial_nodes = initial_nodes
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.control_interval_s = control_interval_s
        self.provision_base_s = provision_base_s
        self.copy_gbps = copy_gbps
        self.max_batch = max_batch
        # The last run's loop (membership queries read it).
        self._loop: Optional[FleetLoop] = None

    # ------------------------------------------------------------------ #
    # Provisioning model
    # ------------------------------------------------------------------ #

    @property
    def weight_bytes(self) -> float:
        """Bytes a new node must copy before serving (all hosted models)."""
        return float(
            sum(self.engine.models[m].total_weight_bytes for m in self.models)
        )

    @property
    def provision_delay_s(self) -> float:
        """Spin-up plus weight-copy time for one new node."""
        return self.provision_base_s + self.weight_bytes / (self.copy_gbps * 1e9)


    def replicas_for(self, model: str) -> List[ClusterNode]:
        """Routable (active) nodes of the last run, id order — full
        replication, so every active node hosts every served model."""
        return self._loop.routable(model) if self._loop is not None else []

    def run(
        self,
        requests: Iterable[Request],
        autoscaler: AutoscalePolicy,
        failures: Optional[FailureTrace] = None,
        presorted: bool = False,
        horizon_s: Optional[float] = None,
        obs=None,
        fast: bool = False,
    ) -> AutoscaleReport:
        """Serve an arrival-ordered stream while ``autoscaler`` resizes the
        fleet every control interval.

        Args:
            requests: Timestamped requests (sorted internally unless
                ``presorted``).
            autoscaler: The sizing policy.
            failures: Optional outage schedule — failed nodes drop their
                work, leave the owned set (so the policy's next
                observation sees the loss), and rejoin on recovery.
            presorted: The stream is already arrival-ordered; consume it
                *lazily*, a chunk at a time, instead of materializing and
                sorting — with ``record="streaming"`` this is what keeps
                a 10M-request run's memory flat (requests exist only
                between generation and completion).  Requires
                ``horizon_s``.
            horizon_s: Arrival horizon for a presorted run — control
                ticks are scheduled up front through ``horizon_s`` plus
                one trailing interval, since a lazy stream's end is
                unknown until it drains.
            obs: Optional :class:`~repro.obs.RunObserver` — every node
                (including ones provisioned mid-run) emits request
                lifecycle spans, and the event loop self-profiles when a
                profiler is attached.  Default off.
            fast: Accepted and ignored.  Every run takes the kernel's
                one event loop; the keyword stays because existing
                callers still pass it.

        Returns:
            The :class:`~repro.autoscale.report.AutoscaleReport`.

        Raises:
            ValueError: If ``presorted`` without a positive, finite
                ``horizon_s`` (raised before the run touches any state).
        """
        self._loop = FleetLoop(
            "elastic",
            self,
            {
                _POOL: Pool(
                    spec=STEPSTONE_NODE,
                    hosted=self.models,
                    min_nodes=self.min_nodes,
                    max_nodes=self.max_nodes,
                    initial_nodes=self.initial_nodes,
                    provision_delay_s=self.provision_delay_s,
                )
            },
        )
        report = AutoscaleReport(
            policy=self.policy,
            autoscaler=autoscaler.name,
            control_interval_s=self.control_interval_s,
        )
        return self._loop.run(
            report,
            requests,
            PerPoolPolicy({_POOL: autoscaler}),
            failures=failures,
            obs=obs,
            presorted=presorted,
            horizon_s=horizon_s,
        )
