"""The fleet simulator: N nodes (of possibly mixed hardware) on one clock.

``Cluster`` composes the pieces — a :class:`~repro.cluster.placement.ModelPlacement`
deciding which nodes can serve which model, a :class:`~repro.cluster.router.Router`
deciding where each arrival goes, and :class:`~repro.cluster.node.ClusterNode`
instances that batch and serve locally.  The simulation is a deterministic
discrete-event loop over two event kinds: request arrivals and
node-batch-finish events; at equal timestamps arrivals are processed first
(matching the single-node engine, which drains arrivals up to the clock
before dispatching), and finish events tie-break by node id.  That loop is
the one the elastic fleets run (:mod:`repro.autoscale._loop`), configured
as a static fleet: no control ticks, replicas in placement order.

A one-node cluster reproduces :meth:`OnlineServingEngine.run` exactly —
the fleet layer adds routing and placement, not new service semantics.
Heterogeneity is additive the same way: passing ``specs`` (one
:class:`~repro.serving.NodeSpec` per node) swaps each node's hardware
latency model, and a fleet of all-StepStone specs reproduces the
homogeneous cluster request for request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.cluster.node import ClusterNode
from repro.cluster.placement import (
    DEFAULT_NODE_CAPACITY_BYTES,
    ModelPlacement,
)
from repro.cluster.router import Router, make_router
from repro.serving.engine import (
    POLICIES,
    CompletedRequest,
    FailedRequest,
    OnlineServingEngine,
    RejectedRequest,
    Request,
    ServingReport,
)
from repro.serving.nodespec import STEPSTONE_NODE, NodeSpec
from repro.sim.stats import MetricsRecorder

if TYPE_CHECKING:
    from repro.sim.failures import FailureTrace

__all__ = ["Cluster", "ClusterReport"]


class _FleetReport:
    """Fleet-wide serving answers shared by the fleet reports.

    Aggregates the per-node :class:`~repro.serving.engine.ServingReport`\\ s
    (``_nodes()``) plus the unrouted-arrival drops.  Every latency query
    asks one recorder (:meth:`_recorder`).  Subclasses are dataclasses
    carrying ``node_reports``, ``dropped``, ``n_dropped``, ``stats`` and
    ``last_arrival_s``.
    """

    def _nodes(self) -> Iterable[ServingReport]:
        return self.node_reports

    def _recorder(self) -> MetricsRecorder:
        """The run recorder of a streaming run; on a full run, the node
        recorders' columns merged at read time, in node order."""
        if self.stats is not None:
            return self.stats
        return MetricsRecorder.merged(rep.stats for rep in self._nodes())

    @property
    def record(self) -> str:
        """The recording mode this report was accumulated under."""
        if self.stats is not None:
            return self.stats.record
        return "full"

    @property
    def completed(self) -> List[CompletedRequest]:
        """Every completed request across the fleet (node order;
        ``record="full"`` only)."""
        return self._recorder().completed

    @property
    def rejected(self) -> List[RejectedRequest]:
        """Every admission-rejected request across the fleet (node order;
        ``record="full"`` only)."""
        return [r for rep in self._nodes() for r in rep.rejected]

    @property
    def failed(self) -> List[FailedRequest]:
        """Every request lost to node failures: queue drops and in-flight
        losses (node order), plus arrivals no surviving replica could
        take (``record="full"`` only)."""
        return [f for rep in self._nodes() for f in rep.failed] + self.dropped

    @property
    def dropped_count(self) -> int:
        """Arrivals dropped with every replica down (works in both modes)."""
        return len(self.dropped) + self.n_dropped

    @property
    def rejected_count(self) -> int:
        """Fleet-wide admission rejections (works in both modes)."""
        return sum(rep.rejected_count for rep in self._nodes())

    @property
    def failed_count(self) -> int:
        """Fleet-wide failure losses, unrouted drops included (both modes)."""
        return sum(rep.failed_count for rep in self._nodes()) + self.dropped_count

    @property
    def offered(self) -> int:
        """Total requests the fleet saw (completed + rejected + failed)."""
        return sum(rep.offered for rep in self._nodes()) + self.dropped_count

    @property
    def served(self) -> int:
        """Total completed requests."""
        return sum(rep.served for rep in self._nodes())

    @property
    def availability(self) -> float:
        """Fraction of offered requests that completed — the goodput
        share surviving admission shedding *and* failure losses (1.0 for
        an empty run)."""
        if self.offered == 0:
            return 1.0
        return self.served / self.offered

    @property
    def latencies_s(self) -> List[float]:
        """Fleet-wide completed latencies, ascending (``record="full"``
        only)."""
        return self._recorder().latencies_s

    def latency_percentile(self, q: float) -> float:
        """Percentile of fleet-wide completed latency: exact nearest-rank
        on full runs, sketch estimate on streaming runs.

        Args:
            q: Percentile in (0, 100].

        Returns:
            Latency seconds (NaN when nothing completed).
        """
        return self._recorder().percentile(q)

    def window_percentile(self, q: float, start_s: float, end_s: float) -> float:
        """Fleet-wide latency percentile over completions finishing in
        ``[start_s, end_s)``; NaN when the window saw none.  Exact on
        full runs, answered from the fleet recorder's window ring on
        streaming runs."""
        return self._recorder().window_percentile(q, start_s, end_s)

    @property
    def p50_s(self) -> float:
        """Median fleet latency, seconds."""
        return self.latency_percentile(50)

    @property
    def p99_s(self) -> float:
        """99th-percentile fleet latency, seconds."""
        return self.latency_percentile(99)

    @property
    def goodput_rps(self) -> float:
        """Sustained rate: completions per second of the offered arrival
        window.  Under overload with SLO shedding this is the comparable
        number across configurations — ``throughput_rps`` divides by the
        drain tail too, which *punishes* a fleet for admitting more work
        right before the window closes."""
        if self.last_arrival_s <= 0:
            return 0.0
        return self.served / self.last_arrival_s


@dataclass
class ClusterReport(_FleetReport):
    """Fleet-level outcome of one simulated run.

    In ``record="full"`` runs (the default) every per-request record is
    reachable through the node reports and fleet-wide statistics are
    exact.  In ``record="streaming"`` runs the ``stats`` recorder — the
    parent every node recorder chained to — answers fleet-wide
    percentiles from sketches, and the per-request list properties raise
    :class:`~repro.sim.stats.RecordingModeError`.
    """

    policy: str
    router: str
    node_reports: List[ServingReport]
    sim_end_s: float = 0.0
    #: Arrival-window end: when the last request arrived (offered load
    #: stops here; the remaining simulated time only drains backlog).
    last_arrival_s: float = 0.0
    #: Per-node busy seconds (service time integrated over the run).
    node_busy_s: List[float] = field(default_factory=list)
    #: Hardware spec per node — present for every ``Cluster.run`` report;
    #: ``None`` only on hand-built reports, where cost is undefined.
    specs: Optional[List[NodeSpec]] = None
    #: Requests that arrived while every replica of their model was down
    #: (failure injection); empty without a failure trace, and kept only
    #: in full-recording runs (streaming runs count them instead).
    dropped: List[FailedRequest] = field(default_factory=list)
    #: Unrouted-arrival drops counted without records (streaming runs).
    n_dropped: int = 0
    #: Kernel events this run processed (simulator diagnostics).
    events_processed: int = 0
    #: The fleet-level recorder of a streaming run (``None`` on full runs,
    #: where exact statistics come from the node recorders' merged
    #: columns instead).
    stats: Optional[MetricsRecorder] = None

    @property
    def throughput_rps(self) -> float:
        """Completions per simulated second, drain included."""
        if self.sim_end_s <= 0:
            return 0.0
        return self.served / self.sim_end_s

    @property
    def mean_utilization(self) -> float:
        """Mean fraction of the run each node spent serving a batch."""
        if self.sim_end_s <= 0 or not self.node_busy_s:
            return 0.0
        return sum(self.node_busy_s) / (self.sim_end_s * len(self.node_busy_s))

    # ------------------------------------------------------------------ #
    # Cost and energy (heterogeneous-fleet economics)
    # ------------------------------------------------------------------ #

    @property
    def hourly_cost(self) -> float:
        """Fleet price in $/hr (NaN when node specs are unknown)."""
        if self.specs is None:
            return math.nan
        return sum(s.hourly_cost for s in self.specs)

    def energy_j(self) -> float:
        """Fleet energy over the run: every node pays its spec's idle
        power for the full horizon and the busy increment while serving
        (NaN when node specs are unknown)."""
        if self.specs is None:
            return math.nan
        busy = self.node_busy_s or [0.0] * len(self.specs)
        return sum(
            spec.energy_j(self.sim_end_s, b) for spec, b in zip(self.specs, busy)
        )

    @property
    def joules_per_request(self) -> float:
        """Fleet energy divided by completed requests (NaN when nothing
        completed or specs are unknown)."""
        if self.specs is None or self.served == 0:
            return math.nan
        return self.energy_j() / self.served

    def served_per_node(self) -> List[int]:
        """Completed-request count per node, node order."""
        return [rep.served for rep in self.node_reports]

    def summary(self) -> str:
        """One-line fleet summary (counts, percentiles, rate, util)."""
        cost = ""
        if self.specs is not None:
            cost = f", ${self.hourly_cost:.2f}/hr"
        return (
            f"{len(self.node_reports)}x{self.policy}/{self.router}: "
            f"{self.served} served, {self.rejected_count} rejected | "
            f"p50 {self.p50_s * 1e3:.2f} ms, p99 {self.p99_s * 1e3:.2f} ms | "
            f"{self.goodput_rps:.0f} req/s, "
            f"util {self.mean_utilization * 100:.0f}%{cost}"
        )


class Cluster:
    """A routed fleet of serving nodes sharing one latency model.

    Args:
        n_nodes: Fleet size; may be omitted when ``specs`` is given.
        policy: StepStone dispatch policy for StepStone nodes (cpu/gpu
            nodes run their only dispatch regardless).
        router: Routing policy name or a :class:`Router` instance.
        engine: Shared latency model; a default engine over the full model
            zoo when omitted.
        placement: Weight placement; defaults to a greedy capacity-aware
            plan over the engine's models.
        replication: Replicas per model for the default placement.
        capacity_bytes: Per-node weight budget for the default placement
            on a homogeneous fleet (ignored when ``specs`` is given —
            each spec's ``memory_bytes`` is used instead).
        max_batch: Per-node batch cap; defaults to the engine's.
        specs: One :class:`~repro.serving.NodeSpec` per node for a
            heterogeneous fleet; ``None`` means all-StepStone (the
            homogeneous fleet this class always simulated).
        record: ``"full"`` keeps exact per-request records (the default
            and the golden-trace contract); ``"streaming"`` accumulates
            flat-memory aggregates for scale runs.
        window_s: Auto-roll width of the streaming recorders' window
            rings (ignored in full mode).
    """

    def __init__(
        self,
        n_nodes: Optional[int] = None,
        policy: str = "hybrid",
        router: "Router | str" = "least-loaded",
        engine: Optional[OnlineServingEngine] = None,
        placement: Optional[ModelPlacement] = None,
        replication: int = 1,
        capacity_bytes: float = DEFAULT_NODE_CAPACITY_BYTES,
        max_batch: Optional[int] = None,
        specs: Optional[Sequence[NodeSpec]] = None,
        record: str = "full",
        window_s: Optional[float] = None,
    ) -> None:
        if record not in ("full", "streaming"):
            raise ValueError(
                f"unknown record mode {record!r}; choose 'full' or 'streaming'"
            )
        self.record = record
        self.window_s = window_s
        if specs is not None:
            specs = list(specs)
            if not specs:
                raise ValueError("specs must name at least one node")
            if n_nodes is None:
                n_nodes = len(specs)
            elif n_nodes != len(specs):
                raise ValueError(
                    f"n_nodes={n_nodes} disagrees with {len(specs)} specs"
                )
            plan_capacity: "float | List[float]" = [s.memory_bytes for s in specs]
        else:
            if n_nodes is None:
                raise ValueError("need n_nodes or specs")
            specs = [STEPSTONE_NODE] * n_nodes
            plan_capacity = capacity_bytes
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        self.engine = engine or OnlineServingEngine()
        self.policy = policy
        self.specs: List[NodeSpec] = specs
        self.router = make_router(router) if isinstance(router, str) else router
        self.placement = placement or ModelPlacement.plan(
            self.engine.models,
            n_nodes=n_nodes,
            replication=replication,
            capacity_bytes=plan_capacity,
        )
        self.nodes = [
            ClusterNode(
                node_id=nid,
                engine=self.engine,
                policy=policy,
                models=set(self.placement.models_on(nid)),
                max_batch=max_batch,
                spec=specs[nid],
            )
            for nid in range(n_nodes)
        ]

    def replicas_for(self, model: str) -> List[ClusterNode]:
        """Nodes hosting ``model``, placement order (primary first)."""
        return [self.nodes[nid] for nid in self.placement.nodes_for(model)]

    def run(
        self,
        requests: Iterable[Request],
        failures: Optional[FailureTrace] = None,
        obs=None,
        fast: bool = False,
    ) -> ClusterReport:
        """Serve an arrival-ordered stream across the fleet.

        Args:
            requests: Timestamped requests (sorted internally).
            failures: Optional outage schedule — a down node loses its
                queue and in-flight batch (recorded as failed requests)
                and leaves the routing set until it recovers; an
                arrival whose every replica is down is dropped at the
                door.
            obs: Optional :class:`~repro.obs.RunObserver` — nodes emit
                ``queued``/``serve``/``rejected``/``failed`` request
                spans and per-dispatch ``batch`` spans, and the event
                loop self-profiles when a profiler is attached.  Default off.
            fast: Accepted and ignored.  Every run takes the kernel's
                one event loop; the keyword stays because existing
                callers still pass it.

        Returns:
            The fleet-wide :class:`ClusterReport`.
        """
        # The fleet loop lives with the elastic fleets it also drives;
        # importing it at module scope would make repro.cluster and
        # repro.autoscale import each other.
        from repro.autoscale._loop import FleetLoop, Pool

        loop = FleetLoop(
            "cluster",
            self,
            {"fleet": Pool(spec=STEPSTONE_NODE, hosted=[])},
            window_s=self.window_s,
            nodes=self.nodes,
            placement=self.placement,
        )
        report = ClusterReport(
            policy=self.policy,
            router=self.router.name,
            node_reports=[],
            specs=list(self.specs),
        )
        return loop.run(report, requests, failures=failures, obs=obs)
