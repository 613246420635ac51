"""Capacity planning: how many nodes — and of which hardware — does a
workload need?

Two planners answer the provisioning question the paper's cost argument
implies:

* :class:`CapacityPlanner` — the homogeneous question: given a traffic
  mix (per-model request rates), a p99 latency SLO, and a per-node
  dispatch policy (``cpu`` / ``pim`` / ``hybrid``), find the minimum
  StepStone fleet size that sustains the load.  Feasibility at a node
  count is decided by simulating a seeded Poisson stream of the mix
  against the fleet (no admission drops — the planner wants the *raw*
  queueing tail) and checking the fleet-wide p99 against the SLO.  More
  nodes split the same offered load further, so feasibility is monotone
  in the node count and a doubling search followed by binary search finds
  the frontier in O(log n) simulations.

* :class:`HeteroCapacityPlanner` — the paper's *cross-substrate* question
  at fleet scale (Figs. 6/8 ask it per GEMM): what **mix** of StepStone,
  CPU, and GPU nodes serves this traffic cheapest in $/hr under the SLO?
  Feasibility is not monotone in any single count once substrates mix, so
  the search first sizes each homogeneous fleet (binary search as above),
  takes the cheapest one as a cost ceiling, then enumerates every mixed
  composition under that ceiling in ascending cost order — pruning
  compositions whose optimistic full-batch capacity cannot carry the
  offered rate — and simulates until the first (hence cheapest) feasible
  mix.  The result can therefore never cost more than the best
  homogeneous fleet, and both $/hr and J/request are reported.

All simulations share one engine, so the per-batch latency model is paid
once across the whole search.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.fleet import Cluster, ClusterReport
from repro.cluster.placement import (
    DEFAULT_NODE_CAPACITY_BYTES,
    ModelPlacement,
    PlacementError,
)
from repro.serving.engine import (
    OnlineServingEngine,
    Request,
    merge_streams,
    poisson_requests,
)
from repro.serving.nodespec import DEFAULT_CATALOG, NodeSpec
from repro.sim.analytic import AnalyticCapacityModel, MGkEstimate

__all__ = [
    "CapacityPlan",
    "CapacityPlanner",
    "HeteroCapacityPlan",
    "HeteroCapacityPlanner",
]


def _frontier(feasible: Callable[[int], bool], max_nodes: int) -> Optional[int]:
    """The smallest count in ``[1, max_nodes]`` a monotone ``feasible``
    accepts, or ``None`` when even ``max_nodes`` is infeasible.

    Doubles from one until feasible, then bisects between the largest
    infeasible and the smallest feasible count probed: at most
    ``2 * ceil(log2(max_nodes)) + 1`` probes.
    """
    lo, hi = 0, 1  # lo: largest known-infeasible count
    while not feasible(hi):
        if hi >= max_nodes:
            return None
        lo = hi
        hi = min(2 * hi, max_nodes)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class CapacityPlan:
    """Outcome of one minimum-node search."""

    policy: str
    router: str
    target_rps: float
    p99_slo_s: float
    nodes: int
    #: The winning probe's simulation — ``None`` in analytic mode, which
    #: never runs the DES.
    report: Optional[ClusterReport] = None
    #: (node count, feasible?, p99 seconds) for every probe, search
    #: order.  In analytic mode the p99 is the closed-form estimate.
    probes: List[Tuple[int, bool, float]] = field(default_factory=list)
    #: The winning probe's closed-form estimate (analytic mode only).
    analytic: Optional[MGkEstimate] = None


class CapacityPlanner:
    """Binary-search fleet sizing for a traffic mix under a p99 SLO.

    Args:
        mix: Model name -> traffic share (normalized internally).
        engine: Shared latency model; a default one when omitted.
        router: Routing policy for every probed fleet.
        replication: Replicas per model; ``None`` (default) replicates
            every mix model on every node — the planner is sizing
            capacity, so a model pinned to fewer replicas than nodes
            would cap its throughput regardless of fleet size.
        capacity_bytes: Per-node weight budget for probe placements.
        n_requests: Arrivals per feasibility probe (before the
            ``window_slos`` stretch).
        window_slos: Probe streams are stretched to at least this many
            SLOs of arrivals: a fleet that is slowly falling behind looks
            fine over a window shorter than the latency bound.
        seed: Stream seed (same seed, same probes, same plan).
        mode: ``"sim"`` (default) decides feasibility by simulation;
            ``"analytic"`` uses the closed-form M/G/k model of
            :mod:`repro.sim.analytic` — instant probes, no DES run, and
            a plan whose ``report`` is ``None`` but whose ``analytic``
            field carries the winning estimate.
        analytic_safety: Multiplier on the analytic p99 before the SLO
            comparison (analytic mode only).  The approximation can sit
            under the simulated tail at moderate utilization; the safety
            factor keeps the analytic plan at least as large as the DES
            plan on the serve-cluster anchor scenarios — deliberately
            conservative, never optimistic.
    """

    def __init__(
        self,
        mix: Mapping[str, float],
        engine: Optional[OnlineServingEngine] = None,
        router: str = "least-loaded",
        replication: Optional[int] = None,
        capacity_bytes: float = DEFAULT_NODE_CAPACITY_BYTES,
        n_requests: int = 400,
        window_slos: float = 5.0,
        seed: int = 0,
        mode: str = "sim",
        analytic_safety: float = 2.0,
    ) -> None:
        if not mix:
            raise ValueError("traffic mix must name at least one model")
        total = float(sum(mix.values()))
        if total <= 0 or any(w < 0 for w in mix.values()):
            raise ValueError("traffic shares must be non-negative, sum > 0")
        self.mix: Dict[str, float] = {m: w / total for m, w in mix.items() if w > 0}
        self.engine = engine or OnlineServingEngine()
        for model in self.mix:
            if model not in self.engine.models:
                raise KeyError(f"mix model {model!r} unknown to the engine")
        self.router = router
        self.replication = replication
        self.capacity_bytes = capacity_bytes
        self.n_requests = n_requests
        self.window_slos = window_slos
        self.seed = seed
        if mode not in ("sim", "analytic"):
            raise ValueError(f"mode must be 'sim' or 'analytic', not {mode!r}")
        if analytic_safety < 1.0:
            raise ValueError("analytic_safety below 1.0 would plan optimistically")
        self.mode = mode
        self.analytic_safety = analytic_safety

    def analytic_model(self, policy: str) -> AnalyticCapacityModel:
        """The closed-form M/G/k model for this mix under ``policy``."""
        return AnalyticCapacityModel(self.engine, self.mix, policy)

    def stream(
        self,
        target_rps: float,
        slo_s: Optional[float] = None,
        duration_s: Optional[float] = None,
    ) -> List[Request]:
        """Seeded Poisson mix totalling ``target_rps``.

        Args:
            target_rps: Total offered rate across the mix.
            slo_s: Optional per-request SLO carried by the stream.
            duration_s: Stream length; the default yields about
                ``n_requests`` arrivals (scale-free in the rate).

        Returns:
            One arrival-ordered request stream.
        """
        if target_rps <= 0:
            raise ValueError("target rate must be positive")
        if duration_s is None:
            duration_s = self.n_requests / target_rps
        streams = [
            poisson_requests(
                model,
                rate_rps=share * target_rps,
                duration_s=duration_s,
                seed=self.seed + i,
                slo_s=slo_s,
                start_id=i * 1_000_000,
            )
            for i, (model, share) in enumerate(sorted(self.mix.items()))
        ]
        return merge_streams(*streams)

    def _cluster(self, n_nodes: int, policy: str) -> Cluster:
        rep = n_nodes if self.replication is None else min(self.replication, n_nodes)
        placement = ModelPlacement.plan(
            {m: self.engine.models[m] for m in self.mix},
            n_nodes=n_nodes,
            replication=rep,
            capacity_bytes=self.capacity_bytes,
        )
        return Cluster(
            n_nodes,
            policy=policy,
            router=self.router,
            engine=self.engine,
            placement=placement,
        )

    def evaluate(
        self,
        n_nodes: int,
        policy: str,
        target_rps: float,
        duration_s: Optional[float] = None,
    ) -> ClusterReport:
        """Simulate the mix at ``target_rps`` on an ``n_nodes`` fleet."""
        return self._cluster(n_nodes, policy).run(
            self.stream(target_rps, duration_s=duration_s)
        )

    def sustains(
        self, n_nodes: int, policy: str, target_rps: float, p99_slo_s: float
    ) -> Tuple[bool, ClusterReport]:
        """Does the fleet hold fleet-wide p99 under the SLO at this load?

        Returns:
            ``(feasible, report)`` for one probe simulation.
        """
        duration = max(self.n_requests / target_rps, self.window_slos * p99_slo_s)
        report = self.evaluate(n_nodes, policy, target_rps, duration_s=duration)
        return report.p99_s <= p99_slo_s, report

    def min_nodes(
        self,
        policy: str,
        target_rps: float,
        p99_slo_s: float,
        max_nodes: int = 64,
    ) -> CapacityPlan:
        """Minimum node count meeting the SLO at ``target_rps``.

        Doubles until feasible, then binary-searches the frontier.

        Args:
            policy: StepStone dispatch policy to size for.
            target_rps: Offered rate of the mix.
            p99_slo_s: Fleet-wide p99 bound, seconds.
            max_nodes: Abort threshold for the doubling search.

        Returns:
            The :class:`CapacityPlan` at the feasibility frontier.

        Raises:
            ValueError: If even ``max_nodes`` nodes cannot hold the SLO.
        """
        if p99_slo_s <= 0:
            raise ValueError("p99 SLO must be positive")
        probes: List[Tuple[int, bool, float]] = []
        reports: Dict[int, ClusterReport] = {}
        estimates: Dict[int, MGkEstimate] = {}

        if self.mode == "analytic":
            model = self.analytic_model(policy)

            def feasible(n: int) -> bool:
                # Saturated probes warn by design when a user asks for a
                # single estimate; a search *expects* to straddle the
                # saturation frontier, so the warning is noise here.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    est = model.estimate(n, target_rps)
                ok = (
                    not est.clamped
                    and est.p99_s * self.analytic_safety <= p99_slo_s
                )
                probes.append((n, ok, est.p99_s))
                estimates[n] = est
                return ok

        else:

            def feasible(n: int) -> bool:
                ok, report = self.sustains(n, policy, target_rps, p99_slo_s)
                probes.append((n, ok, report.p99_s))
                reports[n] = report
                return ok

        hi = _frontier(feasible, max_nodes)
        if hi is None:
            raise ValueError(
                f"{policy}: even {max_nodes} nodes miss the "
                f"{p99_slo_s * 1e3:.1f} ms p99 SLO at {target_rps:.0f} req/s"
            )
        return CapacityPlan(
            policy=policy,
            router=self.router,
            target_rps=target_rps,
            p99_slo_s=p99_slo_s,
            nodes=hi,
            report=reports.get(hi),
            probes=probes,
            analytic=estimates.get(hi),
        )

    def throughput_curve(
        self,
        node_counts: List[int],
        policy: str,
        offered_rps: float,
        slo_s: Optional[float] = None,
    ) -> List[Tuple[int, ClusterReport]]:
        """Fleet reports over ``node_counts`` at a fixed offered load — the
        scaling curve behind the ``serve-cluster`` chart (plot each
        report's ``goodput_rps``).  With ``slo_s`` set the stream carries
        that SLO, so overloaded fleets shed the hopeless tail instead of
        queueing it forever."""
        stream = self.stream(offered_rps, slo_s=slo_s)
        return [(n, self._cluster(n, policy).run(stream)) for n in node_counts]


# ---------------------------------------------------------------------- #
# Heterogeneous (cost-minimizing) planning
# ---------------------------------------------------------------------- #


@dataclass
class HeteroCapacityPlan:
    """Outcome of one cheapest-mixed-fleet search."""

    policy: str
    router: str
    target_rps: float
    p99_slo_s: float
    #: Spec name -> node count of the winning fleet (zero counts omitted).
    counts: Dict[str, int]
    #: Spec name -> the catalog spec (for cost/power lookups).
    specs: Dict[str, NodeSpec]
    report: ClusterReport
    #: Spec name -> homogeneous minimum count, or None when that backend
    #: cannot meet the SLO at all within the search bound.
    homogeneous: Dict[str, Optional[int]] = field(default_factory=dict)
    #: (counts, simulated?, feasible?, p99 seconds, $/hr) per candidate,
    #: search order.  Pruned candidates carry simulated=False, p99=NaN.
    probes: List[Tuple[Dict[str, int], bool, bool, float, float]] = field(
        default_factory=list
    )

    @property
    def hourly_cost(self) -> float:
        """Winning fleet price in $/hr."""
        return sum(self.specs[n].hourly_cost * c for n, c in self.counts.items())

    @property
    def total_nodes(self) -> int:
        """Winning fleet size across all node types."""
        return sum(self.counts.values())

    @property
    def joules_per_request(self) -> float:
        """Energy efficiency of the winning fleet's probe run."""
        return self.report.joules_per_request

    def homogeneous_cost(self, name: str) -> float:
        """$/hr of the best all-``name`` fleet (inf when infeasible)."""
        n = self.homogeneous.get(name)
        if n is None:
            return math.inf
        return n * self.specs[name].hourly_cost

    def summary(self) -> str:
        """One-line plan summary: the mix, its price, and its tail."""
        mix = " + ".join(f"{c}x{n}" for n, c in sorted(self.counts.items()))
        return (
            f"{mix} @ {self.target_rps:.0f} req/s under "
            f"{self.p99_slo_s * 1e3:.0f} ms p99: ${self.hourly_cost:.2f}/hr, "
            f"p99 {self.report.p99_s * 1e3:.1f} ms, "
            f"{self.joules_per_request:.2f} J/req"
        )


class HeteroCapacityPlanner(CapacityPlanner):
    """Cheapest mixed fleet (in $/hr) meeting a p99 SLO at a target rate.

    Args:
        mix: Model name -> traffic share (normalized internally).
        catalog: The node types the search may buy (one
            :class:`~repro.serving.NodeSpec` per distinct name).
        engine: Shared latency model; a default one when omitted.
        router: Routing policy for every probed fleet.
        n_requests: Arrivals per feasibility probe.
        window_slos: Minimum probe length in SLOs (see
            :class:`CapacityPlanner`).
        seed: Stream seed.
    """

    def __init__(
        self,
        mix: Mapping[str, float],
        catalog: Sequence[NodeSpec] = DEFAULT_CATALOG,
        engine: Optional[OnlineServingEngine] = None,
        router: str = "least-loaded",
        n_requests: int = 400,
        window_slos: float = 5.0,
        seed: int = 0,
    ) -> None:
        super().__init__(
            mix,
            engine=engine,
            router=router,
            n_requests=n_requests,
            window_slos=window_slos,
            seed=seed,
        )
        if not catalog:
            raise ValueError("catalog must name at least one node spec")
        self.catalog: Dict[str, NodeSpec] = {}
        for spec in catalog:
            if spec.name in self.catalog:
                raise ValueError(f"duplicate catalog spec name {spec.name!r}")
            self.catalog[spec.name] = spec

    # ------------------------------------------------------------------ #
    # Fleet construction and per-spec capacity estimates
    # ------------------------------------------------------------------ #

    def _specs_for(self, counts: Mapping[str, int]) -> List[NodeSpec]:
        specs: List[NodeSpec] = []
        for name in self.catalog:  # catalog order keeps node ids stable
            specs.extend([self.catalog[name]] * counts.get(name, 0))
        if not specs:
            raise ValueError("fleet composition is empty")
        return specs

    def fleet(self, counts: Mapping[str, int], policy: str) -> Cluster:
        """Build the mixed fleet for a composition.

        Args:
            counts: Spec name -> node count (names from the catalog).
            policy: StepStone dispatch policy for StepStone nodes.

        Returns:
            A :class:`Cluster` with a saturating placement: every node
            hosts every mix model that fits its memory.
        """
        unknown = sorted(set(counts) - set(self.catalog))
        if unknown:
            raise KeyError(f"specs not in the catalog: {unknown}")
        specs = self._specs_for(counts)
        placement = ModelPlacement.saturate(
            {m: self.engine.models[m] for m in self.mix}, specs
        )
        return Cluster(
            policy=policy,
            router=self.router,
            engine=self.engine,
            placement=placement,
            specs=specs,
        )

    def capacity_rps(
        self, spec: NodeSpec, policy: str, batch: Optional[int] = None
    ) -> float:
        """Optimistic steady-state req/s one node of ``spec`` sustains.

        Delegates to :meth:`OnlineServingEngine.mix_capacity_rps` — the
        one capacity formula the planner's pruning bound and the
        autoscale policies' sizing share.  Models that do not fit the
        node's memory contribute nothing, so a node hosting no mix model
        has zero capacity.  Optimistic because real traffic never batches
        perfectly, so pruning compositions whose summed estimate is below
        the offered rate is safe in practice — with one caveat: the
        estimate assumes each node serves the mix *proportionally*.  A
        fleet whose routing specializes nodes by model (each node serving
        only what it is fastest at) can sustain slightly more than the
        sum, so the prune is a heuristic, not a proof; the hard guarantee
        of :meth:`min_cost_fleet` (never costlier than the best
        homogeneous fleet) does not depend on it.
        """
        return self.engine.mix_capacity_rps(self.mix, policy, batch=batch, spec=spec)

    def sustains_fleet(
        self,
        counts: Mapping[str, int],
        policy: str,
        target_rps: float,
        p99_slo_s: float,
    ) -> Tuple[bool, ClusterReport]:
        """Simulate one composition against the mix at ``target_rps``.

        Returns:
            ``(feasible, report)`` — feasible when the fleet-wide raw p99
            holds the SLO.

        Raises:
            PlacementError: When some mix model fits no node of the
                composition (``min_cost_fleet`` treats that as an
                infeasible candidate and moves on).
        """
        duration = max(self.n_requests / target_rps, self.window_slos * p99_slo_s)
        fleet = self.fleet(counts, policy)
        report = fleet.run(self.stream(target_rps, duration_s=duration))
        return report.p99_s <= p99_slo_s, report

    # ------------------------------------------------------------------ #
    # The search
    # ------------------------------------------------------------------ #

    def _homogeneous_min(
        self,
        name: str,
        policy: str,
        target_rps: float,
        p99_slo_s: float,
        max_nodes: int,
        probes: List,
        reports: Dict[Tuple[Tuple[str, int], ...], ClusterReport],
    ) -> Optional[int]:
        """Doubling + binary search over all-``name`` fleets; None when
        even ``max_nodes`` of them miss the SLO."""
        spec = self.catalog[name]

        def feasible(n: int) -> bool:
            counts = {name: n}
            ok, report = self.sustains_fleet(counts, policy, target_rps, p99_slo_s)
            probes.append((dict(counts), True, ok, report.p99_s, n * spec.hourly_cost))
            reports[tuple(sorted(counts.items()))] = report
            return ok

        try:
            return _frontier(feasible, max_nodes)
        except PlacementError:
            # no mix model fits this node type's memory at all
            return None

    def min_cost_fleet(
        self,
        policy: str,
        target_rps: float,
        p99_slo_s: float,
        max_nodes_per_type: int = 16,
    ) -> HeteroCapacityPlan:
        """Cheapest composition (possibly mixed) meeting the SLO.

        Sizes each homogeneous fleet first (its cost is the ceiling), then
        walks every mixed composition at or under the ceiling in ascending
        $/hr, pruning compositions whose optimistic capacity estimate
        (:meth:`capacity_rps` — heuristic under model-specialized
        routing) cannot carry ``target_rps``, and returns the first
        feasible one — by construction never costlier than the best
        homogeneous fleet.

        Args:
            policy: StepStone dispatch policy for StepStone nodes.
            target_rps: Offered rate of the mix.
            p99_slo_s: Fleet-wide p99 bound, seconds.
            max_nodes_per_type: Search bound per node type.

        Returns:
            The winning :class:`HeteroCapacityPlan`.

        Raises:
            ValueError: When no composition within the bounds is feasible.
        """
        if p99_slo_s <= 0:
            raise ValueError("p99 SLO must be positive")
        if target_rps <= 0:
            raise ValueError("target rate must be positive")
        probes: List = []
        reports: Dict[Tuple[Tuple[str, int], ...], ClusterReport] = {}
        homogeneous: Dict[str, Optional[int]] = {}
        for name in self.catalog:
            homogeneous[name] = self._homogeneous_min(
                name,
                policy,
                target_rps,
                p99_slo_s,
                max_nodes_per_type,
                probes,
                reports,
            )
        feasible_homo = {
            name: n for name, n in homogeneous.items() if n is not None
        }
        if not feasible_homo:
            raise ValueError(
                f"no homogeneous fleet of <= {max_nodes_per_type} nodes "
                f"holds the {p99_slo_s * 1e3:.0f} ms p99 SLO at "
                f"{target_rps:.0f} req/s"
            )
        best_name = min(
            feasible_homo,
            key=lambda n: (feasible_homo[n] * self.catalog[n].hourly_cost, n),
        )
        best_counts = {best_name: feasible_homo[best_name]}
        ceiling = feasible_homo[best_name] * self.catalog[best_name].hourly_cost

        # Per-type count bound: a homogeneous winner count when known,
        # else whatever the cost ceiling can buy.
        bound: Dict[str, int] = {}
        for name, spec in self.catalog.items():
            by_cost = (
                int(ceiling / spec.hourly_cost) if spec.hourly_cost > 0 else max_nodes_per_type
            )
            n_homo = homogeneous[name]
            cap = n_homo if n_homo is not None else by_cost
            bound[name] = max(0, min(cap, max_nodes_per_type, by_cost))

        names = list(self.catalog)
        cap_est = {
            name: self.capacity_rps(self.catalog[name], policy) for name in names
        }
        candidates: List[Tuple[float, int, Dict[str, int]]] = []
        for combo in itertools.product(*(range(bound[n] + 1) for n in names)):
            counts = {n: c for n, c in zip(names, combo) if c > 0}
            if not counts or len(counts) < 2:
                continue  # homogeneous fleets were sized exactly above
            cost = sum(self.catalog[n].hourly_cost * c for n, c in counts.items())
            if cost > ceiling + 1e-9:
                continue
            candidates.append((cost, sum(counts.values()), counts))
        candidates.sort(key=lambda t: (t[0], t[1], sorted(t[2].items())))

        winner = best_counts
        winner_report = reports[tuple(sorted(best_counts.items()))]
        for cost, _total, counts in candidates:
            est = sum(cap_est[n] * c for n, c in counts.items())
            if est < target_rps:
                probes.append((dict(counts), False, False, math.nan, cost))
                continue
            try:
                ok, report = self.sustains_fleet(
                    counts, policy, target_rps, p99_slo_s
                )
            except PlacementError:
                # some mix model fits no node of this composition
                probes.append((dict(counts), False, False, math.nan, cost))
                continue
            probes.append((dict(counts), True, ok, report.p99_s, cost))
            if ok:
                winner = counts
                winner_report = report
                break

        return HeteroCapacityPlan(
            policy=policy,
            router=self.router,
            target_rps=target_rps,
            p99_slo_s=p99_slo_s,
            counts=dict(winner),
            specs=dict(self.catalog),
            report=winner_report,
            homogeneous=homogeneous,
            probes=probes,
        )
