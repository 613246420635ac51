"""The one request run loop behind the engine and every fleet simulator.

:meth:`~repro.serving.engine.OnlineServingEngine.run`,
:class:`~repro.cluster.fleet.Cluster`,
:class:`~repro.autoscale.elastic.ElasticCluster` and
:class:`~repro.autoscale.hetero.HeteroElasticCluster` are configurations
of :class:`FleetLoop`, a pool-based discrete-event run on the shared
:mod:`repro.sim` kernel:

* ``HeteroElasticCluster`` is N pools, one per node type, each hosting
  the served models that fit its spec;
* ``ElasticCluster`` is one pool that hosts every served model;
* ``Cluster`` is a static fleet: caller-built nodes, no control ticks,
  replicas in placement order;
* ``OnlineServingEngine.run`` is a one-node static fleet hosting every
  engine model.

The loop owns everything those runs share: the node slots and their
lifecycle (provisioning, active, draining, failed, retired), the
arrival-epoch and heap handlers it runs on the kernel's one event loop
(entered through :func:`repro.sim.fast.drain`, which counts the run),
control ticks with per-pool windowed observations, and the end-of-run
retire and report fill.

**Replica order.**  A static fleet routes over a model's placement
replicas, primary first; a pooled fleet routes over the active nodes
hosting the model in node-id (spawn) order.  Either way, down, draining
and provisioning nodes are skipped.

**Recorder chain.**  Each node's report is its recorder.  Streaming
runs chain each node report to its pool's recorder.  With several pools,
pool recorders chain to one run recorder (node -> pool -> run).  A
single pool *is* the run: its node reports chain straight to the run
recorder, so every completion pays for two sketch levels, not three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional

from repro.autoscale.policies import ControlObservation
from repro.autoscale.report import ControlSample, NodeLifetime
from repro.cluster.node import ClusterNode
from repro.serving.engine import FailedRequest, Request, ServingReport
from repro.serving.nodespec import NodeSpec
from repro.sim.kernel import DiscreteEventKernel, Event, EventKind
from repro.sim.metrics import BusyWindow, nearest_rank
from repro.sim.stats import MetricsRecorder

if TYPE_CHECKING:
    from repro.sim.failures import FailureTrace

# Node lifecycle states.
PROVISIONING = "provisioning"
ACTIVE = "active"
DRAINING = "draining"
FAILED = "failed"
RETIRED = "retired"


@dataclass
class Pool:
    """One node type's share of a run: spawn recipe and size clamps."""

    spec: NodeSpec
    hosted: List[str]
    min_nodes: int = 0
    max_nodes: int = 0
    initial_nodes: int = 0
    provision_delay_s: float = 0.0


@dataclass
class _Slot:
    """One node plus its lifecycle and window bookkeeping."""

    node: ClusterNode
    pool: str
    state: str
    life: NodeLifetime
    # Exact busy-time integration per control tick.
    busy_window: BusyWindow = field(default_factory=BusyWindow)
    completed_seen: int = 0
    rejected_seen: int = 0
    arrived_seen: int = 0


class FleetLoop:
    """One fleet run over named pools of nodes.

    Args:
        label: Loop name for telemetry
            (``engine``/``cluster``/``elastic``/``hetero``).
        fleet: The simulator this run configures.  The loop reads its
            ``router`` and ``record``, and a pooled fleet's ``engine``,
            ``policy``, ``max_batch`` and ``control_interval_s``.
        pools: Pool name -> :class:`Pool`.
        window_s: Auto-roll width of streaming window rings (``None``:
            rolled at control ticks only).
        nodes: Caller-built nodes of a static fleet (all in its one pool).
        placement: The static fleet's placement; sets the replica order.
    """

    def __init__(
        self,
        label: str,
        fleet,
        pools: Mapping[str, Pool],
        window_s: Optional[float] = None,
        nodes: Optional[List[ClusterNode]] = None,
        placement=None,
    ) -> None:
        self.label = label
        self.fleet = fleet
        self.router = fleet.router
        self.record = fleet.record
        self.pools: Dict[str, Pool] = dict(pools)
        self.window_s = window_s
        self._nodes = nodes
        self._placement = placement
        self.slots: Dict[int, _Slot] = {}
        # Model -> routable nodes, valid until membership or node state
        # changes (the cold handlers and the end of a run clear it).
        self._routable: Dict[str, List[ClusterNode]] = {}
        #: One row per control tick: ``{"t_s": ..., "<pool>_nodes": owned}``.
        self.timeline: List[Dict[str, Any]] = []
        self.run_stats: Optional[MetricsRecorder] = None
        self.pool_stats: Dict[str, MetricsRecorder] = {}

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def routable(self, model: str) -> List[ClusterNode]:
        """Active nodes that can take ``model`` now, in replica order
        (one shared list per model until membership changes)."""
        reps = self._routable.get(model)
        if reps is not None:
            return reps
        slots = self.slots
        if self._placement is not None:
            reps = [
                slots[nid].node
                for nid in self._placement.nodes_for(model)
                if slots[nid].state == ACTIVE
            ]
        else:
            reps = [
                s.node
                for s in slots.values()
                if s.state == ACTIVE and model in s.node.models
            ]
        self._routable[model] = reps
        return reps

    def _fresh(self, spans) -> None:
        self.slots = {}
        self._routable = {}
        self._next_id = 0
        self._spans = spans
        self.timeline = []
        self.run_stats = None
        self.pool_stats = {}
        if self.record == "streaming":
            self.run_stats = MetricsRecorder(record="streaming", window_s=self.window_s)
            if len(self.pools) == 1:
                self.pool_stats = {p: self.run_stats for p in self.pools}
            else:
                self.pool_stats = {
                    p: MetricsRecorder(record="streaming", parent=self.run_stats)
                    for p in sorted(self.pools)
                }
        self.router.reset(self.routable)
        if self._nodes is not None:
            (pool,) = self.pools
            for node in self._nodes:
                node.reset()
                self._adopt(node, pool, 0.0, ready_now=True)
            return
        for name in sorted(self.pools):
            for _ in range(self.pools[name].initial_nodes):
                self._spawn(name, 0.0, ready_now=True)

    def _adopt(self, node: ClusterNode, pool: str, clock: float, ready_now: bool) -> None:
        node.report = ServingReport(
            node.policy,
            record=self.record,
            window_s=self.window_s,
            parent=self.pool_stats.get(pool),
        )
        node.obs_spans = self._spans
        self.slots[node.node_id] = _Slot(
            node=node,
            pool=pool,
            state=ACTIVE if ready_now else PROVISIONING,
            life=NodeLifetime(
                node_id=node.node_id,
                ordered_s=clock,
                ready_s=clock if ready_now else None,
            ),
        )

    def _spawn(self, pool: str, clock: float, ready_now: bool) -> int:
        nid = self._next_id
        self._next_id += 1
        spec = self.pools[pool]
        fleet = self.fleet
        node = ClusterNode(
            node_id=nid,
            engine=fleet.engine,
            policy=fleet.policy,
            models=set(spec.hosted),
            max_batch=fleet.max_batch,
            spec=spec.spec,
        )
        self._adopt(node, pool, clock, ready_now)
        return nid

    def _in_state(self, pool: str, state: str) -> List[_Slot]:
        return [s for s in self.slots.values() if s.pool == pool and s.state == state]

    @staticmethod
    def _retire(slot: _Slot, clock: float) -> None:
        slot.state = RETIRED
        if slot.life.retired_s is None:
            slot.life.retired_s = clock

    def _apply_target(self, pool: str, target: int, clock: float) -> None:
        """Order, cancel, reactivate, or drain one pool toward ``target``."""
        owned = self._in_state(pool, ACTIVE) + self._in_state(pool, PROVISIONING)
        delta = target - len(owned)
        if delta > 0:
            # Cheapest capacity first: un-drain nodes still finishing
            # their backlog (they re-enter routing instantly, no copy).
            draining = sorted(
                self._in_state(pool, DRAINING), key=lambda s: -s.node.node_id
            )
            for slot in draining[:delta]:
                slot.state = ACTIVE
                slot.life.drain_s = None
                delta -= 1
            for _ in range(delta):
                nid = self._spawn(pool, clock, ready_now=False)
                self._kernel.schedule(
                    clock + self.pools[pool].provision_delay_s, EventKind.READY, nid
                )
        elif delta < 0:
            shed = -delta
            # Cancel provisioning nodes first (never held traffic), newest
            # first so the earliest-ordered capacity still arrives.
            provisioning = sorted(
                self._in_state(pool, PROVISIONING), key=lambda s: -s.node.node_id
            )
            for slot in provisioning[:shed]:
                self._retire(slot, clock)
                shed -= 1
            if shed > 0:
                # Drain the emptiest active nodes (newest on ties).  A pool
                # with a hosting anchor (min_nodes >= 1) keeps one active
                # node routable at all times; burst pools may drain to zero.
                active = sorted(
                    self._in_state(pool, ACTIVE),
                    key=lambda s: (s.node.backlog(), -s.node.node_id),
                )
                floor = 1 if self.pools[pool].min_nodes >= 1 else 0
                for slot in active[: min(shed, max(0, len(active) - floor))]:
                    slot.state = DRAINING
                    slot.life.drain_s = clock
                    if slot.node.idle and not slot.node.queued:
                        self._retire(slot, clock)

    # ------------------------------------------------------------------ #
    # The run
    # ------------------------------------------------------------------ #

    def run(
        self,
        report,
        requests: Iterable[Request],
        autoscaler=None,
        failures: Optional[FailureTrace] = None,
        obs=None,
        presorted: bool = False,
        horizon_s: Optional[float] = None,
    ):
        """Serve ``requests`` and fill ``report``.

        Args:
            report: A fresh ``ClusterReport`` (static fleet) or
                ``AutoscaleReport``; the loop fills its run fields.
            requests: Timestamped requests (sorted here unless
                ``presorted``, which consumes them lazily).
            autoscaler: A per-pool policy (``desired_by_pool``); ``None``
                runs without control ticks.
            failures: Optional outage schedule over node ids.
            obs: Optional :class:`~repro.obs.RunObserver` (spans are
                emitted by the nodes; a profiler rides the drain).
            presorted: Consume an arrival-ordered stream lazily.
            horizon_s: Arrival horizon of a presorted run (control ticks
                are scheduled through it plus one interval).

        Returns:
            ``report``, filled.

        Raises:
            ValueError: If ``presorted`` without a positive finite
                ``horizon_s`` (before any side effect), or if the
                autoscaler targets a pool the fleet does not have.
        """
        if presorted and (horizon_s is None or not 0 < horizon_s < math.inf):
            raise ValueError("presorted runs need a positive, finite horizon_s")
        self._fresh(obs.spans if obs is not None else None)
        if autoscaler is not None:
            autoscaler.reset()
        kernel = self._kernel = DiscreteEventKernel()
        if presorted:
            last_arrival = 0.0
            tick_horizon = horizon_s
            arrivals = requests
            ticking = True
        else:
            arrivals = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
            last_arrival = arrivals[-1].arrival_s if arrivals else 0.0
            tick_horizon = last_arrival
            ticking = bool(arrivals)
        # Control ticks cover the offered window plus one trailing interval
        # (so the controller can react to the last window of load); an
        # empty stream needs no controller at all.
        if autoscaler is not None and ticking:
            # Accumulate tick times by repeated addition (not tick *
            # interval): the golden traces pin those exact floats.
            interval = self.fleet.control_interval_s
            t_tick = interval
            tick = 1
            while t_tick <= tick_horizon + interval:
                kernel.schedule(t_tick, EventKind.CONTROL, tick)
                tick += 1
                t_tick += interval
        if failures is not None:
            failures.schedule_on(kernel)

        slots = self.slots
        pools = self.pools
        run_stats = self.run_stats
        router = self.router
        route = router.route
        invalidate_backlogs = router.invalidate_backlogs
        memo = self._routable
        last_service_end = 0.0
        prev_tick = 0.0
        n_dropped = 0

        def dispatch(node: ClusterNode, now: float) -> None:
            finish = node.try_dispatch(now)
            invalidate_backlogs()
            if finish is not None:
                kernel.schedule(finish, EventKind.FINISH, node.node_id, payload=node.epoch)

        def arrive(now: float, reqs) -> None:
            # Every arrival at this instant routes before any dispatch, so
            # simultaneous requests can share a batch (single-node engine
            # semantics) and routing sees them in stream order.  Touched
            # nodes then dispatch in node-id order; an epoch that touched
            # one node, as most do, builds no map and sorts nothing.
            nonlocal last_arrival, n_dropped
            last_arrival = now
            first = touched = None
            for r in reqs:
                node = route(r, now)
                if node is None:
                    f = FailedRequest(request=r, failed_at_s=now, reason="unrouted")
                    if run_stats is not None:
                        run_stats.record_failure(f)
                        n_dropped += 1
                    else:
                        report.dropped.append(f)
                    continue
                node.enqueue(r)
                if first is None:
                    first = node
                elif node is not first:
                    if touched is None:
                        touched = {first.node_id: first}
                    touched[node.node_id] = node
            if touched is not None:
                for nid in sorted(touched):
                    if not touched[nid].in_flight:
                        dispatch(touched[nid], now)
            elif first is not None and not first.in_flight:
                dispatch(first, now)

        def on_finishes(now: float, events: List[Event]) -> None:
            nonlocal last_service_end
            for ev in events:
                slot = slots[ev.entity]
                node = slot.node
                if ev.payload != node.epoch:
                    continue  # batch was lost to a failure; stale event
                node.finish_batch(now)
                last_service_end = now
                dispatch(node, now)
                if slot.state == DRAINING and node.idle and not node.queued:
                    self._retire(slot, now)

        def on_readies(now: float, events: List[Event]) -> None:
            for ev in events:
                slot = slots[ev.entity]
                # A node cancelled while provisioning stays retired; its
                # ready event is stale.
                if slot.state == PROVISIONING:
                    slot.state = ACTIVE
                    slot.life.ready_s = now

        def on_fails(now: float, events: List[Event]) -> None:
            for ev in events:
                slot = slots.get(ev.entity)
                if slot is None:
                    continue
                if slot.state == ACTIVE:
                    slot.node.fail(now)
                    slot.state = FAILED
                elif slot.state == DRAINING:
                    # It was leaving anyway; the failure just drops its
                    # backlog and retires it on the spot.
                    slot.node.fail(now)
                    self._retire(slot, now)

        def on_recovers(now: float, events: List[Event]) -> None:
            for ev in events:
                slot = slots.get(ev.entity)
                if slot is not None and slot.state == FAILED:
                    slot.state = ACTIVE

        def on_control(now: float, events: List[Event]) -> None:
            nonlocal prev_tick
            observed = self._observe(prev_tick, now)
            prev_tick = now
            desired = autoscaler.desired_by_pool(observed)
            unknown = sorted(set(desired) - set(pools))
            if unknown:
                raise ValueError(
                    f"policy {autoscaler.name!r} targets unknown pools "
                    f"{unknown}; cluster pools: {sorted(pools)}"
                )
            row: Dict[str, Any] = {"t_s": round(now, 6)}
            total = 0
            for name in sorted(pools):
                pool = pools[name]
                want = desired.get(name, observed[name].fleet)
                target = max(pool.min_nodes, min(pool.max_nodes, want))
                total += target
                self._apply_target(name, target, now)
                row[f"{name}_nodes"] = len(self._in_state(name, ACTIVE)) + len(
                    self._in_state(name, PROVISIONING)
                )
            self.timeline.append(row)
            # A single pool's observation is the fleet's, as is: summing
            # it back up would round utilization.
            agg = (
                next(iter(observed.values()))
                if len(observed) == 1
                else _aggregate(observed)
            )
            report.samples.append(ControlSample(**vars(agg), desired=total))

        def cold(handler):
            # Membership or node state changed: the replica lists and the
            # router's backlog state are stale.
            def wrapped(now: float, events: List[Event]) -> None:
                handler(now, events)
                memo.clear()
                invalidate_backlogs()

            return wrapped

        handlers = {
            EventKind.FINISH: on_finishes,
            EventKind.READY: cold(on_readies),
            EventKind.CONTROL: cold(on_control),
            EventKind.FAIL: cold(on_fails),
            EventKind.RECOVER: cold(on_recovers),
        }
        from repro.sim import fast as _fast

        _fast.drain(
            kernel,
            arrivals,
            arrive,
            handlers,
            profiler=getattr(obs, "profile", None) if obs is not None else None,
        )

        # The serving horizon excludes trailing control ticks (controller
        # bookkeeping, not service), so a static-policy elastic run
        # matches the static fleet's sim_end exactly.  Anything still
        # draining, provisioning, or failed retires here.
        sim_end = max(last_service_end, last_arrival)
        memo.clear()
        for slot in slots.values():
            if slot.state != RETIRED:
                self._retire(slot, sim_end)
            slot.node.report.sim_end_s = sim_end
        report.sim_end_s = sim_end
        report.last_arrival_s = last_arrival
        report.n_dropped = n_dropped
        report.stats = run_stats
        kernel.finalize(report)
        if self._nodes is not None:
            report.node_reports = [s.node.report for s in slots.values()]
            report.node_busy_s = [s.node.busy_s for s in slots.values()]
        else:
            for nid, slot in slots.items():
                report.node_reports[nid] = slot.node.report
                report.lifetimes[nid] = slot.life
                report.node_busy_s[nid] = slot.node.busy_s
        if obs is not None and obs.telemetry is not None:
            obs.telemetry.record_counts(
                self.label,
                served=report.served,
                rejected=report.rejected_count,
                failed=report.failed_count,
            )
        return report

    def _observe(self, t0: float, t1: float) -> Dict[str, ControlObservation]:
        """Per-pool windowed observations over ``(t0, t1]`` (exact busy
        time; streaming window rings, node and pool, rolled at ``t1``)."""
        interval = t1 - t0
        streaming = self.run_stats is not None
        out: Dict[str, ControlObservation] = {}
        for name in self.pools:
            window_lats: List[float] = []
            completions = 0
            rejections = 0
            arrivals = 0
            busy_window = 0.0
            backlog = 0
            for slot in self.slots.values():
                if slot.pool != name:
                    continue
                rep = slot.node.report
                served_now = rep.served
                if streaming:
                    completions += served_now - slot.completed_seen
                    rep.roll_window(t1)
                else:
                    new_lats = rep.new_latencies(slot.completed_seen)
                    completions += len(new_lats)
                    window_lats.extend(new_lats)
                slot.completed_seen = served_now
                rejections += rep.rejected_count - slot.rejected_seen
                slot.rejected_seen = rep.rejected_count
                arrivals += slot.node.enqueued - slot.arrived_seen
                slot.arrived_seen = slot.node.enqueued
                busy_window += slot.busy_window.observe(
                    slot.node.busy_s,
                    slot.node.busy_until,
                    bool(slot.node.in_flight),
                    t1,
                )
                if slot.state not in (RETIRED, FAILED):
                    backlog += slot.node.backlog()
            n_active = len(self._in_state(name, ACTIVE))
            n_draining = len(self._in_state(name, DRAINING))
            # The numerator sums busy time across every slot (draining
            # nodes keep serving their backlog), so the denominator counts
            # the serving set — active plus draining — or every scale-down
            # tick would read as saturated.  Approximate across mid-window
            # membership changes; the clamp keeps it a fraction.
            n_serving = n_active + n_draining
            util = 0.0
            if interval > 0 and n_serving:
                util = max(0.0, min(1.0, busy_window / (interval * n_serving)))
            if streaming:
                # The pool recorder's open window holds exactly the
                # completions since the last tick (CONTROL fires before
                # FINISH at equal instants); read its p99, then roll so
                # the next tick starts a fresh window.
                rec = self.pool_stats[name]
                window_p99 = rec.window_percentile(99, t0, t1)
                rec.roll_window(t1)
            else:
                window_lats.sort()
                window_p99 = nearest_rank(window_lats, 99)
            out[name] = ControlObservation(
                t=t1,
                interval_s=interval,
                active=n_active,
                provisioning=len(self._in_state(name, PROVISIONING)),
                draining=n_draining,
                arrivals=arrivals,
                completions=completions,
                rejections=rejections,
                window_p99_s=window_p99,
                utilization=util,
                backlog=backlog,
                failed=len(self._in_state(name, FAILED)),
            )
        if streaming and len(self.pools) > 1:
            self.run_stats.roll_window(t1)
        return out


def _aggregate(obs: Mapping[str, ControlObservation]) -> ControlObservation:
    """Fleet-wide view of one multi-pool tick (for the shared timeline)."""
    some = next(iter(obs.values()))
    servings = sum(o.active + o.draining for o in obs.values())
    util = 0.0
    if servings:
        util = (
            sum(o.utilization * (o.active + o.draining) for o in obs.values())
            / servings
        )
    p99s = [o.window_p99_s for o in obs.values() if o.window_p99_s == o.window_p99_s]
    return ControlObservation(
        t=some.t,
        interval_s=some.interval_s,
        active=sum(o.active for o in obs.values()),
        provisioning=sum(o.provisioning for o in obs.values()),
        draining=sum(o.draining for o in obs.values()),
        arrivals=sum(o.arrivals for o in obs.values()),
        completions=sum(o.completions for o in obs.values()),
        rejections=sum(o.rejections for o in obs.values()),
        window_p99_s=max(p99s) if p99s else math.nan,
        utilization=util,
        backlog=sum(o.backlog for o in obs.values()),
        failed=sum(o.failed for o in obs.values()),
    )
