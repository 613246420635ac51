"""Property test: every builtin router picks what a brute-force scan picks.

Two caches stand between a route and a full scan.  The fleet loop
memoizes each model's replica list (``FleetLoop.routable``) and clears
the memo after every READY, CONTROL, FAIL and RECOVER batch.  The
backend-affinity router keeps per-``(model, slo)`` backlog heaps,
trusting the loop to call ``invalidate_backlogs`` after every dispatch
attempt and every one of those batches.

The oracles below are plain per-arrival scans over the replicas read
afresh from the loop's node slots.  A checking subclass of each builtin
router asserts, at every call, that the loop's memo holds that list and
that its pick is the oracle's pick.  Hypothesis draws the router, the
SLO mix, the load and the outages, and each example runs inside real
``Cluster``, ``ElasticCluster`` and ``HeteroElasticCluster`` runs, on
the event-at-a-time oracle loop (``tests/fleet_oracle.py``) and on the
fleet loop's drain.  A loop that skipped a hook would leave a stale
cache behind and fail here.

CI replays it under ``--hypothesis-seed`` derived from the run id (see
the ``fast-differential`` job in ``.github/workflows/ci.yml``).
"""

from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autoscale import (
    BaselineBurstPolicy,
    DiurnalTrace,
    ElasticCluster,
    HeteroElasticCluster,
    NodePool,
    mix_requests,
)
from repro.autoscale._loop import ACTIVE
from repro.autoscale.policies import TargetUtilizationPolicy, node_capacity_rps
from repro.cluster import Cluster, ClusterNode, LeastLoadedRouter, make_router
from repro.serving import GPU_NODE, STEPSTONE_NODE, OnlineServingEngine, Request
from repro.sim import EventKind, FailureTrace
from repro.sim import fast as fastmod

from fleet_oracle import oracle_run

MIX = {"BERT": 0.6, "DLRM": 0.4}
ROUTERS = ("round-robin", "least-loaded", "affinity", "backend-affinity")

# --------------------------------------------------------------------------
# The oracles: one full scan of the live replicas per arrival.
# --------------------------------------------------------------------------


def _live_replicas(loop, model: str) -> List[ClusterNode]:
    """The nodes that can take ``model`` now, scanned from the loop's
    slots: placement order on a static fleet, else node-id order."""
    slots = loop.slots
    if loop._placement is not None:
        order = loop._placement.nodes_for(model)
    else:
        order = [nid for nid, s in slots.items() if model in s.node.models]
    return [slots[nid].node for nid in order if slots[nid].state == ACTIVE]


def _shortest_queue(replicas: List[ClusterNode]) -> ClusterNode:
    return min(replicas, key=lambda n: (n.backlog(), n.node_id))


def _round_robin(router, request, replicas, clock):
    i = router.oracle_next.get(request.model, 0)
    router.oracle_next[request.model] = i + 1
    return replicas[i % len(replicas)]


def _least_loaded(router, request, replicas, clock):
    return _shortest_queue(replicas)


def _affinity(router, request, replicas, clock):
    primary = replicas[0]
    limit = (
        router.spill_backlog
        if router.spill_backlog is not None
        else primary.max_batch
    )
    if primary.backlog() < limit:
        return primary
    return _shortest_queue(replicas)


def _backend_affinity(router, request, replicas, clock):
    slo = request.slo_s
    if slo is not None:
        slack = slo - (clock - request.arrival_s)
        feasible = [
            n
            for n in replicas
            if n.eta_s(clock) + n.min_latency(request.model) <= slack
        ]
        if feasible:
            return min(
                feasible,
                key=lambda n: (n.spec.hourly_cost, n.backlog(), n.node_id),
            )
    return min(replicas, key=lambda n: (n.backlog(), n.spec.hourly_cost, n.node_id))


ORACLES = {
    "round-robin": _round_robin,
    "least-loaded": _least_loaded,
    "affinity": _affinity,
    "backend-affinity": _backend_affinity,
}


def checked_router(policy: str, **kwargs):
    """The builtin ``policy`` router, asserting its oracle at every call."""
    base = type(make_router(policy))

    class Checked(base):
        def reset(self, replicas_for):
            super().reset(replicas_for)
            self.loop = replicas_for.__self__
            self.oracle_next = {}
            self.checked = 0

        def route(self, request: Request, clock: float) -> Optional[ClusterNode]:
            replicas = _live_replicas(self.loop, request.model)
            memo = self.replicas_for(request.model)
            assert [n.node_id for n in memo] == [n.node_id for n in replicas]
            want = ORACLES[policy](self, request, replicas, clock) if replicas else None
            got = super().route(request, clock)
            assert got is want, (
                policy,
                request,
                clock,
                None if got is None else got.node_id,
                None if want is None else want.node_id,
            )
            self.checked += 1
            return got

    return Checked(**kwargs)


# --------------------------------------------------------------------------
# Real runs.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine():
    return OnlineServingEngine()


def _cluster(engine, router):
    cl = Cluster(n_nodes=3, engine=engine, policy="hybrid", router=router, replication=2)
    return lambda stream, failures: cl.run(stream, failures=failures)


def _elastic(engine, router):
    el = ElasticCluster(
        engine=engine,
        policy="hybrid",
        router=router,
        models=sorted(MIX),
        initial_nodes=2,
        max_nodes=5,
        control_interval_s=0.5,
    )
    pol = TargetUtilizationPolicy(
        capacity_rps=node_capacity_rps(engine, MIX, "hybrid"), target=0.7
    )
    return lambda stream, failures, **kw: el.run(
        stream, pol, failures=failures, **kw
    )


def _hetero(engine, router):
    hc = HeteroElasticCluster(
        pools={
            "stepstone": NodePool(
                STEPSTONE_NODE, min_nodes=1, max_nodes=4, initial_nodes=2
            ),
            "gpu": NodePool(GPU_NODE, min_nodes=0, max_nodes=2, initial_nodes=0),
        },
        engine=engine,
        policy="hybrid",
        router=router,
        models=sorted(MIX),
        control_interval_s=0.5,
    )
    pol = BaselineBurstPolicy(
        baseline="stepstone",
        burst="gpu",
        baseline_nodes=2,
        baseline_capacity_rps=node_capacity_rps(
            engine, MIX, "hybrid", spec=STEPSTONE_NODE
        ),
        burst_capacity_rps=node_capacity_rps(engine, MIX, "hybrid", spec=GPU_NODE),
    )
    return lambda stream, failures: hc.run(
        stream, pol, failures=failures
    )


LOOPS = {"cluster": _cluster, "elastic": _elastic, "hetero": _hetero}

_SLO = st.sampled_from([None, 0.02, 0.1, 0.5, 1.5])
_OUTAGE = st.one_of(
    st.none(), st.tuples(st.floats(0.1, 2.0), st.floats(0.05, 1.5))
)


@pytest.mark.parametrize("loop", sorted(LOOPS))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    policy=st.sampled_from(ROUTERS),
    spill=st.one_of(st.none(), st.integers(0, 6)),
    slos=st.fixed_dictionaries({m: _SLO for m in MIX}),
    trough=st.floats(60.0, 400.0),
    seed=st.integers(0, 10_000),
    outages=st.tuples(_OUTAGE, _OUTAGE),
)
def test_builtin_routers_match_scan_oracle(
    engine, loop, policy, spill, slos, trough, seed, outages
):
    kwargs = {"spill_backlog": spill} if policy == "affinity" else {}
    router = checked_router(policy, **kwargs)
    run = LOOPS[loop](engine, router)
    stream = mix_requests(
        DiurnalTrace(trough_rps=trough, peak_rps=2.5 * trough, period_s=2.0),
        MIX,
        2.5,
        seed=seed,
        slos=slos,
    )
    scripted = [
        (node, start, start + length)
        for node, outage in enumerate(outages)
        if outage is not None
        for start, length in [outage]
    ]
    for on_oracle in (True, False):
        failures = FailureTrace.scripted(scripted) if scripted else None
        runs = fastmod.FAST_RUNS
        if on_oracle:
            oracle_run(run, stream, failures)
        else:
            run(stream, failures)
        assert fastmod.FAST_RUNS == runs + 1
        assert router.checked == len(stream)


def test_routable_memo_lives_one_membership_epoch(engine, monkeypatch):
    """``routable(model)`` hands every route between two READY, CONTROL,
    FAIL or RECOVER batches the same list, rebuilds it after each batch,
    and keeps no memo past the run, even with arrivals routed after the
    last control tick (a presorted stream running past ``horizon_s``)."""
    cold = [0]
    drain = fastmod.drain

    def counting_drain(kernel, arrivals, on_epoch, handlers, **kw):
        def counted(handler):
            def wrapped(now, events):
                handler(now, events)
                cold[0] += 1

            return wrapped

        handlers = {
            kind: h if kind == EventKind.FINISH else counted(h)
            for kind, h in handlers.items()
        }
        return drain(kernel, arrivals, on_epoch, handlers, **kw)

    monkeypatch.setattr(fastmod, "drain", counting_drain)

    class Recording(LeastLoadedRouter):
        def reset(self, replicas_for):
            super().reset(replicas_for)
            self.loop = replicas_for.__self__
            self.seen = []

        def route(self, request, clock):
            reps = self.replicas_for(request.model)
            live = _live_replicas(self.loop, request.model)
            assert [n.node_id for n in reps] == [n.node_id for n in live]
            self.seen.append((cold[0], request.model, reps))
            return super().route(request, clock)

    router = Recording()
    stream = mix_requests(
        DiurnalTrace(trough_rps=150.0, peak_rps=400.0, period_s=2.0),
        MIX,
        2.5,
        seed=3,
    )
    _elastic(engine, router)(
        stream,
        FailureTrace.scripted([(0, 0.3, 0.9)]),
        presorted=True,
        horizon_s=1.0,
    )
    # Routes ran in several membership epochs, the last one after the
    # final cold batch and the last control tick (1.5 s).
    assert len({epoch for epoch, _, _ in router.seen}) > 3
    assert router.seen[-1][0] == cold[0]
    assert stream[-1].arrival_s > 1.5
    first = {}
    for epoch, model, reps in router.seen:
        kept = first.setdefault((epoch, model), reps)
        assert reps is kept
    for model in MIX:
        lists = [reps for (epoch, m), reps in sorted(first.items()) if m == model]
        assert len({id(reps) for reps in lists}) == len(lists)
        assert router.loop.fleet.replicas_for(model) == []
