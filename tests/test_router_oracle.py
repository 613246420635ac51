"""Property test: every builtin router picks what a brute-force scan picks.

The builtin routers in :mod:`repro.cluster.router` do not scan their
replicas per arrival.  They cache replica lists and track backlogs in
heaps advanced by their own picks, trusting the fleet loop to call
``invalidate_backlogs`` after every dispatch attempt and
``invalidate_all`` after every READY, CONTROL, FAIL and RECOVER batch.

The oracles below are the plain per-arrival scans those routers
replace.  A checking subclass of each builtin router asserts, at every
call, that its pick is the oracle's pick over the loop's *live*
``routable(model)``.  Hypothesis draws the router, the SLO mix, the load
and the outages, and each example runs inside real ``Cluster``,
``ElasticCluster`` and ``HeteroElasticCluster`` runs, on the
event-at-a-time oracle loop (``tests/fleet_oracle.py``) and on the
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
from repro.autoscale.policies import TargetUtilizationPolicy, node_capacity_rps
from repro.cluster import Cluster, ClusterNode, make_router
from repro.serving import GPU_NODE, STEPSTONE_NODE, OnlineServingEngine, Request
from repro.sim import FailureTrace
from repro.sim import fast as fastmod

from fleet_oracle import oracle_run

MIX = {"BERT": 0.6, "DLRM": 0.4}
ROUTERS = ("round-robin", "least-loaded", "affinity", "backend-affinity")

# --------------------------------------------------------------------------
# The oracles: one full scan of the live replicas per arrival.
# --------------------------------------------------------------------------


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
            self.live = replicas_for
            self.oracle_next = {}
            self.checked = 0

        def route(self, request: Request, clock: float) -> Optional[ClusterNode]:
            replicas = self.live(request.model)
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
    return lambda stream, failures: el.run(
        stream, pol, failures=failures
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
