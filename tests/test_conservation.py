"""Property test: every fleet loop conserves requests, in both record modes.

Every offered request ends exactly one way: served, rejected at
admission, failed on a node (queue dropped or in flight when the node
died), or dropped unrouted because every replica was down.  So

    offered = served + rejected + failed + dropped

must hold for ``Cluster``, ``ElasticCluster`` and
``HeteroElasticCluster`` with outages, on the event-at-a-time oracle
loop (``tests/fleet_oracle.py``) and the fleet loop's drain, in
``record="full"`` and ``record="streaming"``.  The report
derives ``offered`` from the same counters, so the left side here is the
stream's length.  Full mode must also account for every request id
exactly once.  Streaming mode must count the same four totals as full
mode, and every aggregation level must see every completion: the
run-wide latency sketch and window ring, each pool recorder, and the
node sketches.  The streams are long enough that those sketches spill
past their exact reservoirs, so the P² fold runs.

CI replays it under ``--hypothesis-seed`` derived from the run id (see
the ``fast-differential`` job in ``.github/workflows/ci.yml``).
"""

import math
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
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
from repro.cluster import Cluster
from repro.serving import GPU_NODE, STEPSTONE_NODE, OnlineServingEngine
from repro.sim import FailureTrace

from fleet_oracle import oracle_run

MIX = {"BERT": 0.6, "DLRM": 0.4}
ROUTERS = ("round-robin", "least-loaded", "affinity", "backend-affinity")


@pytest.fixture(scope="module")
def engine():
    return OnlineServingEngine()


def _cluster(engine, router, record):
    cl = Cluster(
        n_nodes=3,
        engine=engine,
        policy="hybrid",
        router=router,
        replication=2,
        record=record,
    )
    return lambda stream, failures: cl.run(stream, failures=failures)


def _elastic(engine, router, record):
    el = ElasticCluster(
        engine=engine,
        policy="hybrid",
        router=router,
        models=sorted(MIX),
        initial_nodes=2,
        max_nodes=5,
        control_interval_s=0.5,
        record=record,
    )
    pol = TargetUtilizationPolicy(
        capacity_rps=node_capacity_rps(engine, MIX, "hybrid"), target=0.7
    )
    return lambda stream, failures: el.run(
        stream, pol, failures=failures
    )


def _hetero(engine, router, record):
    hc = HeteroElasticCluster(
        pools={
            "stepstone": NodePool(
                STEPSTONE_NODE, min_nodes=1, max_nodes=4, initial_nodes=2
            ),
            "gpu": NodePool(GPU_NODE, min_nodes=0, max_nodes=2, initial_nodes=1),
        },
        engine=engine,
        policy="hybrid",
        router=router,
        models=sorted(MIX),
        control_interval_s=0.5,
        record=record,
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

_SLO = st.sampled_from([None, 0.02, 0.1, 0.5])
# Nodes 0-2 may each go down once.  Overlapping outages leave a model
# with no live replica, so its arrivals are dropped unrouted.
_OUTAGE = st.one_of(st.none(), st.tuples(st.floats(0.1, 1.5), st.floats(0.05, 1.0)))


def _totals(rep):
    """(served, rejected, failed on a node, dropped unrouted)."""
    dropped = rep.dropped_count
    return (rep.served, rep.rejected_count, rep.failed_count - dropped, dropped)


@pytest.mark.parametrize("loop", sorted(LOOPS))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    router=st.sampled_from(ROUTERS),
    slos=st.fixed_dictionaries({m: _SLO for m in MIX}),
    trough=st.floats(250.0, 450.0),
    seed=st.integers(0, 10_000),
    outages=st.tuples(_OUTAGE, _OUTAGE, _OUTAGE),
)
# Every node down over [0.5, 1.2): served, failed and dropped all occur.
@example(
    router="least-loaded",
    slos={"BERT": None, "DLRM": 0.1},
    trough=300.0,
    seed=1,
    outages=((0.5, 0.7),) * 3,
)
def test_every_request_is_accounted_for(
    engine, loop, router, slos, trough, seed, outages
):
    stream = mix_requests(
        DiurnalTrace(trough_rps=trough, peak_rps=2.0 * trough, period_s=2.0),
        MIX,
        1.5,
        seed=seed,
        slos=slos,
    )
    scripted = [
        (node, start, start + length)
        for node, outage in enumerate(outages)
        if outage is not None
        for start, length in [outage]
    ]
    totals = {}
    for record, on_oracle in product(("full", "streaming"), (True, False)):
        run = LOOPS[loop](engine, router, record)
        failures = FailureTrace.scripted(scripted) if scripted else None
        if on_oracle:
            rep = oracle_run(run, stream, failures)
        else:
            rep = run(stream, failures)
        served, rejected, failed, dropped = totals[record, on_oracle] = _totals(rep)
        assert min(totals[record, on_oracle]) >= 0
        assert served + rejected + failed + dropped == len(stream) == rep.offered
        if record == "full":
            ids = [c.request.req_id for c in rep.completed]
            ids += [r.request.req_id for r in rep.rejected]
            ids += [f.request.req_id for f in rep.failed]
            assert sorted(ids) == sorted(r.req_id for r in stream)
            assert sum(f.reason == "unrouted" for f in rep.failed) == dropped
            continue
        stats = rep.stats
        assert (stats.completed_count, stats.rejected_count, stats.failed_count) == (
            served,
            rejected,
            failed + dropped,
        )
        assert stats.latency.count == served
        assert stats.ring.window_count(-math.inf, math.inf) == served
        nodes = rep.node_reports
        if isinstance(nodes, dict):  # the elastic fleets key them by node id
            nodes = nodes.values()
        assert sum(n.stats.latency.count for n in nodes) == served
        if loop == "hetero":
            pools = rep.pool_stats.values()
            assert sum(p.completed_count for p in pools) == served
            assert sum(p.latency.count for p in pools) == served
        # The run-wide sketch spilled: streaming answers came from the fold.
        assert served < 512 or not stats.latency.is_exact
    assert len(set(totals.values())) == 1
