"""Equivalence anchors between the three fleet simulators.

``Cluster``, ``ElasticCluster`` and ``HeteroElasticCluster`` are
configurations of one fleet loop; these runs pin that the configurations
agree wherever their shapes coincide, in both recording modes:

* an elastic fleet under an autoscaler equals a single-pool hetero fleet
  whose pool runs the same policy — completions, control samples, node
  lifetimes, failure counts and p99 all ``==``, outages included;
* a static-policy elastic fleet equals the static ``Cluster`` in
  streaming mode too (the full-mode twin lives in ``test_autoscale``).
"""

import pytest

from repro.autoscale import (
    ElasticCluster,
    HeteroElasticCluster,
    NodePool,
    PerPoolPolicy,
    SpikeTrace,
    StaticPolicy,
    TargetUtilizationPolicy,
    mix_requests,
    node_capacity_rps,
)
from repro.cluster import Cluster, ModelPlacement
from repro.serving import STEPSTONE_NODE, OnlineServingEngine, poisson_requests
from repro.sim import FailureTrace

MIX = {"BERT": 0.9, "DLRM": 0.1}


@pytest.fixture(scope="module")
def eng():
    return OnlineServingEngine()


def _spike_stream():
    trace = SpikeTrace(
        base_rps=150.0, spike_rps=1200.0, spike_at_s=2.0, rise_s=0.5, decay_s=1.5
    )
    return mix_requests(
        trace, MIX, duration_s=6.0, seed=9, slos={m: 1.0 for m in MIX}
    )


def _outages():
    return FailureTrace.scripted([(0, 1.0, 2.5), (1, 3.0, 4.0)])


def _completions(rep):
    if rep.record == "streaming":
        return rep.served
    return [
        (c.request.req_id, c.dispatch_s, c.finish_s, c.batch) for c in rep.completed
    ]


@pytest.mark.parametrize("record", ["full", "streaming"])
def test_elastic_matches_single_pool_hetero(eng, record):
    stream = _spike_stream()
    cap = node_capacity_rps(eng, MIX, "hybrid")
    elastic = ElasticCluster(
        engine=eng,
        models=list(MIX),
        initial_nodes=2,
        min_nodes=1,
        max_nodes=8,
        control_interval_s=0.5,
        record=record,
    ).run(stream, TargetUtilizationPolicy(cap), failures=_outages())
    hetero = HeteroElasticCluster(
        {
            "stepstone": NodePool(
                STEPSTONE_NODE, min_nodes=1, max_nodes=8, initial_nodes=2
            )
        },
        engine=eng,
        models=list(MIX),
        control_interval_s=0.5,
        record=record,
    ).run(
        stream,
        PerPoolPolicy({"stepstone": TargetUtilizationPolicy(cap)}),
        failures=_outages(),
    )
    assert elastic.failed_count > 0  # the outages struck
    assert len(elastic.lifetimes) > 2  # the spike grew the fleet
    assert _completions(hetero) == _completions(elastic)
    assert hetero.samples == elastic.samples
    assert hetero.lifetimes == elastic.lifetimes
    assert hetero.failed_count == elastic.failed_count
    assert hetero.p99_s == elastic.p99_s


def test_static_policy_matches_static_cluster_streaming(eng):
    slo = 20 * eng.min_latency("BERT", "cpu")
    reqs = poisson_requests("BERT", 300, 2.0, seed=3, slo_s=slo)
    placement = ModelPlacement(replicas={"BERT": [0, 1]}, used_bytes={})
    ref = Cluster(
        2, policy="hybrid", engine=eng, placement=placement, record="streaming"
    ).run(reqs)
    rep = ElasticCluster(
        engine=eng,
        policy="hybrid",
        models=["BERT"],
        initial_nodes=2,
        control_interval_s=0.5,
        record="streaming",
    ).run(reqs, StaticPolicy(2))
    assert rep.record == ref.record == "streaming"
    assert rep.served == ref.served
    assert rep.rejected_count == ref.rejected_count
    assert rep.sim_end_s == ref.sim_end_s
    for q in (50, 90, 99):
        assert rep.latency_percentile(q) == ref.latency_percentile(q)
