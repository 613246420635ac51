"""Public entry points reject NaN and infinite times.

NaN compares False against everything, so a ``t < 0`` or ``t < now``
guard lets it through and it corrupts the kernel's heap order later.
Every entry point that feeds the simulated clock checks finiteness
itself, and so do the rate traces arrival streams are drawn from and the
node specs fleets are priced with.  Router knobs are checked too: a NaN
spill threshold would silently turn ``affinity`` into ``least-loaded``.  ``run()`` arguments are checked
before the run has any side effect (fallback counters, router or
autoscaler resets, report building).
"""

import math

import pytest

from repro.autoscale import (
    ConstantTrace,
    DiurnalTrace,
    ElasticCluster,
    OnOffTrace,
    RampTrace,
    ReplayTrace,
    SpikeTrace,
    StaticPolicy,
)
from repro.cluster import AffinityRouter
from repro.genai.workload import GenRequest
from repro.obs.telemetry import BUS
from repro.serving import NodeSpec, OnlineServingEngine, Request, poisson_requests
from repro.sim import fast as sfast
from repro.sim import DiscreteEventKernel, EventKind, FailureTrace
from repro.sim.kernel import Event

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("t", NON_FINITE)
def test_request_rejects_non_finite_arrival(t):
    with pytest.raises(ValueError, match="finite"):
        Request(1, "BERT", t)


@pytest.mark.parametrize("slo", NON_FINITE)
def test_request_rejects_non_finite_slo(slo):
    with pytest.raises(ValueError, match="finite"):
        Request(1, "BERT", 0.5, slo)


@pytest.mark.parametrize("t", NON_FINITE)
def test_gen_request_rejects_non_finite_arrival(t):
    with pytest.raises(ValueError, match="finite"):
        GenRequest(req_id=1, arrival_s=t, prompt_tokens=4, max_new_tokens=4)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_kernel_schedule_rejects_non_finite_time(t):
    kernel = DiscreteEventKernel()
    with pytest.raises(ValueError, match="finite"):
        kernel.schedule(t, EventKind.FINISH)
    assert not kernel._heap


@pytest.mark.parametrize("t", NON_FINITE)
def test_kernel_preload_rejects_non_finite_time(t):
    kernel = DiscreteEventKernel()
    with pytest.raises(ValueError, match="finite"):
        kernel.preload([Event(0.0, EventKind.ARRIVAL, 0), Event(t, EventKind.ARRIVAL, 1)])


@pytest.mark.parametrize("t", NON_FINITE)
def test_kernel_lazy_stream_rejects_non_finite_time(t):
    kernel = DiscreteEventKernel()
    kernel.preload_stream(
        iter([Event(0.0, EventKind.ARRIVAL, 0), Event(t, EventKind.ARRIVAL, 1)])
    )
    with pytest.raises(ValueError, match="finite"):
        kernel.run({})


def test_outage_rejects_infinite_end():
    with pytest.raises(ValueError, match="finite"):
        FailureTrace.scripted([(0, 1.0, math.inf)])


def test_rejected_presorted_run_has_no_side_effects():
    """A presorted run without a horizon fails before it counts a
    fast-path run or any fast fallback, or resets the router and the
    autoscaler."""

    class Tracking(StaticPolicy):
        resets = 0

        def reset(self):
            Tracking.resets += 1

    cluster = ElasticCluster(models=["BERT"], router="round-robin")
    cluster.router._next["BERT"] = 7
    reqs = poisson_requests("BERT", 50.0, 0.2, seed=1)
    def fallbacks():
        counters = BUS.snapshot()["counters"]
        return {k: v for k, v in counters.items() if k.startswith("fast_fallback")}

    BUS.enable()
    try:
        before = fallbacks()
        runs = sfast.FAST_RUNS
        for horizon in (None, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon_s"):
                cluster.run(
                    iter(reqs),
                    Tracking(1),
                    presorted=True,
                    horizon_s=horizon,
                    fast=True,
                )
        assert fallbacks() == before
        assert sfast.FAST_RUNS == runs
    finally:
        BUS.disable()
        BUS.reset()
    assert Tracking.resets == 0
    assert cluster.router._next == {"BERT": 7}


def test_engine_rejects_unknown_model_before_the_run():
    """An unknown model raises up front: no fast-path run or fallback is
    counted, and no report is built."""
    engine = OnlineServingEngine(models={})
    reqs = [Request(0, "BERT", 0.0), Request(1, "NOPE", 0.1)]
    BUS.enable()
    try:
        before = BUS.snapshot()["counters"]
        runs = sfast.FAST_RUNS
        for record in ("full", "streaming"):
            with pytest.raises(KeyError, match="unknown model 'BERT'"):
                engine.run(reqs, "hybrid", record=record, fast=True)
        assert BUS.snapshot()["counters"] == before
        assert sfast.FAST_RUNS == runs
    finally:
        BUS.disable()
        BUS.reset()


_TRACES = {
    "constant": lambda x: ConstantTrace(x),
    "diurnal-rates": lambda x: DiurnalTrace(x, x, 60.0),
    "diurnal-period": lambda x: DiurnalTrace(1.0, 2.0, period_s=x),
    "diurnal-phase": lambda x: DiurnalTrace(1.0, 2.0, 60.0, phase_s=x),
    "scaled": lambda x: ConstantTrace(1.0).scaled(x),
    "onoff-base": lambda x: OnOffTrace(
        base_rps=x, burst_rps=5.0, mean_base_s=1.0, mean_burst_s=1.0, horizon_s=10.0
    ),
    "onoff-dwell": lambda x: OnOffTrace(
        base_rps=1.0, burst_rps=5.0, mean_base_s=x, mean_burst_s=1.0, horizon_s=10.0
    ),
    "onoff-horizon": lambda x: OnOffTrace(
        base_rps=1.0, burst_rps=5.0, mean_base_s=1.0, mean_burst_s=1.0, horizon_s=x
    ),
    "spike-at": lambda x: SpikeTrace(1.0, 5.0, spike_at_s=x),
    "spike-decay": lambda x: SpikeTrace(1.0, 5.0, 1.0, decay_s=x),
    "ramp": lambda x: RampTrace(1.0, x, 10.0),
    "ramp-duration": lambda x: RampTrace(1.0, 2.0, ramp_s=x),
    "replay-time": lambda x: ReplayTrace(((0.0, 1.0), (x, 2.0))),
    "replay-rate": lambda x: ReplayTrace(((0.0, x),)),
}


@pytest.mark.parametrize("x", NON_FINITE)
@pytest.mark.parametrize("trace", sorted(_TRACES))
def test_rate_traces_reject_non_finite_parameters(trace, x):
    with pytest.raises(ValueError, match="finite"):
        _TRACES[trace](x)


@pytest.mark.parametrize("x", NON_FINITE)
@pytest.mark.parametrize(
    "fields",
    [("memory_bytes",), ("hourly_cost",), ("idle_w", "busy_w"), ("busy_w",)],
)
def test_node_spec_rejects_non_finite_fields(fields, x):
    with pytest.raises(ValueError, match="finite"):
        NodeSpec("stepstone", **{f: x for f in fields})


@pytest.mark.parametrize("spill", [math.nan, math.inf, -3, 2.5, True, "2"])
def test_affinity_router_rejects_bad_spill_backlog(spill):
    with pytest.raises(ValueError, match="spill_backlog"):
        AffinityRouter(spill_backlog=spill)


@pytest.mark.parametrize("spill", [None, 0, 3])
def test_affinity_router_accepts_spill_backlog(spill):
    assert AffinityRouter(spill_backlog=spill).spill_backlog == spill


@pytest.mark.parametrize("batch", [math.nan, math.inf, -math.inf, 2.5, 0, -3, True, "4"])
def test_batch_latency_rejects_non_positive_integer_batches(batch):
    """A NaN batch passes ``batch <= 0``; it must not be priced or cached."""
    engine = OnlineServingEngine()
    with pytest.raises(ValueError, match="positive integer"):
        engine.batch_latency("BERT", "hybrid", batch)
    assert engine._latency_cache == {}
