"""Public entry points reject NaN and infinite times.

NaN compares False against everything, so a ``t < 0`` or ``t < now``
guard lets it through and it corrupts the kernel's heap order later.
Every entry point that feeds the simulated clock checks finiteness
itself.  Fleet ``run()`` arguments are checked before the run has any
side effect (fallback counters, router or autoscaler resets).
"""

import math

import pytest

from repro.autoscale import ElasticCluster, StaticPolicy
from repro.genai.workload import GenRequest
from repro.obs.telemetry import BUS
from repro.serving import Request, poisson_requests
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
    """A presorted run without a horizon fails before it counts a fast
    fallback or resets the router and the autoscaler."""

    class Tracking(StaticPolicy):
        resets = 0

        def reset(self):
            Tracking.resets += 1

    cluster = ElasticCluster(models=["BERT"], router="round-robin")
    cluster.router._next["BERT"] = 7
    reqs = poisson_requests("BERT", 50.0, 0.2, seed=1)
    labels = dict(loop="elastic", reason="presorted-stream")
    BUS.enable()
    try:
        before = BUS.counter("fast_fallback", **labels)
        for horizon in (None, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon_s"):
                cluster.run(
                    iter(reqs),
                    Tracking(1),
                    presorted=True,
                    horizon_s=horizon,
                    fast=True,
                )
        assert BUS.counter("fast_fallback", **labels) == before
    finally:
        BUS.disable()
        BUS.reset()
    assert Tracking.resets == 0
    assert cluster.router._next == {"BERT": 7}
