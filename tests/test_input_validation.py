"""Public entry points reject NaN and infinite times.

NaN compares False against everything, so a ``t < 0`` or ``t < now``
guard lets it through and it corrupts the kernel's heap order later.
Every entry point that feeds the simulated clock checks finiteness
itself, and so do the rate traces arrival streams are drawn from and the
node specs fleets are priced with.  Router knobs are checked too: a NaN
spill threshold would silently turn ``affinity`` into ``least-loaded``.  ``run()`` arguments are checked
before the run has any side effect (telemetry counters, router or
autoscaler resets, report building), and a ``GenerativeEngine``
checks its slot count, KV budget and policy when it is built.  The streaming sketches reject
NaN and infinite observations the same way, leaving their state as it
was: a NaN among the values used to shift every later percentile.
Elastic fleets and autoscale policies check their intervals, times,
bandwidths and capacities when built, and window rings their roll
times before any change.
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
from repro.baselines.cpu import CpuConfig, CpuGemmModel
from repro.cluster import AffinityRouter
from repro.genai.workload import GenRequest
from repro.obs.telemetry import BUS
from repro.serving import BatchServer, NodeSpec, OnlineServingEngine, Request, poisson_requests
from repro.sim import fast as sfast
from repro.sim import (
    DiscreteEventKernel,
    EventKind,
    FailureTrace,
    MetricsRecorder,
    QuantileSketch,
    StreamStats,
    WindowRing,
)

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


def _bare_arrivals(*times):
    """Requests at ``times``, past ``Request``'s own finiteness check."""
    reqs = [Request(i, "BERT", 0.0) for i in range(len(times))]
    for r, t in zip(reqs, times):
        object.__setattr__(r, "arrival_s", t)
    return reqs


@pytest.mark.parametrize("t", NON_FINITE)
def test_kernel_preload_rejects_non_finite_time(t):
    """An arrival list with a NaN/inf time raises before that arrival
    is delivered."""
    kernel = DiscreteEventKernel()
    seen = []
    with pytest.raises(ValueError, match="finite"):
        kernel.run(
            {},
            arrivals=_bare_arrivals(0.0, t),
            on_epoch=lambda now, reqs: seen.extend(reqs),
        )
    assert seen == []


@pytest.mark.parametrize("t", NON_FINITE)
def test_kernel_lazy_stream_rejects_non_finite_time(t):
    kernel = DiscreteEventKernel()
    with pytest.raises(ValueError, match="finite"):
        kernel.run(
            {},
            arrivals=iter(_bare_arrivals(0.0, t)),
            on_epoch=lambda now, reqs: None,
        )


def test_kernel_schedule_rejects_arrivals():
    """ARRIVAL events never enter the heap: ``schedule`` refuses them
    and names the way in."""
    kernel = DiscreteEventKernel()
    with pytest.raises(ValueError, match=r"run\(arrivals="):
        kernel.schedule(1.0, EventKind.ARRIVAL, 0)
    assert not kernel._heap


@pytest.mark.parametrize("lazy", [False, True])
def test_kernel_run_rejects_arrivals_without_on_epoch(lazy):
    """Arrivals with nowhere to go raise before the run has any side
    effect: no clock move, no delivered or counted event, no profiler
    ledger touched."""
    from repro.obs import KernelProfiler

    kernel = DiscreteEventKernel()
    kernel.schedule(0.5, EventKind.CONTROL)
    seen = []
    prof = KernelProfiler()
    reqs = [Request(0, "BERT", 1.0)]
    with pytest.raises(ValueError, match="on_epoch"):
        kernel.run(
            {EventKind.CONTROL: lambda now, evs: seen.append(now)},
            arrivals=iter(reqs) if lazy else reqs,
            profiler=prof,
        )
    assert seen == [] and kernel.clock.now == 0.0 and kernel.processed == 0
    assert len(kernel._heap) == 1
    assert prof.runs == 0 and prof.events == 0 and prof.counts == {}
    # Without arrivals, on_epoch may be left out.
    assert kernel.run({}, arrivals=[]) == 0.5


def test_outage_rejects_infinite_end():
    with pytest.raises(ValueError, match="finite"):
        FailureTrace.scripted([(0, 1.0, math.inf)])


def test_rejected_presorted_run_has_no_side_effects():
    """A presorted run without a horizon fails before it counts a
    fast-path run or any telemetry, or resets the router and the
    autoscaler."""

    class Tracking(StaticPolicy):
        resets = 0

        def reset(self):
            Tracking.resets += 1

    cluster = ElasticCluster(models=["BERT"], router="round-robin")
    cluster.router._next["BERT"] = 7
    reqs = poisson_requests("BERT", 50.0, 0.2, seed=1)
    BUS.enable()
    try:
        before = BUS.snapshot()["counters"]
        runs = sfast.FAST_RUNS
        for horizon in (None, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="horizon_s"):
                cluster.run(
                    iter(reqs),
                    Tracking(1),
                    presorted=True,
                    horizon_s=horizon,
                )
        assert BUS.snapshot()["counters"] == before
        assert sfast.FAST_RUNS == runs
    finally:
        BUS.disable()
        BUS.reset()
    assert Tracking.resets == 0
    assert cluster.router._next == {"BERT": 7}


def test_engine_rejects_unknown_model_before_the_run():
    """An unknown model raises up front: no fast-path run or telemetry
    is counted, and no report is built."""
    engine = OnlineServingEngine(models={})
    reqs = [Request(0, "BERT", 0.0), Request(1, "NOPE", 0.1)]
    BUS.enable()
    try:
        before = BUS.snapshot()["counters"]
        runs = sfast.FAST_RUNS
        for record in ("full", "streaming"):
            with pytest.raises(KeyError, match="unknown model 'BERT'"):
                engine.run(reqs, "hybrid", record=record)
        assert BUS.snapshot()["counters"] == before
        assert sfast.FAST_RUNS == runs
    finally:
        BUS.disable()
        BUS.reset()


@pytest.mark.parametrize(
    "kw",
    [
        dict(max_batch=2.5),
        dict(max_batch=0),
        dict(max_batch=-1),
        dict(max_batch=True),
        dict(max_batch="8"),
        dict(kv_capacity_tokens=2.5),
        dict(kv_capacity_tokens=0),
        dict(kv_capacity_tokens=-24),
        dict(kv_capacity_tokens=math.nan),
        dict(policy="bogus"),
        dict(policy="gpu"),
    ],
)
def test_generative_engine_rejects_bad_arguments_at_construction(kw):
    from repro.genai import GenerativeEngine

    with pytest.raises(ValueError, match=next(iter(kw))):
        GenerativeEngine(**kw)


def test_generative_engine_accepts_valid_arguments():
    import numpy as np

    from repro.genai import GenerativeEngine
    from repro.serving import GPU_NODE

    eng = GenerativeEngine(max_batch=np.int64(4), kv_capacity_tokens=24, policy="pim")
    assert (eng.max_batch, eng.kv_capacity_tokens) == (4, 24)
    assert GenerativeEngine(spec=GPU_NODE, policy="gpu").policy == "gpu"
    assert GenerativeEngine(spec=GPU_NODE, policy="hybrid").policy == "hybrid"


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


_CPU_POSITIVE = (
    "cores", "clock_hz", "flops_per_cycle_per_core", "peak_bw_gbps", "eff_bw_small_batch_gbps"
)


@pytest.mark.parametrize("x", [*NON_FINITE, 0, -1.0])
@pytest.mark.parametrize("field", _CPU_POSITIVE)
def test_cpu_config_rejects_non_positive_or_non_finite_rates(field, x):
    """A NaN bandwidth used to reach the kernel clock as a NaN service time."""
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        CpuConfig(**{field: x})


@pytest.mark.parametrize("x", [*NON_FINITE, 0.0, -0.5, 1.5])
def test_cpu_config_rejects_compute_efficiency_outside_unit_interval(x):
    with pytest.raises(ValueError, match=r"compute_efficiency must be in \(0, 1\]"):
        CpuConfig(compute_efficiency=x)


@pytest.mark.parametrize("x", [*NON_FINITE, -1e-9])
@pytest.mark.parametrize("field", ["batch_degradation_per_sample", "overhead_s"])
def test_cpu_config_rejects_negative_or_non_finite_costs(field, x):
    with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
        CpuConfig(**{field: x})


def test_cpu_config_accepts_boundary_values():
    cfg = CpuConfig(compute_efficiency=1.0, batch_degradation_per_sample=0.0, overhead_s=0.0)
    assert CpuGemmModel(cfg).seconds(1024, 1024, 4) > 0.0


@pytest.mark.parametrize("n_max", [math.nan, math.inf, 0, -32, 100.5, True, "64"])
@pytest.mark.parametrize("search", ["break_even_batch", "throughput_under_latency"])
def test_batch_searches_reject_a_non_positive_or_non_integer_n_max(search, n_max):
    # break_even_batch used to return 0 for NaN, 0 or True; the throughput
    # search raised TypeError for 100.5 and "no batch meets" for 0.
    srv = BatchServer()
    args = (1024, 4096, 1e-3) if search == "throughput_under_latency" else (1024, 4096)
    with pytest.raises(ValueError, match="n_max must be a positive integer"):
        getattr(srv, search)(*args, n_max=n_max)


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


def _sketch_state(sk):
    """A sketch's whole state, read without flushing it."""
    markers = None
    if sk._markers is not None:
        markers = [(list(m._q), list(m._pos), m.n) for m in sk._markers]
    exact = None if sk._exact is None else list(sk._exact)
    return (sk.count, sk.min, sk.max, list(sk._pending), exact, markers, sk._rr)


def _sketch_calls(x):
    return [
        ("add", lambda sk: sk.add(x)),
        ("add_many", lambda sk: sk.add_many([1.5, x, 2.5])),
        ("add_run", lambda sk: sk.add_run(x, 4)),
        ("add_run-1", lambda sk: sk.add_run(x, 1)),
    ]


@pytest.mark.parametrize("x", NON_FINITE)
@pytest.mark.parametrize("filled", [5, 40])  # exact reservoir, then spilled
def test_quantile_sketch_rejects_non_finite_and_changes_nothing(x, filled):
    sk = QuantileSketch(exact_limit=8)
    sk.add_many([float(i) for i in range(1, filled + 1)])
    for name, call in _sketch_calls(x):
        before = _sketch_state(sk)
        with pytest.raises(ValueError, match="finite"):
            call(sk)
        assert _sketch_state(sk) == before, name


def test_quantile_sketch_nan_no_longer_shifts_the_median():
    """1..10 with a NaN after the 3 used to read p50 = 4.875 (or NaN,
    or 5.9375, depending on where the NaN fell) once spilled."""
    sk = QuantileSketch(exact_limit=8)
    for v in range(1, 11):
        sk.add(float(v))
        if v == 3:
            with pytest.raises(ValueError, match="finite"):
                sk.add(math.nan)
    clean = QuantileSketch(exact_limit=8)
    clean.add_many([float(v) for v in range(1, 11)])
    assert sk.quantile(50) == clean.quantile(50)
    assert sk.count == 10


def test_finite_values_whose_sum_overflows_are_accepted():
    """The batch test is one ``isfinite`` of a sum; an overflowing sum of
    finite values falls through to the element-wise check and passes."""
    st = StreamStats()
    st.add_many([1e308, 1e308])
    sk = QuantileSketch()
    sk.add_many([1e308, 1e308, -1e308])
    assert (st.count, sk.count, st.max, sk.max) == (2, 3, 1e308, 1e308)


@pytest.mark.parametrize("x", NON_FINITE)
def test_stream_stats_rejects_non_finite_and_changes_nothing(x):
    st = StreamStats(exact_limit=8)
    st.add_many([float(i) for i in range(1, 20)])
    for name, call in _sketch_calls(x):
        before = (st.count, st.total, _sketch_state(st._sketch))
        with pytest.raises(ValueError, match="finite"):
            call(st)
        assert (st.count, st.total, _sketch_state(st._sketch)) == before, name
    assert st.mean == 10.0


@pytest.mark.parametrize("x", NON_FINITE)
def test_window_ring_rejects_non_finite_before_rolling(x):
    ring = WindowRing(window_s=1.0)
    ring.add(0.5, 0.2)
    for call in (lambda: ring.add(x, 5.0), lambda: ring.add_many([0.1, x], 5.0)):
        with pytest.raises(ValueError, match="finite"):
            call()
        assert (len(ring._closed), ring._open.start_s, ring._open.count) == (0, 0.0, 1)


@pytest.mark.parametrize("t", NON_FINITE)
def test_window_ring_rejects_non_finite_times_and_changes_nothing(t):
    """A NaN roll used to start the next window at NaN, hiding every
    earlier completion from window queries; a NaN stamp on an
    auto-rolling ring skipped its roll."""
    auto, explicit = WindowRing(window_s=1.0), WindowRing()
    for ring in (auto, explicit):
        ring.add(0.5, 0.2)
    calls = [
        (auto, lambda: auto.add(1.0, t)),
        (auto, lambda: auto.add_many([1.0, 2.0], t)),
        (auto, lambda: auto.roll(t)),
        (explicit, lambda: explicit.roll(t)),
    ]
    for ring, call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()
        assert (len(ring._closed), ring._open.start_s, ring._open.count) == (0, 0.0, 1)
        assert ring.window_count(0.0, 1.0) == 1


@pytest.mark.parametrize("record", ["full", "streaming"])
@pytest.mark.parametrize("t", NON_FINITE)
def test_recorder_roll_window_rejects_non_finite_times(t, record):
    run = MetricsRecorder(record=record)
    with pytest.raises(ValueError, match="finite"):
        run.roll_window(t)
    if run.ring is not None:
        assert (len(run.ring._closed), run.ring._open.start_s) == (0, 0.0)


_FLEET_FIELDS = ["control_interval_s", "provision_base_s", "copy_gbps"]


@pytest.mark.parametrize("x", NON_FINITE)
@pytest.mark.parametrize("field", _FLEET_FIELDS)
def test_elastic_fleets_reject_non_finite_parameters(field, x):
    """``nan <= 0`` is False: a NaN control interval scheduled no control
    tick (a run of 3,000 BERT requests returned no samples and a peak
    fleet of 0), and a NaN provisioning time or copy bandwidth failed in
    the middle of the run.  Both fleets now name the field when built."""
    from repro.autoscale import HeteroElasticCluster, NodePool
    from repro.serving import STEPSTONE_NODE

    with pytest.raises(ValueError, match="finite"):
        ElasticCluster(models=["BERT"], **{field: x})
    pools = {"stepstone": NodePool(spec=STEPSTONE_NODE, min_nodes=1, initial_nodes=1)}
    with pytest.raises(ValueError, match="finite"):
        HeteroElasticCluster(pools, models=["BERT"], **{field: x})


@pytest.mark.parametrize("x", NON_FINITE)
def test_autoscale_policies_reject_non_finite_capacities(x):
    from repro.autoscale import (
        BaselineBurstPolicy,
        PredictiveTracePolicy,
        TargetUtilizationPolicy,
    )

    trace = ConstantTrace(100.0)
    builds = [
        lambda: TargetUtilizationPolicy(capacity_rps=x),
        lambda: PredictiveTracePolicy(trace, capacity_rps=x, lookahead_s=1.0),
        lambda: PredictiveTracePolicy(trace, capacity_rps=50.0, lookahead_s=x),
        lambda: PredictiveTracePolicy(trace, capacity_rps=50.0, lookahead_s=1.0, headroom=x),
        lambda: BaselineBurstPolicy("a", "b", 1, baseline_capacity_rps=x, burst_capacity_rps=1.0),
        lambda: BaselineBurstPolicy("a", "b", 1, baseline_capacity_rps=1.0, burst_capacity_rps=x),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="finite"):
            build()


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("record", ["full", "streaming"])
def test_recorder_rejects_non_finite_latency(record, x):
    """Every level of a recorder chain stays as it was, in both modes."""
    run = MetricsRecorder(record=record)
    node = MetricsRecorder(record=record, parent=run)
    node.record_batch(0.1, 0.3, [Request(1, "BERT", 0.0)])

    def state():
        if record == "full":
            return [
                (r.completed_count, r.completed, r.latencies_s, r.mean_latency_s)
                for r in (node, run)
            ]
        return [
            (r.completed_count, r.latency.count, r.latency.total, r.ring.window_count(0, 9))
            for r in (node, run)
        ]

    before = state()
    with pytest.raises(ValueError, match="finite"):
        node.record_batch(0.3, x, [Request(2, "BERT", 0.2), Request(3, "BERT", 0.25)])
    assert state() == before


# ---------------------------------------------------------------------------
# Footprint placement: a base outside DRAM is refused, not aliased
# ---------------------------------------------------------------------------

_SKY_CAPACITY = 1 << 34  # the default geometry's bytes
_FOOTPRINT = 1024 * 4096 * 4  # a 1024 x 4096 fp32 weight matrix


@pytest.mark.parametrize(
    "base",
    [_SKY_CAPACITY, 2 * _SKY_CAPACITY, -_FOOTPRINT, _SKY_CAPACITY - _FOOTPRINT // 2],
)
def test_footprint_base_outside_dram_is_rejected(base):
    """``code()`` masks addresses to the capacity, so an out-of-range base
    would price low memory under its own memo key; the analysis, the
    search candidate built on it and ``execute_gemm`` all name the base
    instead."""
    from repro.core.config import StepStoneConfig
    from repro.core.executor import _Candidate, execute_gemm
    from repro.core.gemm import GemmShape
    from repro.mapping.analysis import FootprintAnalysis
    from repro.mapping.presets import make_skylake
    from repro.mapping.xor_mapping import PimLevel

    sky, cfg, level = make_skylake(), StepStoneConfig.default(), PimLevel.BANKGROUP
    assert sky.geometry.capacity_bytes == _SKY_CAPACITY
    match = f"base {base:#x} .*outside"
    with pytest.raises(ValueError, match=match):
        FootprintAnalysis(sky, level, 1024, 4096, base=base)
    with pytest.raises(ValueError, match=match):
        _Candidate(cfg, cfg.unit(level), FootprintAnalysis(sky, level, 1024, 4096, base, 4, 0))
    with pytest.raises(ValueError, match=match):
        execute_gemm(cfg, sky, GemmShape(1024, 4096, 4), level, base=base)


def test_footprint_at_the_top_of_dram_is_accepted():
    from repro.mapping.analysis import FootprintAnalysis
    from repro.mapping.presets import make_skylake
    from repro.mapping.xor_mapping import PimLevel

    base = _SKY_CAPACITY - _FOOTPRINT
    fa = FootprintAnalysis(make_skylake(), PimLevel.BANKGROUP, 1024, 4096, base=base)
    assert fa.base == base
