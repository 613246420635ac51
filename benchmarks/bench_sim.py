"""Simulation-kernel harness: event throughput of the shared substrate.

All four serving loops (engine, static fleet, elastic, hetero) run on
one fleet loop, whose one event loop is the struct-of-arrays drain
(`repro.sim.fast`) over the discrete-event kernel's heap.  This module
guards both:

* ``hetero_100k`` drives the heaviest loop — a 100k-request
  heterogeneous elastic run (StepStone baseline + GPU burst under a
  diurnal swing);
* ``engine_800s`` is the headline end-to-end number: a single-engine
  800-second diurnal run at sustainable load;
* ``hetero_100k_profiled`` re-runs the hetero scenario under
  ``KernelProfiler`` and records where the per-event Python time goes
  (with batched epochs the handler share stays under half);
* ``kernel_micro`` measures the bare reference kernel (preloaded
  stream + a finish scheduled per arrival) with no serving logic.

Every entry carrying ``events_per_s`` also records ``fast_path``: true
for the fleet runs (the drain), false for the bare kernel.  The recorded metrics land in
``BENCH_sim.json``.

Timed iterations warm the engine's latency cache with a full untimed
run, then ``gc.collect(); gc.freeze()`` — the 100k-request stream and
the warmed caches are permanent fixtures of the measurement, and
leaving them in generation 2 costs collector scans on every run.  ``gc.unfreeze()`` restores the
world after each timed section.
"""

import gc

from repro.autoscale import (
    BaselineBurstPolicy,
    DiurnalTrace,
    HeteroElasticCluster,
    NodePool,
    mix_requests,
)
from repro.autoscale.policies import node_capacity_rps
from repro.serving import GPU_NODE, STEPSTONE_NODE, OnlineServingEngine
from repro.sim import DiscreteEventKernel, Event, EventKind

MIX = {"BERT": 0.9, "DLRM": 0.1}


def hetero_100k_scenario():
    """The 100k-request hetero run: cluster, policy, and stream."""
    engine = OnlineServingEngine()
    cluster = HeteroElasticCluster(
        pools={
            "stepstone": NodePool(
                STEPSTONE_NODE, min_nodes=2, max_nodes=12, initial_nodes=8
            ),
            "gpu": NodePool(GPU_NODE, min_nodes=0, max_nodes=4, initial_nodes=0),
        },
        engine=engine,
        policy="hybrid",
        router="backend-affinity",
        models=sorted(MIX),
        control_interval_s=0.5,
    )
    policy = BaselineBurstPolicy(
        baseline="stepstone",
        burst="gpu",
        baseline_nodes=8,
        baseline_capacity_rps=node_capacity_rps(
            engine, MIX, "hybrid", spec=STEPSTONE_NODE
        ),
        burst_capacity_rps=node_capacity_rps(engine, MIX, "hybrid", spec=GPU_NODE),
    )
    stream = mix_requests(
        DiurnalTrace(trough_rps=1200.0, peak_rps=2800.0, period_s=25.0),
        MIX,
        50.0,
        seed=42,
        slos={m: 1.0 for m in MIX},
    )
    return cluster, policy, stream


def _frozen(benchmark, run, rounds):
    """Time ``run`` with the warmed world frozen out of the collector."""
    gc.collect()
    gc.freeze()
    try:
        return benchmark.pedantic(run, rounds=rounds, iterations=1)
    finally:
        gc.unfreeze()


def test_serve_chaos_experiment(run_bench):
    run_bench("serve-chaos")


def test_hetero_100k_events_per_sec(benchmark, perf_record):
    """The heaviest loop at 100k requests."""
    cluster, policy, stream = hetero_100k_scenario()
    # Warm with a full untimed run: the latency cache is keyed by
    # (model, batch size) and the diurnal swing only reaches its peak
    # batch sizes deep into the stream, so a short prefix warm leaves
    # first-touch GEMM math inside the timed rounds.
    cluster.run(stream, policy)

    def run():
        return cluster.run(stream, policy)

    rep = _frozen(benchmark, run, rounds=3)
    wall = float(benchmark.stats.stats.mean)
    perf_record(
        "hetero_100k",
        benchmark,
        requests=len(stream),
        events=rep.events_processed,
        events_per_s=round(rep.events_processed / wall),
        requests_per_s=round(len(stream) / wall),
        served=rep.served,
        rejected=len(rep.rejected),
        fast_path=True,
    )
    assert rep.served + len(rep.rejected) == len(stream)
    assert rep.events_processed > len(stream)  # arrivals + finishes + ticks


def test_engine_800s_events_per_sec(benchmark, perf_record):
    """The headline end-to-end throughput: one engine, an 800-second
    diurnal day at sustainable load, every request served."""
    engine = OnlineServingEngine()
    stream = mix_requests(
        DiurnalTrace(trough_rps=100.0, peak_rps=160.0, period_s=60.0),
        MIX,
        800.0,
        seed=42,
        slos={m: 1.0 for m in MIX},
    )
    engine.run(stream, "hybrid")  # warm the latency cache

    def run():
        return engine.run(stream, "hybrid")

    rep = _frozen(benchmark, run, rounds=3)
    wall = float(benchmark.stats.stats.mean)
    perf_record(
        "engine_800s",
        benchmark,
        requests=len(stream),
        events=rep.events_processed,
        events_per_s=round(rep.events_processed / wall),
        requests_per_s=round(len(stream) / wall),
        served=rep.served,
        fast_path=True,
    )
    assert rep.served + len(rep.rejected) == len(stream)


def test_hetero_100k_profiled(benchmark, perf_record):
    """The 100k-request run under `KernelProfiler`: records where
    the per-event Python time goes (handler share, stream split) and
    what self-profiling costs next to ``hetero_100k``."""
    from repro.obs import KernelProfiler, RunObserver

    cluster, policy, stream = hetero_100k_scenario()
    cluster.run(stream, policy)  # full warm, as above

    prof = KernelProfiler()
    obs = RunObserver(profile=prof)

    def run():
        return cluster.run(stream, policy, obs=obs)

    rep = _frozen(benchmark, run, rounds=2)
    wall = float(benchmark.stats.stats.mean)
    p = prof.profile()
    perf_record(
        "hetero_100k_profiled",
        benchmark,
        requests=len(stream),
        events=rep.events_processed,
        events_per_s=round(rep.events_processed / wall),
        handler_share=round(p.handler_share, 4),
        stream_share=round(p.stream_share, 4),
        top_kind=p.rows()[0]["kind"] if p.rows() else "",
        fast_path=True,
    )
    # The profiler's ledger and the report agree on the last round.
    assert prof.events % rep.events_processed == 0
    assert rep.served + len(rep.rejected) == len(stream)
    # Batched epochs keep the Python-handler share under half.
    assert p.handler_share < 0.5


def test_kernel_micro(benchmark, perf_record):
    """The bare kernel: a preloaded stream plus one scheduled event each."""
    n = 100_000

    def run():
        kernel = DiscreteEventKernel()
        kernel.preload(
            Event(float(i) * 1e-3, EventKind.ARRIVAL, i) for i in range(n)
        )

        def on_arrival(now, events):
            for ev in events:
                kernel.schedule(now + 5e-4, EventKind.FINISH, ev.entity)

        kernel.run({EventKind.ARRIVAL: on_arrival})
        return kernel

    kernel = benchmark.pedantic(run, rounds=3, iterations=1)
    wall = float(benchmark.stats.stats.mean)
    perf_record(
        "kernel_micro",
        benchmark,
        events=kernel.processed,
        events_per_s=round(kernel.processed / wall),
        fast_path=False,
    )
    assert kernel.processed == 2 * n
