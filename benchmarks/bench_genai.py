"""Generative-serving harness: token throughput of the decode loop.

``repro.genai`` runs its decode boundaries on the shared sim kernel as
macro-stepped segments: one DECODE_STEP event per run of boundaries
over which the batch cannot change.  The hot path is the segment
boundary: release finished sequences, admit joiners, reserve KV growth,
walk the boundary chain.  The ``decode_10k`` entry drives 10k sequences
of decode-heavy traffic (fixed 16-token prompts so the latency memo
stays warm, 32 output tokens each) through a ContinuousBatcher.
``width_sweep`` prices the continuous-vs-static goodput argument across
batch widths, and ``serve-genai`` regenerates the experiment.  The
recorded metrics land in ``BENCH_genai.json`` — the repo's perf
trajectory for the generative layer.
"""

from repro.genai import (
    ContinuousBatcher,
    GenerativeEngine,
    StaticBatcher,
    gen_requests,
)
from repro.genai import fast as gfast
from repro.serving import OnlineServingEngine


def decode_heavy_stream():
    """10k sequences, fixed lengths: prompt 16, output 32 tokens."""
    return gen_requests(
        rate_rps=200.0,
        duration_s=50.0,
        prompt_range=(16, 16),
        output_range=(32, 32),
        seed=42,
    )


def _engine(shared, scheduler=None, max_batch=8):
    return GenerativeEngine(
        scheduler=scheduler if scheduler is not None else ContinuousBatcher(),
        max_batch=max_batch,
        engine=shared,
    )


def test_serve_genai_experiment(run_bench):
    run_bench("serve-genai")


def test_decode_10k_tokens_per_sec(benchmark, perf_record):
    """The macro-stepped decode loop at 10k sequences: one kernel event
    per constant-composition segment (the generative layer's headline
    number)."""
    stream = decode_heavy_stream()
    shared = OnlineServingEngine()
    eng = _engine(shared)
    # Warm the latency memo so the timing measures the event loop, not
    # first-touch GEMM math.
    eng.run(stream[:200], record="streaming")

    def run():
        return eng.run(stream, record="streaming")

    before = gfast.FAST_RUNS
    rep = benchmark.pedantic(run, rounds=3, iterations=1)
    assert gfast.FAST_RUNS > before
    wall = float(benchmark.stats.stats.mean)
    perf_record(
        "decode_10k",
        benchmark,
        fast_path=True,
        sequences=len(stream),
        tokens=rep.tokens_out,
        events=rep.events_processed,
        tokens_per_s=round(rep.tokens_out / wall),
        events_per_s=round(rep.events_processed / wall),
        sim_tokens_per_s=round(rep.tokens_per_s, 1),
    )
    assert rep.served == len(stream)
    assert rep.tokens_out == 32 * len(stream)
    assert rep.events_processed > len(stream)  # arrivals + phases


def test_width_sweep_continuous_vs_static(benchmark, perf_record):
    """Simulated goodput, continuous vs static, across batch widths.

    Mixed output lengths (8..64) are what static batching pays for:
    every short sequence pads the decode GEMM until the batch's longest
    finishes.  The sweep records each combination's simulated tokens/s
    as one flat entry.
    """
    stream = gen_requests(
        rate_rps=100.0,
        duration_s=20.0,
        prompt_range=(16, 16),
        output_range=(8, 64),
        seed=7,
    )
    widths = (4, 8, 16)
    shared = OnlineServingEngine()
    _engine(shared).run(stream[:100], record="streaming")  # warm

    def sweep():
        out = {}
        for w in widths:
            for name, sched in (
                ("continuous", ContinuousBatcher()),
                ("static", StaticBatcher()),
            ):
                rep = _engine(shared, sched, w).run(stream, record="streaming")
                assert rep.served == len(stream)
                out[f"{name}_b{w}_sim_tokens_per_s"] = round(rep.tokens_per_s, 1)
        return out

    before = gfast.FAST_RUNS
    goodputs = benchmark.pedantic(sweep, rounds=2, iterations=1)
    assert gfast.FAST_RUNS > before
    # Continuous must beat static at every width under mixed lengths —
    # the paper-level claim the sweep exists to keep pinned.
    for w in widths:
        assert (
            goodputs[f"continuous_b{w}_sim_tokens_per_s"]
            > goodputs[f"static_b{w}_sim_tokens_per_s"]
        )
    perf_record(
        "width_sweep",
        benchmark,
        fast_path=True,
        sequences=len(stream),
        **goodputs,
    )
