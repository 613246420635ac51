"""Online-serving harness: workload sweep over the request-level engine.

Regenerates the ``serve`` experiment (CPU vs PIM vs hybrid dispatch of
Poisson request streams) and benchmarks the engine itself: the memoized
batch-latency model and a full overloaded BERT simulation per policy.
"""

from repro.core.memo import PRICING_MEMO
from repro.serving import OnlineServingEngine, poisson_requests


def test_serve_experiment(run_bench):
    run_bench("serve")


def test_serving_bert_overload_sweep(benchmark, perf_record):
    """One overloaded BERT stream simulated under all three policies."""
    engine = OnlineServingEngine()
    requests = poisson_requests(
        "BERT", rate_rps=300, duration_s=2.0, seed=7, slo_s=2.0
    )

    def run():
        return engine.run_policies(requests)

    reports = benchmark.pedantic(run, rounds=2, iterations=1)
    perf_record(
        "bert_overload_sweep",
        benchmark,
        requests=len(requests),
        hybrid_rps=round(reports["hybrid"].throughput_rps, 2),
    )
    best_single = max(reports["cpu"].throughput_rps, reports["pim"].throughput_rps)
    assert reports["hybrid"].throughput_rps >= best_single - 1e-9


def test_serving_batch_latency_model_cold(benchmark, perf_record):
    """Cold-cache cost of the per-batch service-time model (all policies,
    batch sizes 1..64) — the price of admitting one new operating point."""

    def run():
        # Cold each round, not only the first: a fresh engine and an
        # empty process-wide pricing memo, which engines otherwise share.
        PRICING_MEMO.clear()
        engine = OnlineServingEngine()
        for policy in ("cpu", "pim", "hybrid"):
            for batch in (1, 4, 16, 64):
                engine.batch_latency("BERT", policy, batch)
        return engine

    engine = benchmark.pedantic(run, rounds=2, iterations=1)
    perf_record(
        "batch_latency_model_cold",
        benchmark,
        cache_entries=len(engine._latency_cache),
    )
    assert len(engine._latency_cache) == 12
