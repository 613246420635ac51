"""Generative LLM serving: prefill/decode economics on one sim kernel.

Autoregressive decode is the modern extreme of the paper's thesis: every
generated token re-streams the full decoder weights at an activation
dimension equal to the batch width — batch-1 GEMV, the bandwidth-bound
regime where main-memory acceleration wins (§I, §V-B).  This experiment
drives ``repro.genai`` through four sections:

* **Phases** — per-event anatomy: a batch-1 decode step on StepStone vs
  the GPU roofline (the 10x+ gap of Figs. 1/6 re-emerging per token) and
  the prefill pass where the compute-dense GPU pulls back ahead.
* **Batching** — the serving headline: under mixed output lengths and
  open Poisson arrivals, a :class:`~repro.genai.ContinuousBatcher` beats
  a :class:`~repro.genai.StaticBatcher` on TTFT (no waiting for the
  batch drain) while matching-or-beating its tokens/s (no padding waste).
* **Economics** — $/1k emitted tokens per substrate: on interactive
  decode-heavy traffic (modest concurrency) the StepStone socket
  undercuts the GPU; on a bulk closed-batch wave (width-64 decode) the
  GPU's wide-batch throughput wins the dollars back — the honest
  crossover, same shape as the serve-hetero regimes.
* **KV pressure** — the cache budget driven to saturation: queueing and
  preempt-to-requeue at the wall, high-water exactly at capacity, never
  overflow, and bit-identical reports across repeated runs.
"""

from __future__ import annotations

import random
from typing import List

from repro.experiments.common import ExperimentResult
from repro.genai import (
    ContinuousBatcher,
    GenerativeEngine,
    GenRequest,
    StaticBatcher,
    gen_requests,
)
from repro.serving import GPU_NODE, STEPSTONE_NODE, OnlineServingEngine

__all__ = ["run"]

SEED = 7


def _engine(shared: OnlineServingEngine, **kw) -> GenerativeEngine:
    kw.setdefault("engine", shared)
    return GenerativeEngine(**kw)


def run(fast: bool = False) -> ExperimentResult:
    """Run the generative-serving experiment (``--fast`` shrinks traces)."""
    res = ExperimentResult(
        experiment_id="serve-genai",
        title="Generative serving: prefill/decode split, KV pressure, batching",
        paper_reference="§I / §V-B (batch-1 GEMV thesis), Figs. 1 and 6 (substrate gap)",
    )
    shared = OnlineServingEngine()

    # -------------------------------------------------------------- #
    # 1. Phase anatomy: what one event costs per substrate
    # -------------------------------------------------------------- #
    ss = _engine(shared, max_batch=8)
    gpu = _engine(shared, spec=GPU_NODE, max_batch=8)
    for label, eng in (("stepstone", ss), ("gpu", gpu)):
        res.add(
            section="phases",
            backend=label,
            decode_b1_ms=eng.gemm_seconds(1) * 1e3,
            decode_b8_ms=eng.gemm_seconds(8) * 1e3,
            decode_b64_ms=eng.gemm_seconds(64) * 1e3,
            prefill_t256_ms=eng.gemm_seconds(256) * 1e3,
        )
    res.check(
        "batch-1 decode: StepStone-class bandwidth beats the GPU roofline 10x+",
        ss.gemm_seconds(1) * 10 < gpu.gemm_seconds(1),
    )
    res.check(
        "prefill (N=256): the compute-dense pass flips back to the GPU",
        gpu.gemm_seconds(256) < ss.gemm_seconds(256),
    )

    # -------------------------------------------------------------- #
    # 2. Static vs continuous batching under mixed output lengths
    # -------------------------------------------------------------- #
    duration = 70.0 if fast else 180.0
    mixed = gen_requests(
        rate_rps=0.6,
        duration_s=duration,
        prompt_range=(16, 32),
        output_range=(8, 96),
        seed=SEED,
    )
    reports = {}
    for sched in (StaticBatcher(), ContinuousBatcher()):
        rep = _engine(shared, scheduler=sched, max_batch=8).run(mixed)
        reports[sched.name] = rep
        res.add(
            section="batching",
            scheduler=sched.name,
            served=rep.served,
            mean_ttft_s=rep.mean_ttft_s,
            p95_ttft_s=rep.ttft_percentile(95),
            mean_itl_ms=rep.mean_itl_s * 1e3,
            tokens_per_s=rep.tokens_per_s,
        )
    static, cont = reports["static"], reports["continuous"]
    res.check(
        "continuous batching strictly beats static on mean and p95 TTFT",
        cont.mean_ttft_s < static.mean_ttft_s
        and cont.ttft_percentile(95) < static.ttft_percentile(95),
    )
    res.check(
        "continuous tokens/s >= static (slots reclaimed, no padding waste)",
        cont.tokens_per_s >= static.tokens_per_s,
    )
    res.note(
        f"mixed lengths ({len(mixed)} seqs, outputs 8-96): TTFT "
        f"{static.mean_ttft_s:.1f}s static -> {cont.mean_ttft_s:.1f}s "
        f"continuous; {static.tokens_per_s:.1f} -> {cont.tokens_per_s:.1f} tok/s"
    )

    # -------------------------------------------------------------- #
    # 3. Substrate economics: $/1k tokens, two regimes
    # -------------------------------------------------------------- #
    cost_rows: List[dict] = []
    econ = {}
    for label, spec in (("stepstone", STEPSTONE_NODE), ("gpu", GPU_NODE)):
        rep = _engine(shared, spec=spec, max_batch=8).run(mixed)
        econ[label] = rep.cost_per_1k_tokens(spec)
        res.add(
            section="economics",
            regime="interactive decode-heavy",
            backend=label,
            tokens_per_s=rep.tokens_per_s,
            mean_itl_ms=rep.mean_itl_s * 1e3,
            cost_per_1k_tokens=econ[label],
        )
    cost_rows.append({"regime": "interactive decode-heavy", **econ})
    res.check(
        "interactive decode-heavy: the StepStone socket undercuts the GPU on $/1k tokens",
        econ["stepstone"] < econ["gpu"],
    )

    rng = random.Random(SEED)
    n_bulk = 96 if fast else 256
    bulk = [GenRequest(i, 0.0, rng.randint(8, 16), 32) for i in range(n_bulk)]
    econ_bulk = {}
    for label, spec in (("stepstone", STEPSTONE_NODE), ("gpu", GPU_NODE)):
        rep = _engine(shared, spec=spec, max_batch=64).run(bulk)
        econ_bulk[label] = rep.cost_per_1k_tokens(spec)
        res.add(
            section="economics",
            regime="bulk closed-batch",
            backend=label,
            tokens_per_s=rep.tokens_per_s,
            mean_itl_ms=rep.mean_itl_s * 1e3,
            cost_per_1k_tokens=econ_bulk[label],
        )
    cost_rows.append({"regime": "bulk closed-batch", **econ_bulk})
    res.check(
        "bulk width-64 decode: the GPU wins the dollars back (the honest crossover)",
        econ_bulk["gpu"] < econ_bulk["stepstone"],
    )
    res.note(
        f"$/1k tokens — interactive: stepstone {econ['stepstone']:.4f} vs gpu "
        f"{econ['gpu']:.4f}; bulk: stepstone {econ_bulk['stepstone']:.4f} vs "
        f"gpu {econ_bulk['gpu']:.4f}"
    )

    # -------------------------------------------------------------- #
    # 4. KV pressure: saturation queues, never overflows
    # -------------------------------------------------------------- #
    pressure = [GenRequest(i, 0.05 * i, 32, 32) for i in range(20)]
    sat = _engine(shared, max_batch=8, kv_capacity_tokens=200)
    rep = sat.run(pressure)
    rep2 = sat.run(pressure)
    res.add(
        section="kv-pressure",
        kv_capacity_tokens=rep.kv_capacity_tokens,
        kv_high_water=rep.kv_high_water_tokens,
        peak_waiting=rep.peak_waiting,
        preemptions=rep.preemptions,
        served=rep.served,
    )
    res.check(
        "KV admission bounds concurrency: high-water <= capacity with queueing observed",
        rep.kv_high_water_tokens <= rep.kv_capacity_tokens
        and rep.peak_waiting > 0
        and rep.served == len(pressure),
    )
    res.check(
        "seeded determinism: identical runs produce identical reports",
        (rep.served, rep.tokens_out, rep.sim_end_s, rep.mean_ttft_s)
        == (rep2.served, rep2.tokens_out, rep2.sim_end_s, rep2.mean_ttft_s),
    )
    res.note(
        f"saturation at {rep.kv_capacity_tokens} KV tokens: high-water "
        f"{rep.kv_high_water_tokens}, peak queue {rep.peak_waiting}, "
        f"{rep.preemptions} preemptions, 0 overflows"
    )

    res.chart = {
        "kind": "cost",
        "rows": cost_rows,
        "category_key": "regime",
        "series_keys": ["stepstone", "gpu"],
        "unit": "$/1k tok",
    }
    return res
