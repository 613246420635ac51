"""Differential harness pinning the genai macro-stepped decode path.

``repro.genai.fast`` collapses every constant-composition run of decode
boundaries into one kernel event; this file is the contract that makes
that rewrite safe.  Every seeded scenario runs the *same* generation
stream twice — once through the token-at-a-time reference loop, once
through the macro-stepped path — and asserts the two reports agree
bit-for-bit: same completions in the same order with the same first- and
last-token instants, same preemption counts, same KV high-water, same
busy seconds, same ITL/TTFT means *and percentiles* (both paths feed the
PR 6 sketches identical ``(gap, count)`` runs), same
``events_processed``.  Anything weaker would let a reassociated float
add or an off-by-one segment bound slip through; exact equality is cheap
because both paths are deterministic.

Scenarios are generated from small integer seeds so CI can throw fresh
ones at the harness on every push (``FAST_DIFF_SEEDS=a,b,c``, see the
``genai-fast-differential`` job in ``.github/workflows/ci.yml``).  The
default matrix — seeds 0..9 across both schedulers — is 20 scenarios
before CI adds any: continuous and static batching, wide and narrow
length mixes, and KV budgets squeezed tight enough to preempt.

The bottom sections pin the segment *seams* specifically: KV overflow
landing exactly on a segment's last boundary, recompute-on-resume after
preemption, the never-empty-batch invariant under single-sequence
saturation, the golden trace captured from the pre-fast-path loop, and
one test per labeled ``fast_fallback`` telemetry cause across all five
serving loops.

Regenerate the golden fixture (only on a *deliberate* behavior change):

    PYTHONPATH=src python tests/test_genai_fast_differential.py --capture
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import sys

import pytest

from repro.genai import (
    ContinuousBatcher,
    GenerativeEngine,
    StaticBatcher,
    gen_requests,
)
from repro.genai import fast as gfast
from repro.obs import RunObserver
from repro.obs.telemetry import BUS
from repro.serving import STEPSTONE_NODE

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

SCHEDULERS = ("continuous", "static")
PCTS = (50.0, 90.0, 95.0, 99.0)


def _seeds():
    """Default seed matrix, plus any fresh ones injected by CI."""
    seeds = list(range(10))
    extra = os.environ.get("FAST_DIFF_SEEDS", "")
    for tok in extra.replace(",", " ").split():
        s = int(tok)
        if s not in seeds:
            seeds.append(s)
    return seeds


SEEDS = _seeds()


def _f(x):
    """NaN-safe float (NaN != NaN would poison equality asserts)."""
    if x is None or x != x:
        return None
    return float(x)


class Scenario:
    """One seeded random generative scenario.

    Everything the macro-stepper could get wrong is a dimension here:
    scheduler choice (static charges padded width and forbids joins;
    continuous joins at boundaries), batch slots, prompt/output length
    spreads (which set segment lengths and finish staggering), and —
    on every third seed — a KV budget squeezed to around the worst-case
    sequence so segments end at overflow boundaries and preemption,
    readmission, and (when the budget dips *below* worst case) arrival
    rejection all churn the batch composition.
    """

    def __init__(self, seed, scheduler):
        rng = random.Random(f"genai-fast-{scheduler}-{seed}")
        self.seed = seed
        self.scheduler = scheduler
        self.rate_rps = rng.uniform(15.0, 80.0)
        self.duration_s = rng.uniform(2.0, 5.0)
        lo_p = rng.randint(4, 24)
        self.prompt_range = (lo_p, lo_p + rng.randint(0, 40))
        lo_o = rng.randint(4, 16)
        self.output_range = (lo_o, lo_o + rng.randint(0, 48))
        self.max_batch = rng.randint(2, 12)
        worst = self.prompt_range[1] + self.output_range[1]
        if seed % 6 == 0:
            # Below worst case: the largest requests reject at arrival.
            self.kv_capacity = worst - 1 - rng.randint(0, worst // 4)
        elif seed % 3 == 0:
            # At or above worst case: everything admits, decode preempts.
            self.kv_capacity = worst + rng.randint(0, 2 * worst)
        else:
            self.kv_capacity = None

    def stream(self):
        return gen_requests(
            self.rate_rps,
            self.duration_s,
            self.prompt_range,
            self.output_range,
            seed=self.seed,
        )

    def engine(self):
        sched = (
            ContinuousBatcher()
            if self.scheduler == "continuous"
            else StaticBatcher()
        )
        return GenerativeEngine(
            scheduler=sched,
            max_batch=self.max_batch,
            engine=_shared_engine(),
            kv_capacity_tokens=self.kv_capacity,
        )


_SHARED = None


def _shared_engine():
    """One OnlineServingEngine (the GEMM latency memo) for every run —
    pricing is pure, so sharing it only saves wall time."""
    global _SHARED
    if _SHARED is None:
        from repro.serving import OnlineServingEngine

        _SHARED = OnlineServingEngine()
    return _SHARED


# --------------------------------------------------------------------------
# The exact comparator.  The fingerprint includes every user-visible
# aggregate plus (in full mode) every completion's identity and float
# timestamps — a fast path that drops one ITL sample or shifts a finish
# by one ULP fails here, not in some downstream percentile.
# --------------------------------------------------------------------------


def fingerprint(rep):
    fp = {
        "served": rep.served,
        "rejected": rep.rejected_count,
        "tokens_out": rep.tokens_out,
        "preemptions": rep.preemptions,
        "peak_waiting": rep.peak_waiting,
        "kv_high_water": rep.kv_high_water_tokens,
        "kv_capacity": rep.kv_capacity_tokens,
        "events_processed": rep.events_processed,
        "sim_end_s": _f(rep.sim_end_s),
        "busy_prefill_s": _f(rep.busy_prefill_s),
        "busy_decode_s": _f(rep.busy_decode_s),
        "mean_ttft_s": _f(rep.mean_ttft_s),
        "mean_itl_s": _f(rep.mean_itl_s),
        "itl_samples": rep.itl_samples,
        "cost_per_1k": _f(rep.cost_per_1k_tokens(STEPSTONE_NODE)),
        "ttft_pct": tuple(_f(rep.ttft_percentile(q)) for q in PCTS),
        "itl_pct": tuple(_f(rep.itl_percentile(q)) for q in PCTS),
    }
    if rep.record == "full":
        fp["completions"] = [
            (
                c.request.req_id,
                _f(c.first_token_s),
                _f(c.finish_s),
                c.tokens_out,
                c.preemptions,
            )
            for c in rep.completions
        ]
    return fp


def run_both(scn, record="full"):
    """Run the scenario slow then fast; the fast run must actually
    engage the macro-stepped path (FAST_RUNS counter bumps)."""
    slow = scn.engine().run(scn.stream(), record=record)
    before = gfast.FAST_RUNS
    fast = scn.engine().run(scn.stream(), record=record, fast=True)
    assert gfast.FAST_RUNS == before + 1, (
        "fast=True fell back to the reference path",
        scn.seed,
        scn.scheduler,
    )
    return slow, fast


# --------------------------------------------------------------------------
# The seed matrix: 10 seeds x both schedulers = 20 scenarios, plus
# whatever CI injects.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fast_matches_slow(seed, scheduler):
    scn = Scenario(seed, scheduler)
    slow, fast = run_both(scn)
    assert fingerprint(slow) == fingerprint(fast)


def test_matrix_exercises_preemption_and_rejection():
    """The tight-budget seeds must actually churn: at least one default
    scenario preempts and at least one rejects, or the matrix is not
    covering the overflow seams it claims to."""
    preempted = rejected = 0
    for seed in (0, 3, 6):
        scn = Scenario(seed, "continuous")
        rep = scn.engine().run(scn.stream())
        preempted += rep.preemptions
        rejected += rep.rejected_count
    assert preempted > 0
    assert rejected > 0


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_streaming_record_engages_and_matches(scheduler):
    """Both record modes take the macro-stepped path; streaming
    aggregates must equal the slow streaming run's exactly."""
    scn = Scenario(1, scheduler)
    slow, fast = run_both(scn, record="streaming")
    assert fingerprint(slow) == fingerprint(fast)


# --------------------------------------------------------------------------
# Segment-seam edge cases (deterministic, hand-sized KV budgets).
#
# Two sequences (prompt 4, 20 output tokens each) under a 24-token
# budget: both prefill (5 reserved each), decode grows the cache by 2
# per boundary, so boundary 7 lands the cache exactly on capacity — the
# fast path's segment must end precisely there, the next composition
# point preempts the younger sequence, the survivor finishes with the
# cache again landing exactly on capacity, and the victim re-prefills
# its recomputed context and finishes alone.
# --------------------------------------------------------------------------


def _overflow_requests():
    from repro.genai.workload import GenRequest

    return [
        GenRequest(req_id=0, arrival_s=0.0, prompt_tokens=4, max_new_tokens=20),
        GenRequest(req_id=1, arrival_s=0.0, prompt_tokens=4, max_new_tokens=20),
    ]


def _overflow_engine():
    return GenerativeEngine(
        scheduler=ContinuousBatcher(), max_batch=2, kv_capacity_tokens=24
    )


def test_overflow_at_exact_segment_boundary():
    """KV saturation on the segment's *last* boundary: the high-water
    mark must equal capacity exactly on both paths (an off-by-one in
    ``(capacity - used) // width`` would overshoot or stop early)."""
    slow = _overflow_engine().run(_overflow_requests())
    before = gfast.FAST_RUNS
    fast = _overflow_engine().run(_overflow_requests(), fast=True)
    assert gfast.FAST_RUNS == before + 1
    assert slow.kv_high_water_tokens == 24 == slow.kv_capacity_tokens
    assert slow.preemptions >= 1
    assert fingerprint(slow) == fingerprint(fast)


def test_recompute_on_resume_matches():
    """The preempted sequence re-prefills its recomputed context and
    still finishes with its full token budget; its completion record
    (first token, finish, tokens, preemption count) must be identical
    across paths — the resume seam re-enters the slow admission path
    mid-run, so this pins the fast/slow interleaving."""
    slow = _overflow_engine().run(_overflow_requests())
    fast = _overflow_engine().run(_overflow_requests(), fast=True)
    victims = [c for c in slow.completions if c.preemptions > 0]
    assert victims, "scenario no longer preempts; rebuild it"
    for c in victims:
        assert c.tokens_out == c.request.max_new_tokens
    assert [
        (c.request.req_id, c.first_token_s, c.finish_s, c.tokens_out, c.preemptions)
        for c in slow.completions
    ] == [
        (c.request.req_id, c.first_token_s, c.finish_s, c.tokens_out, c.preemptions)
        for c in fast.completions
    ]


def test_never_empty_batch_under_saturation():
    """Sequences sized at the full KV budget: admission lets several in,
    decode growth preempts down to one — but never to zero (a lone
    survivor always fits, because arrival guarded its worst case).  The
    macro-stepper must clamp its KV bound to >= 1 boundary in exactly
    the same spots, every sequence must still emit its full budget, and
    the thrash-heavy run must stay bit-identical."""
    from repro.genai.workload import GenRequest

    reqs = [
        GenRequest(
            req_id=i, arrival_s=0.1 * i, prompt_tokens=4, max_new_tokens=20
        )
        for i in range(4)
    ]

    def build():
        return GenerativeEngine(
            scheduler=ContinuousBatcher(), max_batch=4, kv_capacity_tokens=24
        )

    slow = build().run(list(reqs))
    before = gfast.FAST_RUNS
    fast = build().run(list(reqs), fast=True)
    assert gfast.FAST_RUNS == before + 1
    assert slow.served == len(reqs)
    assert slow.preemptions > 0
    assert all(c.tokens_out == 20 for c in slow.completions)
    assert fingerprint(slow) == fingerprint(fast)


# --------------------------------------------------------------------------
# Fallback-reason telemetry: every cause that declines a fast path, in
# every serving loop, must land one labeled increment on the bus — a
# sweep that silently fell back should be a readable counter, not a
# mystery slowdown.
# --------------------------------------------------------------------------


def _assert_fallback(loop, reason, run):
    BUS.enable()
    try:
        before = BUS.counter("fast_fallback", loop=loop, reason=reason)
        run()
        after = BUS.counter("fast_fallback", loop=loop, reason=reason)
        assert after == before + 1, (loop, reason)
    finally:
        BUS.disable()
        BUS.reset()


def _gen_stream():
    return gen_requests(30.0, 1.0, (8, 16), (4, 8), seed=3)


def test_genai_fallback_reasons():
    for reason, obs in [
        ("spans", RunObserver.tracing()),
        ("profiler", RunObserver.profiling()),
    ]:
        eng = GenerativeEngine(scheduler=ContinuousBatcher(), max_batch=4)
        _assert_fallback(
            "genai", reason, lambda: eng.run(_gen_stream(), obs=obs, fast=True)
        )


def _serving_stream():
    from repro.serving import poisson_requests

    return poisson_requests("BERT", 50.0, 1.0, seed=3)


def test_engine_fallback_reasons():
    from repro.serving import OnlineServingEngine

    eng = OnlineServingEngine()
    _assert_fallback(
        "engine",
        "spans",
        lambda: eng.run(
            _serving_stream(), "hybrid", fast=True, obs=RunObserver.tracing()
        ),
    )
    _assert_fast_engages(
        lambda: eng.run(_serving_stream(), "hybrid", fast=True, record="streaming")
    )


def _assert_fast_engages(run):
    """``run`` takes the fast path: FAST_RUNS bumps, no fallback counted."""
    from repro.sim import fast as sfast

    def fallbacks():
        counters = BUS.snapshot()["counters"]
        return {k: v for k, v in counters.items() if k.startswith("fast_fallback")}

    BUS.enable()
    try:
        before = fallbacks()
        runs = sfast.FAST_RUNS
        run()
        assert sfast.FAST_RUNS == runs + 1
        assert fallbacks() == before
    finally:
        BUS.disable()
        BUS.reset()


def test_engine_fast_path_engages_under_profiler_and_on_empty_stream():
    """The engine shares the fleet loop's fast gate: a profiler rides the
    fast drain, and an empty stream is a trivially exact replay."""
    from repro.serving import OnlineServingEngine

    eng = OnlineServingEngine()
    for stream, kw in [
        (_serving_stream(), dict(obs=RunObserver.profiling())),
        ([], dict()),
    ]:
        _assert_fast_engages(lambda: eng.run(stream, "hybrid", fast=True, **kw))


def _custom_router():
    """A router with its own ``route``: the largest node id among the
    least backlogged replicas, read from the live view on every call."""
    from repro.cluster.router import Router

    class LargestIdLeastLoaded(Router):
        name = "largest-id-least-loaded"

        def route(self, request, clock):
            replicas = self.replicas_for(request.model)
            if not replicas:
                return None
            return min(replicas, key=lambda n: (n.backlog(), -n.node_id))

    return LargestIdLeastLoaded()


def _cluster(**ctor_kw):
    from repro.cluster import Cluster

    cl = Cluster(n_nodes=2, replication=2, **ctor_kw)
    return lambda stream, **kw: cl.run(stream, **kw)


def test_cluster_fallback_reasons():
    run = _cluster()
    _assert_fallback(
        "cluster",
        "spans",
        lambda: run(_serving_stream(), fast=True, obs=RunObserver.tracing()),
    )
    for ctor_kw in (dict(record="streaming"), dict(router=_custom_router())):
        run = _cluster(**ctor_kw)
        _assert_fast_engages(lambda: run(_serving_stream(), fast=True))


def _elastic_policy(engine, models):
    from repro.autoscale.policies import (
        TargetUtilizationPolicy,
        node_capacity_rps,
    )

    return TargetUtilizationPolicy(
        capacity_rps=node_capacity_rps(engine, {m: 1.0 for m in models}, "hybrid"),
        target=0.7,
    )


def _elastic(**ctor_kw):
    from repro.autoscale import ElasticCluster

    el = ElasticCluster(models=["BERT"], initial_nodes=1, max_nodes=2, **ctor_kw)
    pol = _elastic_policy(el.engine, ["BERT"])
    return lambda stream, **kw: el.run(stream, pol, **kw)


def test_elastic_fallback_reasons():
    run = _elastic()
    _assert_fallback(
        "elastic",
        "spans",
        lambda: run(_serving_stream(), fast=True, obs=RunObserver.tracing()),
    )
    for ctor_kw, run_kw in [
        (dict(), dict(presorted=True, horizon_s=1.0)),
        (dict(record="streaming"), dict()),
        (dict(router=_custom_router()), dict()),
    ]:
        run = _elastic(**ctor_kw)
        _assert_fast_engages(
            lambda: run(iter(_serving_stream()), fast=True, **run_kw)
        )


def _hetero(**ctor_kw):
    from repro.autoscale import BaselineBurstPolicy, HeteroElasticCluster, NodePool
    from repro.autoscale.policies import node_capacity_rps
    from repro.serving import GPU_NODE

    hc = HeteroElasticCluster(
        pools={
            "stepstone": NodePool(
                STEPSTONE_NODE, min_nodes=1, max_nodes=2, initial_nodes=1
            ),
            "gpu": NodePool(GPU_NODE, min_nodes=0, max_nodes=1, initial_nodes=0),
        },
        models=["BERT"],
        **ctor_kw,
    )
    pol = BaselineBurstPolicy(
        baseline="stepstone",
        burst="gpu",
        baseline_nodes=1,
        baseline_capacity_rps=node_capacity_rps(
            hc.engine, {"BERT": 1.0}, "hybrid", spec=STEPSTONE_NODE
        ),
        burst_capacity_rps=node_capacity_rps(
            hc.engine, {"BERT": 1.0}, "hybrid", spec=GPU_NODE
        ),
    )
    return lambda stream, **kw: hc.run(stream, pol, **kw)


def test_hetero_fallback_reasons():
    run = _hetero()
    _assert_fallback(
        "hetero",
        "spans",
        lambda: run(_serving_stream(), fast=True, obs=RunObserver.tracing()),
    )
    for ctor_kw in (dict(record="streaming"), dict(router=_custom_router())):
        run = _hetero(**ctor_kw)
        _assert_fast_engages(lambda: run(_serving_stream(), fast=True))


def _fleet_fingerprint(rep):
    """Every request's fate in a fleet report, node by node."""

    def key(r):
        return (r.req_id, r.model, r.arrival_s, r.slo_s)

    nodes = rep.node_reports
    if not isinstance(nodes, dict):
        nodes = dict(enumerate(nodes))
    return {
        "nodes": {
            nid: (
                [(key(c.request), c.dispatch_s, c.finish_s, c.batch) for c in nr.completed],
                [(key(r.request), r.rejected_at_s) for r in nr.rejected],
                [(key(f.request), f.failed_at_s, f.reason) for f in nr.failed],
            )
            for nid, nr in nodes.items()
        },
        "dropped": [(key(f.request), f.failed_at_s) for f in rep.dropped],
        "busy": rep.node_busy_s,
        "samples": getattr(rep, "samples", None),
        "events": rep.events_processed,
        "sim_end": rep.sim_end_s,
    }


@pytest.mark.parametrize("fleet", ["cluster", "elastic", "hetero"])
def test_custom_router_fast_matches_slow(fleet):
    """A custom router replays exactly: both paths drive it through the
    same calls, so its fast and reference reports agree request for
    request, outages included."""
    from repro.serving import poisson_requests
    from repro.sim import FailureTrace

    build = {"cluster": _cluster, "elastic": _elastic, "hetero": _hetero}[fleet]
    stream = poisson_requests("BERT", 600.0, 2.0, seed=5, slo_s=0.5)
    router = _custom_router()
    run = build(router=router)
    reports = [
        run(stream, failures=FailureTrace.scripted([(0, 0.6, 1.1)]), fast=fast)
        for fast in (False, True)
    ]
    slow, fast = (_fleet_fingerprint(r) for r in reports)
    assert slow == fast
    # The custom policy really spread the load.
    assert sum(1 for done, _, _ in slow["nodes"].values() if done) >= 2


# --------------------------------------------------------------------------
# Golden genai traces: fixtures captured from the token-at-a-time loop
# *before* the macro-stepped path landed.  Both paths must reproduce
# them token-for-token — this pins the fast path to history, not just
# to the current slow loop (which a shared bug could drift).
# --------------------------------------------------------------------------


def _golden_scenarios():
    return {
        "genai_continuous": Scenario(0, "continuous"),
        "genai_static": Scenario(0, "static"),
    }


def _golden_payload(rep):
    return {
        "aggregates": {
            k: v if not isinstance(v, tuple) else list(v)
            for k, v in fingerprint(rep).items()
            if k != "completions"
        },
        "completions": [
            [
                c.request.req_id,
                c.request.prompt_tokens,
                c.request.max_new_tokens,
                _f(c.request.arrival_s),
                _f(c.first_token_s),
                _f(c.finish_s),
                c.tokens_out,
                c.preemptions,
            ]
            for c in rep.completions
        ],
    }


@pytest.mark.parametrize("name", sorted(_golden_scenarios()))
@pytest.mark.parametrize("fast", [False, True])
def test_golden_genai_trace(name, fast):
    path = FIXTURES / f"golden_{name}.json"
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        "`PYTHONPATH=src python tests/test_genai_fast_differential.py --capture`"
    )
    scn = _golden_scenarios()[name]
    rep = scn.engine().run(scn.stream(), fast=fast)
    assert _golden_payload(rep) == json.loads(path.read_text())


def _capture() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, scn in _golden_scenarios().items():
        rep = scn.engine().run(scn.stream())
        path = FIXTURES / f"golden_{name}.json"
        path.write_text(json.dumps(_golden_payload(rep), indent=1))
        print(f"captured {path} ({rep.served} seqs, {rep.tokens_out} tokens)")


if __name__ == "__main__":
    if "--capture" in sys.argv:
        _capture()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
