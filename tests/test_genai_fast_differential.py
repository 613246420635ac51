"""Differential harness pinning the genai macro-stepped decode path.

Every ``GenerativeEngine.run`` decodes through ``repro.genai.fast``,
which collapses each constant-composition run of decode boundaries into
one kernel event; this file is the contract that makes that rewrite
safe.  Every seeded scenario runs the *same* generation stream twice —
once on the token-at-a-time oracle (``tests/genai_oracle.py``, one
boundary per segment), once on the engine as it stands — and asserts
the two reports agree bit-for-bit: same completions in the same order
with the same first- and last-token instants, same preemption counts,
same KV high-water, same busy seconds, same ITL/TTFT means *and
percentiles* (both feed the streaming sketches identical ``(gap,
count)`` runs), same ``events_processed``.  Anything weaker would let a
reassociated float add or an off-by-one segment bound slip through;
exact equality is cheap because both runs are deterministic.

Scenarios are generated from small integer seeds so CI can throw fresh
ones at the harness on every push (``FAST_DIFF_SEEDS=a,b,c``, see the
``genai-fast-differential`` job in ``.github/workflows/ci.yml``).  The
default matrix — seeds 0..9 across both schedulers — is 20 scenarios
before CI adds any: continuous and static batching, wide and narrow
length mixes, and KV budgets squeezed tight enough to preempt.  Each
also runs as a trickle at a twentieth of its rate, the only way a
continuous segment gets bounded by a pending arrival.

The bottom sections pin the segment *seams* specifically: KV overflow
landing exactly on a segment's last boundary, recompute-on-resume after
preemption, the never-empty-batch invariant under single-sequence
saturation, a join arriving exactly on a boundary, the golden trace
captured from the pre-fast-path loop, a traced and a profiled genai
run against the oracle's, the seed matrix on the event-at-a-time loop
oracle (``tests/fleet_oracle.py``), and one test per fleet loop that a
traced run takes the drain and matches that oracle span for span.

Regenerate the golden fixture (only on a *deliberate* behavior change):

    PYTHONPATH=src python tests/test_genai_fast_differential.py --capture
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import sys
from itertools import product
from types import SimpleNamespace

import pytest

from repro.genai import (
    ContinuousBatcher,
    GenerativeEngine,
    StaticBatcher,
    gen_requests,
)
from repro.genai import fast as gfast
from repro.genai.engine import SeqState
from repro.genai.workload import GenRequest
from repro.obs import RunObserver
from repro.obs.telemetry import BUS
from repro.serving import STEPSTONE_NODE
from repro.sim import fast as sfast

from genai_oracle import oracle_run as genai_oracle_run

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


def _assert_engages(run, fastmod=gfast):
    """``run`` takes ``fastmod``'s path: its FAST_RUNS bumps by one, and
    no ``fast_fallback`` counter exists on the bus."""
    BUS.enable()
    try:
        runs = fastmod.FAST_RUNS
        out = run()
        assert fastmod.FAST_RUNS == runs + 1, fastmod.__name__
        counters = BUS.snapshot()["counters"]
        assert not [k for k in counters if k.startswith("fast_fallback")]
    finally:
        BUS.disable()
        BUS.reset()
    return out


def run_both(scn, record="full"):
    """Run the scenario on the oracle, then on the engine, which must
    take the macro-stepped path (FAST_RUNS bumps)."""
    slow = genai_oracle_run(scn.engine().run, scn.stream(), record=record)
    fast = _assert_engages(lambda: scn.engine().run(scn.stream(), record=record))
    return slow, fast


# --------------------------------------------------------------------------
# The seed matrix: 10 seeds x both schedulers = 20 scenarios, plus
# whatever CI injects, each at its own rate and as a trickle.
# --------------------------------------------------------------------------

#: Rate scales of the matrix: the scenario's own rate keeps a request
#: waiting until the last arrival, so only a trickle (a twentieth of it)
#: empties the queue with arrivals still to come, where a continuous
#: segment stops at the next arrival's instant.
RATE_SCALES = (1.0, 0.05)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fast_matches_slow(seed, scheduler):
    for scale in RATE_SCALES:
        scn = Scenario(seed, scheduler)
        scn.rate_rps *= scale
        slow, fast = run_both(scn)
        assert fingerprint(slow) == fingerprint(fast), scale


def test_matrix_bounds_a_segment_by_a_pending_arrival(monkeypatch):
    """Some default scenario must peek the kernel while an arrival is
    pending and get that arrival's instant back -- the seam where
    ``plan_segment`` bounds a decode segment by an arrival -- or the
    matrix is not covering it."""
    from repro.sim.kernel import DiscreteEventKernel

    real = DiscreteEventKernel.peek_time
    bounded = []

    def spy(kernel):
        t = real(kernel)
        if kernel._next_t is not None and t == kernel._next_t:
            bounded.append(t)
        return t

    monkeypatch.setattr(DiscreteEventKernel, "peek_time", spy)
    for seed, scheduler, scale in product(range(10), SCHEDULERS, RATE_SCALES):
        scn = Scenario(seed, scheduler)
        scn.rate_rps *= scale
        scn.engine().run(scn.stream())
    assert bounded


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
    aggregates must equal the oracle's streaming run's exactly."""
    scn = Scenario(1, scheduler)
    slow, fast = run_both(scn, record="streaming")
    assert fingerprint(slow) == fingerprint(fast)


# --------------------------------------------------------------------------
# Segment-seam edge cases (deterministic, hand-sized KV budgets).
#
# Two sequences (prompt 4, 20 output tokens each) under a 24-token
# budget: both prefill (5 reserved each), decode grows the cache by 2
# per boundary, so boundary 7 lands the cache exactly on capacity — the
# macro step's segment must end precisely there, the next composition
# point preempts the younger sequence, the survivor finishes with the
# cache again landing exactly on capacity, and the victim re-prefills
# its recomputed context and finishes alone.
# --------------------------------------------------------------------------


def _overflow_requests():
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
    mark must equal capacity exactly on both runs (an off-by-one in
    ``(capacity - used) // width`` would overshoot or stop early)."""
    slow = genai_oracle_run(_overflow_engine().run, _overflow_requests())
    fast = _assert_engages(lambda: _overflow_engine().run(_overflow_requests()))
    assert slow.kv_high_water_tokens == 24 == slow.kv_capacity_tokens
    assert slow.preemptions >= 1
    assert fingerprint(slow) == fingerprint(fast)


def test_recompute_on_resume_matches():
    """The preempted sequence re-prefills its recomputed context and
    still finishes with its full token budget; its completion record
    (first token, finish, tokens, preemption count) must be identical
    across runs — the resume seam re-enters admission mid-run, so this
    pins how segments interleave with prefills."""
    slow = genai_oracle_run(_overflow_engine().run, _overflow_requests())
    fast = _overflow_engine().run(_overflow_requests())
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

    slow = genai_oracle_run(build().run, list(reqs))
    fast = _assert_engages(lambda: build().run(list(reqs)))
    assert slow.served == len(reqs)
    assert slow.preemptions > 0
    assert all(c.tokens_out == 20 for c in slow.completions)
    assert fingerprint(slow) == fingerprint(fast)


def test_join_arriving_exactly_on_a_boundary():
    """One sequence decodes alone with a free slot and an empty queue,
    so its segment is bounded by the next arrival.  A second request
    arrives exactly on the third decode boundary (the instant built
    from the same ``decode_step_seconds`` chain): the arrival sorts
    before that boundary's DECODE_STEP, so the joiner prefills right
    there.  A segment that stopped only *past* the arrival instant, or
    ignored it, would keep the joiner waiting until the first sequence
    finished."""
    eng = GenerativeEngine(scheduler=ContinuousBatcher(), max_batch=2)
    first = GenRequest(req_id=0, arrival_s=0.0, prompt_tokens=8, max_new_tokens=12)
    b = 0.0 + eng.prefill_seconds([SeqState(first)])
    ctx = first.prompt_tokens + 2  # context at boundary 1: prompt + 1 + 1
    for _ in range(3):
        b += eng.decode_step_seconds(1, 1, ctx)
        ctx += 1
    joiner = GenRequest(req_id=1, arrival_s=b, prompt_tokens=8, max_new_tokens=4)

    def build():
        return GenerativeEngine(scheduler=ContinuousBatcher(), max_batch=2)

    slow = genai_oracle_run(build().run, [first, joiner])
    fast = _assert_engages(lambda: build().run([first, joiner]))
    assert fingerprint(slow) == fingerprint(fast)
    done = {c.request.req_id: c for c in fast.completions}
    assert done[1].first_token_s == b + eng.prefill_seconds([SeqState(joiner)])
    assert done[1].finish_s < done[0].finish_s


# --------------------------------------------------------------------------
# Observed runs: tracing and profiling ride the one path.  Neither genai
# nor the fleet loops have a gate any more; every run, traced or not,
# takes the macro step (genai) or the drain (fleets).
# --------------------------------------------------------------------------

#: A rejecting (seed 0) and a preempting (seed 3) scenario per scheduler:
#: join-blocked segments run past arrivals, so the traced runs emit the
#: same spans in a different order.
OBSERVED = [(seed, sched) for seed in (0, 3) for sched in SCHEDULERS]


@pytest.mark.parametrize("seed,scheduler", OBSERVED)
def test_genai_traced_run_matches_oracle(seed, scheduler):
    """A traced run emits one ``decode-step`` span per boundary: the
    same spans as the oracle's traced run, with bit-identical per-phase
    counts and totals and the same Chrome export, and the decode-step
    total still equals ``busy_decode_s`` with ``==``."""
    scn = Scenario(seed, scheduler)
    oracle_obs = RunObserver.tracing()
    slow = genai_oracle_run(scn.engine().run, scn.stream(), obs=oracle_obs)
    obs = RunObserver.tracing()
    fast = _assert_engages(lambda: scn.engine().run(scn.stream(), obs=obs))
    assert fingerprint(fast) == fingerprint(slow)
    sp, osp = obs.spans, oracle_obs.spans
    assert sp.n_evicted == 0
    assert sorted(sp.spans) == sorted(osp.spans)
    assert sorted(sp.phases()) == sorted(osp.phases())
    for phase in osp.phases():
        assert sp.count(phase) == osp.count(phase), phase
        assert sp.total_s(phase) == osp.total_s(phase), phase
    assert sp.chrome_trace() == osp.chrome_trace()
    assert sp.total_s("decode-step") == fast.busy_decode_s
    assert sp.count("decode-step") > len(fast.completions)
    if seed == 3:
        assert sp.count("preempted") == fast.preemptions > 0
    else:
        assert sp.count("rejected") == fast.rejected_count > 0


@pytest.mark.parametrize("seed,scheduler", OBSERVED)
def test_genai_profiled_run_matches_oracle(seed, scheduler):
    """Under a profiler the collapsed boundaries are credited into the
    kernel ledgers, so the profile counts what the oracle's
    per-boundary run counts: every event, one ``DECODE_STEP`` batch per
    boundary, and the same heap and stream deliveries."""
    scn = Scenario(seed, scheduler)
    oracle_obs = RunObserver.profiling()
    slow = genai_oracle_run(scn.engine().run, scn.stream(), obs=oracle_obs)
    obs = RunObserver.profiling()
    fast = _assert_engages(lambda: scn.engine().run(scn.stream(), obs=obs))
    assert fingerprint(fast) == fingerprint(slow)
    prof, oprof = obs.profile.profile(), oracle_obs.profile.profile()
    for field in ("events", "counts", "batches", "heap_events", "stream_events"):
        assert getattr(prof, field) == getattr(oprof, field), field
    assert prof.events == fast.events_processed
    assert prof.counts["DECODE_STEP"] == prof.batches["DECODE_STEP"] > 0


def test_genai_matches_the_loop_oracle():
    """Genai rides the kernel's one event loop: every scenario of the
    seed matrix, run profiled on the event-at-a-time loop oracle
    (``tests/fleet_oracle.py``, which also answers ``peek_time`` — the
    seam ``plan_segment`` bounds its segments by), has the one loop's
    fingerprint and profile ledgers.  Each scenario also runs as a
    trickle (:data:`RATE_SCALES`)."""
    from fleet_oracle import oracle_run

    for seed, scheduler, scale in product(SEEDS, SCHEDULERS, RATE_SCALES):
        scn = Scenario(seed, scheduler)
        scn.rate_rps *= scale
        oracle_obs = RunObserver.profiling()
        slow = oracle_run(scn.engine().run, scn.stream(), obs=oracle_obs)
        obs = RunObserver.profiling()
        fast = scn.engine().run(scn.stream(), obs=obs)
        assert fingerprint(fast) == fingerprint(slow), (seed, scheduler, scale)
        prof, oprof = obs.profile.profile(), oracle_obs.profile.profile()
        for field in ("events", "counts", "batches", "heap_events", "stream_events"):
            assert getattr(prof, field) == getattr(oprof, field), field
        assert prof.handler_s.get("ARRIVAL", 0.0) == 0.0


def _serving_stream():
    from repro.serving import poisson_requests

    return poisson_requests("BERT", 50.0, 1.0, seed=3)


def _traced_stream():
    """Heavy enough to queue, batch and reject under the 0.5 s SLO."""
    from repro.serving import poisson_requests

    return poisson_requests("BERT", 600.0, 1.0, seed=5, slo_s=0.5)


def _outage():
    from repro.sim import FailureTrace

    return FailureTrace.scripted([(0, 0.3, 0.6)])


def _assert_traced_run_matches_oracle(run, fingerprint):
    """A span-traced ``run(obs=...)`` takes the drain (no fallback is
    counted), and its report and span stream equal the oracle loop's:
    every ``Span`` tuple equal, in the same order."""
    from fleet_oracle import oracle_run

    oracle_obs = RunObserver.tracing()
    slow = oracle_run(run, obs=oracle_obs)
    obs = RunObserver.tracing()
    fast = _assert_engages(lambda: run(obs=obs), sfast)
    assert fingerprint(fast) == fingerprint(slow)
    spans = [tuple(sp) for sp in obs.spans.spans]
    assert spans == [tuple(sp) for sp in oracle_obs.spans.spans]
    phases = {sp.phase for sp in obs.spans.spans}
    assert {"queued", "serve", "batch", "rejected"} <= phases, phases
    return fast


def _engine_fingerprint(rep):
    """Every request's fate in a single-engine report."""
    return _fleet_fingerprint(
        SimpleNamespace(
            node_reports=[rep],
            dropped=[],
            node_busy_s=None,
            events_processed=rep.events_processed,
            sim_end_s=rep.sim_end_s,
        )
    )


def test_engine_traced_run_takes_the_drain():
    from repro.serving import OnlineServingEngine

    eng = OnlineServingEngine()
    _assert_traced_run_matches_oracle(
        lambda **kw: eng.run(_traced_stream(), "hybrid", **kw),
        _engine_fingerprint,
    )
    _assert_engages(
        lambda: eng.run(_serving_stream(), "hybrid", record="streaming"), sfast
    )


def test_engine_fast_path_engages_under_profiler_and_on_empty_stream():
    """The engine runs on the fleet loop's drain: a profiler rides it,
    and an empty stream is a trivially exact replay."""
    from repro.serving import OnlineServingEngine

    eng = OnlineServingEngine()
    for stream, kw in [
        (_serving_stream(), dict(obs=RunObserver.profiling())),
        ([], dict()),
    ]:
        _assert_engages(lambda: eng.run(stream, "hybrid", **kw), sfast)


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


def test_cluster_traced_run_takes_the_drain():
    run = _cluster()
    rep = _assert_traced_run_matches_oracle(
        lambda **kw: run(_traced_stream(), failures=_outage(), **kw),
        _fleet_fingerprint,
    )
    assert rep.failed_count > 0
    for ctor_kw in (dict(record="streaming"), dict(router=_custom_router())):
        run = _cluster(**ctor_kw)
        _assert_engages(lambda: run(_serving_stream()), sfast)


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


def test_elastic_traced_run_takes_the_drain():
    run = _elastic()
    rep = _assert_traced_run_matches_oracle(
        lambda **kw: run(_traced_stream(), failures=_outage(), **kw),
        _fleet_fingerprint,
    )
    assert rep.failed_count > 0
    for ctor_kw, run_kw in [
        (dict(), dict(presorted=True, horizon_s=1.0)),
        (dict(record="streaming"), dict()),
        (dict(router=_custom_router()), dict()),
    ]:
        run = _elastic(**ctor_kw)
        _assert_engages(lambda: run(iter(_serving_stream()), **run_kw), sfast)


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


def test_hetero_traced_run_takes_the_drain():
    run = _hetero()
    rep = _assert_traced_run_matches_oracle(
        lambda **kw: run(_traced_stream(), failures=_outage(), **kw),
        _fleet_fingerprint,
    )
    assert rep.failed_count > 0
    for ctor_kw in (dict(record="streaming"), dict(router=_custom_router())):
        run = _hetero(**ctor_kw)
        _assert_engages(lambda: run(_serving_stream()), sfast)


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
    """A custom router replays exactly: the drain and the oracle loop
    drive it through the same calls, so their reports agree request for
    request, outages included."""
    from repro.serving import poisson_requests
    from repro.sim import FailureTrace

    from fleet_oracle import oracle_run

    build = {"cluster": _cluster, "elastic": _elastic, "hetero": _hetero}[fleet]
    stream = poisson_requests("BERT", 600.0, 2.0, seed=5, slo_s=0.5)
    router = _custom_router()
    run = build(router=router)
    slow = _fleet_fingerprint(
        oracle_run(run, stream, failures=FailureTrace.scripted([(0, 0.6, 1.1)]))
    )
    fast = _fleet_fingerprint(
        run(stream, failures=FailureTrace.scripted([(0, 0.6, 1.1)]))
    )
    assert slow == fast
    # The custom policy really spread the load.
    assert sum(1 for done, _, _ in slow["nodes"].values() if done) >= 2


# --------------------------------------------------------------------------
# Golden genai traces: fixtures captured from the token-at-a-time loop
# *before* the macro-stepped path landed.  The engine and the oracle
# must both reproduce them token-for-token — this pins the engine to
# history, not just to the current oracle (which a shared bug could
# drift).
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
@pytest.mark.parametrize("oracle", [False, True])
def test_golden_genai_trace(name, oracle):
    path = FIXTURES / f"golden_{name}.json"
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        "`PYTHONPATH=src python tests/test_genai_fast_differential.py --capture`"
    )
    scn = _golden_scenarios()[name]
    run = scn.engine().run
    rep = genai_oracle_run(run, scn.stream()) if oracle else run(scn.stream())
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
