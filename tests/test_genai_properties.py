"""Property tests: the generative engine's budget and conservation laws.

Over hypothesis-drawn request streams (bursty arrivals, prompt and
output lengths), KV budgets squeezed from below the largest request's
footprint up to a few times it, slot counts and both schedulers, every
``GenerativeEngine.run`` must keep:

* the KV budget: ``kv_high_water_tokens <= kv_capacity_tokens``;
* conservation: every offered request is served or rejected at arrival,
  exactly once (``served + rejected == offered``), and a request is
  rejected only if it could never fit the budget alone;
* token accounting under preemption: every served sequence emits its
  full ``max_new_tokens``, so ``tokens_out`` is their sum, and streaming
  mode counts the same aggregates as full mode;
* inert observation: a traced and profiled run's report equals the
  untraced one's.

The budgets are tight enough that most drawn streams preempt.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.genai import ContinuousBatcher, GenerativeEngine, StaticBatcher
from repro.genai.workload import GenRequest
from repro.obs import RunObserver
from repro.serving import OnlineServingEngine


@pytest.fixture(scope="module")
def shared():
    """One latency memo for every example: pricing is pure."""
    return OnlineServingEngine()


_REQUEST = st.tuples(
    st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.2, 0.5]),  # gap to the previous arrival
    st.integers(1, 24),  # prompt tokens
    st.integers(1, 24),  # max new tokens
)


def _stream(drawn):
    t = 0.0
    reqs = []
    for i, (gap, prompt, out) in enumerate(drawn):
        t += gap
        reqs.append(GenRequest(i, t, prompt, out))
    return reqs


def _aggregates(rep):
    return (
        rep.served,
        rep.rejected_count,
        rep.tokens_out,
        rep.preemptions,
        rep.peak_waiting,
        rep.kv_high_water_tokens,
        rep.events_processed,
        rep.sim_end_s,
        rep.busy_prefill_s,
        rep.busy_decode_s,
        rep.mean_ttft_s,
        rep.mean_itl_s,
        rep.itl_samples,
    )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    drawn=st.lists(_REQUEST, min_size=1, max_size=12),
    scheduler=st.sampled_from(["continuous", "static"]),
    max_batch=st.integers(1, 6),
    squeeze=st.floats(0.8, 3.0),
)
# Four equal sequences against a budget one of them fills: preemption
# churns the batch down to a lone survivor again and again.
@example(drawn=[(0.0, 4, 20)] * 4, scheduler="continuous", max_batch=4, squeeze=1.0)
# The largest request overflows the budget and is rejected at arrival.
@example(
    drawn=[(0.0, 8, 8), (0.01, 24, 24), (0.0, 4, 12)],
    scheduler="static",
    max_batch=3,
    squeeze=0.8,
)
def test_budget_and_conservation_laws(shared, drawn, scheduler, max_batch, squeeze):
    reqs = _stream(drawn)
    capacity = max(1, int(squeeze * max(r.total_tokens for r in reqs)))

    def run(**kw):
        sched = ContinuousBatcher() if scheduler == "continuous" else StaticBatcher()
        eng = GenerativeEngine(
            scheduler=sched,
            max_batch=max_batch,
            engine=shared,
            kv_capacity_tokens=capacity,
        )
        return eng.run(list(reqs), **kw)

    full = run()
    event("preempts" if full.preemptions else "no preemption")
    event("rejects" if full.rejected_count else "no rejection")
    assert full.kv_capacity_tokens == capacity
    assert full.kv_high_water_tokens <= capacity
    assert full.served + full.rejected_count == len(reqs)
    served = [c.request for c in full.completions]
    fits = [r for r in reqs if r.total_tokens <= capacity]
    assert sorted(r.req_id for r in served) == [r.req_id for r in fits]
    assert all(c.tokens_out == c.request.max_new_tokens for c in full.completions)
    assert full.tokens_out == sum(r.max_new_tokens for r in served)
    for c in full.completions:
        assert c.finish_s >= c.first_token_s >= c.request.arrival_s

    streaming = run(record="streaming")
    assert _aggregates(streaming) == _aggregates(full)

    obs = RunObserver.full()
    observed = run(obs=obs)
    assert _aggregates(observed) == _aggregates(full)
    assert [
        (c.request.req_id, c.first_token_s, c.finish_s, c.preemptions)
        for c in observed.completions
    ] == [
        (c.request.req_id, c.first_token_s, c.finish_s, c.preemptions)
        for c in full.completions
    ]
    assert obs.spans.total_s("decode-step") == observed.busy_decode_s
    assert obs.spans.count("preempted") == observed.preemptions
    assert obs.profile.events == observed.events_processed
