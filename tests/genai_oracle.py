"""The token-at-a-time genai decode, kept as the oracle for the macro step.

Every ``GenerativeEngine.run`` decodes through
:func:`repro.genai.fast.plan_segment`, which collapses each run of
boundaries over which the batch cannot change into one ``DECODE_STEP``
event.  :func:`one_boundary_segment` has ``plan_segment``'s signature
but plans a single boundary every time, priced by the same
``decode_step_seconds`` memo: every boundary becomes its own kernel
event, and the engine re-runs its preemption check and join decision
between every two boundaries — the per-boundary decode loop.
:func:`oracle_run` swaps it in for one run, so the differential
harnesses compare every scenario against it.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.genai import fast as fastmod


def one_boundary_segment(engine, kernel, running, waiting, kv, now, charged):
    """``plan_segment``, cut to the segment's first boundary."""
    w = len(running)
    ctx = sum(s.request.prompt_tokens + s.emitted + 1 for s in running)
    t = now + engine.decode_step_seconds(charged, w, ctx)
    return fastmod.Segment(list(running), now, charged, [t], [t - now])


@contextmanager
def oracle_decode():
    """Route every genai run inside the block through the oracle.

    Yields the list of boundaries planned so far, so a caller can
    assert that the oracle really ran (a comparison against a planner
    that never ran would be vacuous).
    """
    calls = []

    def spy(*args):
        calls.append(args[-2])
        return one_boundary_segment(*args)

    saved = fastmod.plan_segment
    fastmod.plan_segment = spy
    try:
        yield calls
    finally:
        fastmod.plan_segment = saved


def oracle_run(run, *args, **kwargs):
    """``run(*args, **kwargs)`` on the oracle decode; asserts it decoded."""
    with oracle_decode() as calls:
        out = run(*args, **kwargs)
    assert calls, "the oracle planned no decode boundary"
    return out
