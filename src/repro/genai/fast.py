"""Macro-stepped decode: the generative token path without per-token events.

The generative engine's hot loop is the decode boundary: one kernel
event, one handler dispatch, one KV reservation, and one ITL sample per
active sequence — per emitted token.  But between *batch-composition
change points* nothing about a boundary is data-dependent:

* a join happens only at a prefill completion, and the schedulers prove
  (:meth:`~repro.genai.schedulers.ContinuousBatcher.segment_join_blocked`)
  when no join is even possible while the current batch holds;
* a leave happens at a sequence finish (its remaining-token count is
  known upfront) or a preemption (the exact overflow boundary solves
  from the KV budget: ``(capacity - used) // width`` more boundaries
  fit);
* an arrival/control/failure heap event can only matter from its
  timestamp on, and the kernel's :meth:`~repro.sim.kernel
  .DiscreteEventKernel.peek_time` seam exposes the next one.

So the batch width is constant across a whole *segment* of boundaries,
and each boundary's cost is one memoized lookup
(:meth:`~repro.genai.engine.GenerativeEngine.decode_step_seconds` keyed
on ``(charged width, actives, total context)`` — the context total
advances arithmetically by the width per boundary).  :func:`plan_segment`
walks the segment's boundary chain once, :func:`apply_segment` replays
its effects — busy seconds delta-by-delta, ITL samples as ``(gap,
count)`` runs into the PR 6 sketches, completions at the final boundary
— and the engine schedules **one** kernel event per segment, crediting
the collapsed boundaries so ``events_processed`` still counts one event
per boundary.  This is the engine's only decode path.

Exactness is the contract (pinned by
``tests/test_genai_fast_differential.py`` against the one-boundary
oracle in ``tests/genai_oracle.py``): boundary times are the same
sequential chain of float additions a token-at-a-time loop performs
(``b_j = b_{j-1} + step_j``), busy/ITL deltas are the same stored
subtractions, and both ingest identical ``(gap, count)`` runs —
bit-for-bit equality, not tolerance.  That sequential chain is also why
the walk is a loop rather than a vectorized cumulative sum: the win is
O(1) kernel events per segment, and any reassociation of the float adds
would break the equality the differential harness asserts.
"""

from __future__ import annotations

from typing import List

__all__ = ["FAST_RUNS", "Segment", "count_run", "plan_segment", "apply_segment"]

#: Generative runs since import (every run takes the macro-stepped
#: path); the differential harness and the benchmarks snapshot it
#: around a run to show the path engaged.
FAST_RUNS = 0


def count_run() -> None:
    """Record one generative run (called once per engine run)."""
    global FAST_RUNS
    FAST_RUNS += 1


class Segment:
    """One planned run of decode boundaries with constant composition.

    Scheduled as the payload of the single ``DECODE_STEP`` event at its
    last boundary; :func:`apply_segment` replays it there.
    """

    __slots__ = ("actives", "start", "charged", "times", "deltas", "steps")

    def __init__(
        self,
        actives: List,
        start: float,
        charged: int,
        times: List[float],
        deltas: List[float],
    ):
        #: The running batch, frozen in list order for the whole segment.
        self.actives = actives
        #: The instant the segment starts (the previous boundary).
        self.start = start
        #: GEMM width every boundary is charged at.
        self.charged = charged
        #: Boundary instants ``b_1 .. b_k`` — each the exact float a
        #: token-at-a-time loop would schedule that boundary at.
        self.times = times
        #: ``b_j - b_{j-1}`` as stored subtractions — the exact floats
        #: added to ``busy_decode_s`` and recorded as continuing-member
        #: ITL gaps.
        self.deltas = deltas
        #: Boundary count ``k`` (>= 1).
        self.steps = len(times)


def plan_segment(engine, kernel, running, waiting, kv, now, charged) -> Segment:
    """Walk the boundary chain until the batch composition can change.

    The segment length is the tightest of three bounds:

    * the nearest finish — ``min(max_new - emitted)`` boundaries away;
    * KV saturation — ``(capacity - used) // width`` boundaries fit
      before the growth that would preempt (>= 1 after the caller's
      preemption loop re-established ``fits(width)``);
    * the next pending kernel event, but only when the scheduler says a
      join is possible mid-segment
      (:meth:`~repro.genai.schedulers.ContinuousBatcher
      .segment_join_blocked`) — the segment stops at the first boundary
      at or past that instant, where the engine's next ``maybe_start``
      sees the new arrival.

    Args:
        engine: The :class:`~repro.genai.engine.GenerativeEngine`.
        kernel: The run's kernel (peeked, never consumed).
        running: The non-empty running batch (post-preemption).
        waiting: The admission queue at this boundary.
        kv: The run's KV budget, *before* this segment's reservations.
        now: The segment's start instant (the previous boundary).
        charged: GEMM width each boundary is charged at (>= 1).

    Returns:
        The planned :class:`Segment` (always at least one boundary).
    """
    w = len(running)
    k_cap = min(s.request.max_new_tokens - s.emitted for s in running)
    j_kv = (kv.capacity_tokens - kv.used_tokens) // w
    if j_kv < k_cap:
        k_cap = j_kv
    bound_t = None
    if not engine.scheduler.segment_join_blocked(
        waiting, running, engine.max_batch
    ):
        bound_t = kernel.peek_time()
    ctx = sum(s.request.prompt_tokens + s.emitted + 1 for s in running)
    step_cost = engine.decode_step_seconds
    times: List[float] = []
    deltas: List[float] = []
    b = now
    for _ in range(k_cap):
        nb = b + step_cost(charged, w, ctx)
        times.append(nb)
        deltas.append(nb - b)
        b = nb
        ctx += w
        if bound_t is not None and nb >= bound_t:
            break
    return Segment(list(running), now, charged, times, deltas)


def apply_segment(seg: Segment, report, complete) -> bool:
    """Replay a segment's effects at its final boundary.

    Reproduces exactly what ``k`` one-boundary segments would have
    recorded: ``busy_decode_s`` grows delta-by-delta in boundary order;
    the first boundary's ITL gaps (which may differ between continuing
    members and fresh joiners) collapse into ``(gap, count)`` runs in
    batch order, and every later boundary is one run of the whole batch;
    finishes complete at the final boundary in batch order.

    Args:
        seg: The planned segment (the event payload).
        report: The run's :class:`~repro.genai.report.GenReport`.
        complete: The engine's completion closure.

    Returns:
        Whether any sequence finished (the caller compacts ``running``).
    """
    actives = seg.actives
    times = seg.times
    deltas = seg.deltas
    for d in deltas:
        report.busy_decode_s += d
    record_run = report.record_itl_run
    b1 = times[0]
    gap = None
    n_run = 0
    for s in actives:
        g = b1 - s.last_token_s
        if g == gap:
            n_run += 1
        else:
            if n_run:
                record_run(gap, n_run)
            gap = g
            n_run = 1
    if n_run:
        record_run(gap, n_run)
    n = len(actives)
    for j in range(1, seg.steps):
        record_run(deltas[j], n)
    k = seg.steps
    end = times[-1]
    finished = False
    for s in actives:
        s.emitted += k
        s.last_token_s = end
        if s.emitted >= s.request.max_new_tokens:
            complete(s, end)
            finished = True
    return finished
