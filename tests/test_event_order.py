"""Property test: the kernel's one loop delivers events in its total order.

The kernel's one event loop, ``DiscreteEventKernel.run``, takes
arrivals as a stream of equal-time epochs (read with a one-request
lookahead) and everything else from its heap.  The documented total
order at equal instants is RECOVER < ARRIVAL < READY < CONTROL < FAIL <
FINISH.  The oracle (``tests/fleet_oracle.py``) gets that order the
plain way: one ARRIVAL event per request, merged with the heap event
by event.

Hypothesis draws arrival epochs and heap events of every kind on a
coarse time grid, so instants collide across kinds.  The handlers, and
``on_epoch``, schedule further events at ``now`` or later from a drawn
reaction table.  The arrivals come as a list or as a lazy iterator,
with equal-time runs of up to 400 requests.  Both loops must produce
the same ``(time, kind, entities)`` handler log, the same ``on_epoch``
calls, the same ``kernel.processed`` and the same ``kernel.peek_time()``
at every delivery — the seam ``repro.genai.fast.plan_segment`` bounds
its segments by.

CI replays it under ``--hypothesis-seed`` derived from the run id (see
the ``fast-differential`` job in ``.github/workflows/ci.yml``).
"""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import Request
from repro.sim.kernel import DiscreteEventKernel, EventKind

from fleet_oracle import oracle_loop

ARRIVAL = int(EventKind.ARRIVAL)
HEAP_KINDS = [
    int(k)
    for k in (
        EventKind.RECOVER,
        EventKind.READY,
        EventKind.CONTROL,
        EventKind.FAIL,
        EventKind.FINISH,
    )
]
STEP = 0.25
#: Cap on events the reactions may schedule in one run (they can chain).
BUDGET = 300

_instant = st.integers(0, 16)
_reaction = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 3]), st.sampled_from(HEAP_KINDS)),
    max_size=2,
)
schedules = st.fixed_dictionaries(
    {
        # (instant, arrivals there): up to ~2,400 arrivals.
        "epochs": st.lists(
            st.tuples(_instant, st.integers(1, 400)), max_size=6
        ),
        "heap": st.lists(
            st.tuples(_instant, st.sampled_from(HEAP_KINDS), st.integers(0, 3)),
            max_size=12,
        ),
        # What each delivered kind schedules: (delay in steps, kind).
        "reactions": st.fixed_dictionaries(
            {k: _reaction for k in [ARRIVAL] + HEAP_KINDS}
        ),
        "lazy": st.booleans(),
    }
)


@contextmanager
def _watchdog(seconds=5):
    """Fail, rather than hang, if a loop never terminates."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"event loop still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _arrivals(epochs):
    times = sorted(i * STEP for i, n in epochs for _ in range(n))
    return [Request(i, "BERT", t) for i, t in enumerate(times)]


def _replay(sched):
    """Run ``sched`` on the kernel's loop (or on the oracle, inside
    ``oracle_loop()``); return the unified delivery log, the
    ``on_epoch`` calls and ``processed``."""
    kernel = DiscreteEventKernel()
    for i, kind, entity in sched["heap"]:
        kernel.schedule(i * STEP, kind, entity)
    reactions = sched["reactions"]
    log = []
    epochs = []
    budget = [BUDGET]

    def react(now, kind):
        for delay, new_kind in reactions[kind]:
            if budget[0] == 0:
                break
            budget[0] -= 1
            kernel.schedule(now + delay * STEP, new_kind, len(log) % 4)

    def on_epoch(now, reqs):
        entry = (now, ARRIVAL, tuple(r.req_id for r in reqs), kernel.peek_time())
        log.append(entry)
        epochs.append(entry)
        react(now, ARRIVAL)

    def handler(now, events):
        kind = int(events[0].kind)
        log.append(
            (now, kind, tuple(e.entity for e in events), kernel.peek_time())
        )
        react(now, kind)

    arrivals = _arrivals(sched["epochs"])
    kernel.run(
        {k: handler for k in HEAP_KINDS},
        arrivals=iter(arrivals) if sched["lazy"] else arrivals,
        on_epoch=on_epoch,
    )
    return log, epochs, kernel.processed


@settings(max_examples=150, deadline=None)
@given(sched=schedules)
def test_drain_matches_reference_order(sched):
    with _watchdog():
        got = _replay(sched)
    with oracle_loop() as calls:
        want = _replay(sched)
    assert len(calls) == 1
    assert got == want
    log, epochs, processed = got
    n_arrivals = sum(n for _, n in sched["epochs"])
    assert sum(len(ids) for _, _, ids, _ in epochs) == n_arrivals
    assert processed == sum(len(ids) for _, _, ids, _ in log)
