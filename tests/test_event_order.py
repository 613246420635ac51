"""Property test: the drain delivers events in the kernel's total order.

The fleet loop's one event loop, :func:`repro.sim.fast.drain`, takes
arrivals as a stream of equal-time epochs and everything else from the
kernel's heap.  The documented total order at equal instants is
RECOVER < ARRIVAL < READY < CONTROL < FAIL < FINISH.  The oracle
(``tests/fleet_oracle.py``) gets that order the plain way: one ARRIVAL
event per request through ``DiscreteEventKernel.run``.

Hypothesis draws arrival epochs and heap events of every kind on a
coarse time grid, so instants collide across kinds.  The handlers, and
``on_epoch``, schedule further events at ``now`` or later from a drawn
reaction table.  The arrivals come as a list or as a lazy iterator,
often longer than :data:`~repro.sim.fast.STREAM_CHUNK`, and sometimes
with a smaller chunk so equal-time runs straddle chunk reads.  Both
loops must produce the same ``(time, kind, entities)`` handler log, the
same ``on_epoch`` calls and the same ``kernel.processed``.

CI replays it under ``--hypothesis-seed`` derived from the run id (see
the ``fast-differential`` job in ``.github/workflows/ci.yml``).
"""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import Request
from repro.sim import fast as fastmod
from repro.sim.kernel import DiscreteEventKernel, EventKind

from fleet_oracle import reference_drain

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
        # (instant, arrivals there): up to ~2,400 arrivals, so streams
        # routinely run past STREAM_CHUNK (512) and span several reads.
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
        "chunk": st.sampled_from([None, 1, 7, 64]),
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


def _replay(loop, sched):
    """Run ``loop`` (the drain or the oracle) on ``sched``; return the
    unified delivery log, the ``on_epoch`` calls and ``processed``."""
    kernel = DiscreteEventKernel()
    for i, kind, entity in sched["heap"]:
        kernel.schedule(i * STEP, kind, entity)
    reactions = sched["reactions"]
    log = []
    epochs = []
    budget = [BUDGET]

    def react(now, kind):
        scheduled = False
        for delay, new_kind in reactions[kind]:
            if budget[0] == 0:
                break
            budget[0] -= 1
            kernel.schedule(now + delay * STEP, new_kind, len(log) % 4)
            scheduled = True
        return scheduled

    def on_epoch(now, reqs):
        entry = (now, ARRIVAL, tuple(r.req_id for r in reqs))
        log.append(entry)
        epochs.append(entry)
        return react(now, ARRIVAL)

    def handler(now, events):
        kind = int(events[0].kind)
        log.append((now, kind, tuple(e.entity for e in events)))
        react(now, kind)

    arrivals = _arrivals(sched["epochs"])
    loop(
        kernel,
        iter(arrivals) if sched["lazy"] else arrivals,
        on_epoch,
        {k: handler for k in HEAP_KINDS},
    )
    return log, epochs, kernel.processed


@settings(max_examples=150, deadline=None)
@given(sched=schedules)
def test_drain_matches_reference_order(sched):
    saved = fastmod.STREAM_CHUNK
    if sched["chunk"] is not None:
        fastmod.STREAM_CHUNK = sched["chunk"]
    try:
        with _watchdog():
            got = _replay(fastmod.drain, sched)
    finally:
        fastmod.STREAM_CHUNK = saved
    want = _replay(reference_drain, sched)
    assert got == want
    log, epochs, processed = got
    n_arrivals = sum(n for _, n in sched["epochs"])
    assert sum(len(ids) for _, _, ids in epochs) == n_arrivals
    assert processed == sum(len(ids) for _, _, ids in log)
