"""The event-at-a-time reference loop, kept as the oracle for the kernel.

Every fleet run (``OnlineServingEngine.run``, ``Cluster``,
``ElasticCluster``, ``HeteroElasticCluster``) and every
``GenerativeEngine.run`` takes the kernel's one event loop,
:meth:`repro.sim.kernel.DiscreteEventKernel.run`, which reads arrivals
as equal-time epochs with a one-request lookahead and never puts them
on the heap.  :func:`reference_run` has ``run``'s signature but does it
the plain way: every arrival becomes an ARRIVAL event in a stream
(queued whole from a list, or pulled one event at a time from any other
iterable), the stream is merged with the heap event by event, and each
equal-time batch of arrivals is handed to ``on_epoch``.
:func:`reference_peek_time` answers ``peek_time`` from that stream.
:func:`oracle_run` swaps both in for one run, so the differential
harnesses compare every fleet and genai configuration against it.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from contextlib import contextmanager

from repro.sim.kernel import (
    DiscreteEventKernel,
    Event,
    EventKind,
    _not_finite,
    _out_of_order,
)

#: ``id(kernel)`` -> ``[stream deque, lazy iterator or None, last key]``
#: for every reference run in flight (the kernel has ``__slots__``).
_STREAMS = {}


def _checked(ev, prev):
    """``ev``'s key, after the kernel's finiteness and order checks."""
    if not -math.inf < ev.time < math.inf:
        raise _not_finite(ev.time)
    key = ev[:3]
    if prev is not None and key < prev:
        raise _out_of_order(key, prev)
    return key


def _head(kernel):
    """The stream's next arrival event (pulled from a lazy source if
    the queue is empty), or ``None``."""
    st = _STREAMS.get(id(kernel))
    if st is None:
        return None
    stream, lazy, prev = st
    if not stream and lazy is not None:
        ev = next(lazy, None)
        if ev is None:
            st[1] = None
        else:
            st[2] = _checked(ev, prev)
            stream.append(ev)
    return stream[0] if stream else None


def reference_peek_time(kernel):
    """``peek_time``: the earlier of the heap head and the stream head."""
    head = _head(kernel)
    t = head.time if head is not None else None
    if kernel._heap:
        ht = kernel._heap[0].time
        if t is None or ht < t:
            return ht
    return t


def reference_run(kernel, handlers, arrivals=(), on_epoch=None, profiler=None):
    """``DiscreteEventKernel.run``, one ARRIVAL event per request."""
    events = (
        Event(r.arrival_s, EventKind.ARRIVAL, i, payload=r)
        for i, r in enumerate(arrivals)
    )
    if isinstance(arrivals, list):
        stream, prev = deque(), None
        for ev in events:
            prev = _checked(ev, prev)
            stream.append(ev)
        _STREAMS[id(kernel)] = [stream, None, prev]
    else:
        _STREAMS[id(kernel)] = [deque(), iter(events), None]
    if on_epoch is not None:
        handlers = dict(handlers)
        handlers[int(EventKind.ARRIVAL)] = lambda now, evs: on_epoch(
            now, [e.payload for e in evs]
        )
    stream = _STREAMS[id(kernel)][0]
    heap = kernel._heap
    prof = profiler
    kernel._prof = prof
    try:
        while True:
            head = _head(kernel)
            if head is None and not heap:
                break
            from_stream = head is not None and (not heap or head < heap[0])
            first = stream.popleft() if from_stream else heapq.heappop(heap)
            t, kind = first.time, first.kind
            batch = [first]
            # The global minimum lives at one of the two heads; if it
            # no longer matches this (time, kind), nothing later can.
            while True:
                head = _head(kernel)
                if head is not None and (not heap or head < heap[0]):
                    if head.time == t and head.kind == kind:
                        batch.append(stream.popleft())
                        continue
                elif heap and heap[0].time == t and heap[0].kind == kind:
                    batch.append(heapq.heappop(heap))
                    continue
                break
            kernel.clock.advance(t)
            kernel.processed += len(batch)
            if prof is not None:
                prof.events += len(batch)
                prof.counts[kind] = prof.counts.get(kind, 0) + len(batch)
                prof.batches[kind] = prof.batches.get(kind, 0) + 1
                if from_stream:
                    prof.stream_events += len(batch)
                else:
                    prof.heap_events += len(batch)
            handler = handlers.get(kind)
            if handler is not None:
                handler(t, batch)
    finally:
        del _STREAMS[id(kernel)]
        kernel._prof = None
    if prof is not None:
        prof.runs += 1
    return kernel.clock.now


@contextmanager
def oracle_loop():
    """Route every kernel run inside the block through the oracle.

    Yields the list of runs so far, so a caller can assert that the
    oracle really ran (one loop == oracle would be vacuous otherwise).
    """
    calls = []

    def spy(kernel, *args, **kwargs):
        calls.append(kernel)
        return reference_run(kernel, *args, **kwargs)

    saved = DiscreteEventKernel.run, DiscreteEventKernel.peek_time
    DiscreteEventKernel.run = spy
    DiscreteEventKernel.peek_time = reference_peek_time
    try:
        yield calls
    finally:
        DiscreteEventKernel.run, DiscreteEventKernel.peek_time = saved


def oracle_run(run, *args, **kwargs):
    """``run(*args, **kwargs)`` on the oracle loop; asserts it ran once."""
    with oracle_loop() as calls:
        out = run(*args, **kwargs)
    assert len(calls) == 1, f"expected one oracle run, saw {len(calls)}"
    return out
