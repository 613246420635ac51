"""The fleet loop's event loop: arrivals replayed as struct-of-arrays epochs.

The serving hot path is ARRIVAL -> route -> dispatch -> FINISH, and
between control/failure events the arrival stream is pure request
traffic with a *known* order: sorted up front, or arriving presorted.
So the arrivals never need an ``Event`` tuple, a heap push/pop or a
handler dispatch each.  :func:`drain` walks them as struct-of-arrays
chunks (a numpy column of arrival times per chunk of whole epochs) and
hands whole equal-time *epochs* to a loop-specific callback, keeping
the binary heap only for CONTROL/READY/FAIL/RECOVER and the FINISH
events dispatches schedule.  A sorted list is validated up front and
cut into epoch-aligned chunks; a presorted iterator is pulled lazily,
:data:`STREAM_CHUNK` requests at a time, with the kernel's own
finiteness and ordering checks, so a day-long stream is never
materialized.  The kernel's documented total order —
RECOVER < ARRIVAL < READY < CONTROL < FAIL < FINISH at equal instants —
is preserved by construction: an epoch at time ``t`` runs after any
heap event earlier than ``t`` or at ``t`` with a smaller kind, and
before everything else.

Its one caller is the fleet loop (:mod:`repro.autoscale._loop`), which
runs the single-node engine and every fleet simulator on it, traced or
not, in either record mode and on sorted or presorted streams.  Each
FINISH records its batch through one
:meth:`~repro.sim.stats.MetricsRecorder.record_batch` call.

Exactness is the contract: the drain must deliver what the kernel's
event-at-a-time loop would, with every arrival queued as an ARRIVAL
event — the same epochs, heap batches and processed-event count, in the
same order.  ``tests/fleet_oracle.py`` keeps that event-at-a-time loop
as the oracle; ``tests/test_fast_differential.py``,
``tests/test_router_oracle.py`` and ``tests/test_conservation.py`` run
every fleet configuration on both and compare the reports, and
``tests/test_event_order.py`` compares the two loops' delivery order
directly under random interleavings.

Profiling note: under a :class:`~repro.obs.KernelProfiler` the drain
counts arrival epochs in the ARRIVAL event/batch ledgers but books no
handler time for them — routing happens inside the drain, not in a
per-event handler.  ``handler_share`` then honestly reports what is
left of the per-event handler churn the drain was built to remove.
"""

from __future__ import annotations

import math
from heapq import heappop
from itertools import islice
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.serving.engine import Request
from repro.sim.kernel import (
    DiscreteEventKernel,
    EventKind,
    _not_finite,
    _out_of_order,
)

__all__ = [
    "FAST_RUNS",
    "drain",
]

#: Fleet runs drained since import (every fleet run takes the drain);
#: benchmarks snapshot it around a run to show the drain engaged.
FAST_RUNS = 0

#: Requests a lazily read arrival stream is pulled by (see
#: :func:`_epoch_chunks`): large enough to amortize the per-chunk numpy
#: passes, small enough that the read-ahead adds no measurable peak RSS.
STREAM_CHUNK = 512

_ARRIVAL = int(EventKind.ARRIVAL)


def count_run() -> None:
    """Bump :data:`FAST_RUNS` (called once per fleet run)."""
    global FAST_RUNS
    FAST_RUNS += 1


# ---------------------------------------------------------------------- #
# The struct-of-arrays drain
# ---------------------------------------------------------------------- #


def _checked_times(reqs: List[Request], prev: Optional[Request], start: int) -> np.ndarray:
    """``reqs``' arrival times as a float64 column, validated as the
    kernel validates a lazy stream: the first NaN/inf time or backward
    step (against ``prev``, the stream's previous request, too) raises
    the kernel's own :class:`ValueError`.  ``start`` is ``reqs[0]``'s
    stream index, the entity of its ARRIVAL event."""
    ts = np.fromiter((r.arrival_s for r in reqs), np.float64, count=len(reqs))
    back = np.empty_like(ts)
    back[0] = -math.inf if prev is None else prev.arrival_s
    back[1:] = ts[:-1]
    bad = ~np.isfinite(ts) | (ts < back)
    if bad.any():
        i = int(np.argmax(bad))
        t = reqs[i].arrival_s
        if not -math.inf < t < math.inf:
            raise _not_finite(t)
        before = reqs[i - 1] if i else prev
        raise _out_of_order(
            (t, EventKind.ARRIVAL, start + i),
            (before.arrival_s, EventKind.ARRIVAL, start + i - 1),
        )
    return ts


def _epoch_chunks(arrivals: Iterable[Request]) -> Iterator[Tuple[List[Request], np.ndarray]]:
    """Split an arrival stream into ``(requests, times)`` chunks of whole
    epochs, validated by :func:`_checked_times`.

    A list is validated whole, up front, then cut into chunks of about
    :data:`STREAM_CHUNK` requests, each running on to the end of the
    epoch it would split, so the per-epoch index lists stay chunk-sized.
    Any other iterable is read lazily, :data:`STREAM_CHUNK` requests at
    a time: each read holds back its last epoch (it may go on in the
    next read) and carries it into the next chunk, so equal-time
    arrivals never straddle a chunk boundary.
    """
    if isinstance(arrivals, list):
        ts = _checked_times(arrivals, None, 0) if arrivals else None
        lo = 0
        while lo < len(arrivals):
            hi = lo + STREAM_CHUNK
            if hi < len(arrivals):
                hi = int(np.searchsorted(ts, ts[hi], side="right"))
            yield arrivals[lo:hi], ts[lo:hi]
            lo = hi
        return
    it = iter(arrivals)
    buf: List[Request] = []
    tbuf = np.empty(0)
    base = 0  # stream index of buf[0]
    prev: Optional[Request] = None
    while True:
        more = list(islice(it, STREAM_CHUNK))
        if more:
            tm = _checked_times(more, prev, base + len(buf))
            prev = more[-1]
            buf.extend(more)
            tbuf = np.concatenate((tbuf, tm))
        if len(more) < STREAM_CHUNK:
            if buf:
                yield buf, tbuf
            return
        cut = int(np.searchsorted(tbuf, tbuf[-1]))  # the last epoch's start
        if cut:
            yield buf[:cut], tbuf[:cut]
            buf = buf[cut:]
            tbuf = tbuf[cut:]
            base += cut


def _epochs(ta: np.ndarray) -> Tuple[List[int], List[float]]:
    """One chunk's epoch start offsets (plus its end) and epoch times."""
    bounds = [0]
    bounds.extend((np.flatnonzero(ta[1:] != ta[:-1]) + 1).tolist())
    bounds.append(len(ta))
    tl = ta.tolist()
    return bounds, [tl[b] for b in bounds[:-1]]


def drain(
    kernel: DiscreteEventKernel,
    arrivals: Iterable[Request],
    on_epoch: Callable[[float, List[Request]], bool],
    handlers: Dict[int, Callable],
    profiler=None,
) -> float:
    """Replay an arrival stream as epochs against the kernel's heap.

    The arrivals come in as struct-of-arrays chunks of whole epochs
    (:func:`_epoch_chunks`): a sorted list is cut into chunks, an
    arrival-ordered iterator is pulled lazily, a chunk at a time, and
    never materialized.  Everything else — CONTROL ticks, failures, and
    the FINISH events ``on_epoch``/handlers schedule via
    ``kernel.schedule`` — lives on the kernel's heap.  Equal-time
    arrivals form one *epoch*; ``on_epoch(t, requests)`` processes them
    (in stream order) and returns True when it scheduled a heap event,
    which forces a re-peek (the new event may precede the next epoch).
    Heap events are popped in (time, kind) batches exactly like
    :meth:`DiscreteEventKernel.run`, and an epoch at ``t`` runs after
    heap kinds below ARRIVAL at ``t`` (RECOVER) and before those above —
    the documented total order.

    The kernel's clock and processed-event ledger are advanced so
    ``kernel.finalize`` and the profiler contract hold unchanged; with
    a ``profiler``, arrival epochs land in the ARRIVAL count/batch
    ledgers but book no handler time (see the module docstring).

    Args:
        kernel: The kernel whose heap holds every non-arrival event.
            Must not contain ARRIVAL events (arrivals are the stream).
        arrivals: Requests in arrival order: a list, or any iterable,
            which is read lazily.
        on_epoch: Callback for one equal-time arrival span.
        handlers: Heap handlers by ``int(EventKind)``; unhandled kinds
            are dropped but counted, as in the slow kernel.
        profiler: Optional :class:`~repro.obs.KernelProfiler`.

    Returns:
        The kernel clock after the drain.

    Raises:
        ValueError: On a NaN/inf arrival time or an arrival earlier than
            its predecessor (the kernel's lazy-stream errors, raised
            when the chunk holding it is read), or an ARRIVAL on the
            heap.
    """
    heap = kernel._heap
    clock = kernel.clock
    chunks = _epoch_chunks(arrivals)
    more = True  # chunks may remain
    reqs: List[Request] = []
    ta = np.empty(0)
    bounds: List[int] = [0]
    etimes: List[float] = []
    ne = 0
    ei = 0
    processed = 0
    searchsorted = np.searchsorted
    get_handler = handlers.get
    prof = profiler
    if prof is not None:
        counts = prof.counts
        batches = prof.batches
        handler_s = prof.handler_s
        stream_n = heap_n = 0
        run_t0 = perf_counter()
        wall_base = prof.wall_s

    while True:
        if ei == ne and more:
            chunk = next(chunks, None)
            if chunk is None:
                more = False
            else:
                reqs, ta = chunk
                bounds, etimes = _epochs(ta)
                ne = len(etimes)
                ei = 0
        if heap:
            head = heap[0]
            ht = head[0]
            hk = head[1]
            if ei < ne and (
                etimes[ei] < ht or (etimes[ei] == ht and hk > _ARRIVAL)
            ):
                # Arrivals precede the heap head: run epochs up to it,
                # re-peeking as soon as an epoch schedules a heap event.
                j = int(
                    searchsorted(
                        ta, ht, side="right" if hk > _ARRIVAL else "left"
                    )
                )
                while ei < ne and bounds[ei] < j:
                    lo = bounds[ei]
                    hi = bounds[ei + 1]
                    t = etimes[ei]
                    ei += 1
                    scheduled = on_epoch(t, reqs[lo:hi])
                    nn = hi - lo
                    processed += nn
                    if prof is not None:
                        prof.events += nn
                        counts[_ARRIVAL] = counts.get(_ARRIVAL, 0) + nn
                        batches[_ARRIVAL] = batches.get(_ARRIVAL, 0) + 1
                        stream_n += nn
                        if prof.events >= prof.next_sample:
                            prof.sample(
                                t,
                                wall_base + (perf_counter() - run_t0),
                                prof.events,
                            )
                    if scheduled:
                        break
                continue
            if hk == _ARRIVAL:
                raise ValueError(
                    "fast drain found an ARRIVAL on the heap; arrivals "
                    "must come in through the arrival stream"
                )
            clock.advance(ht)
            batch = [heappop(heap)]
            while heap and heap[0][0] == ht and heap[0][1] == hk:
                batch.append(heappop(heap))
            handler = get_handler(hk)
            nn = len(batch)
            processed += nn
            if prof is None:
                if handler is not None:
                    handler(ht, batch)
            else:
                prof.events += nn
                counts[hk] = counts.get(hk, 0) + nn
                batches[hk] = batches.get(hk, 0) + 1
                heap_n += nn
                if handler is not None:
                    h0 = perf_counter()
                    handler(ht, batch)
                    handler_s[hk] = handler_s.get(hk, 0.0) + (
                        perf_counter() - h0
                    )
                if prof.events >= prof.next_sample:
                    prof.sample(
                        ht, wall_base + (perf_counter() - run_t0), prof.events
                    )
        elif ei < ne:
            lo = bounds[ei]
            hi = bounds[ei + 1]
            t = etimes[ei]
            ei += 1
            on_epoch(t, reqs[lo:hi])  # re-peeks next iteration regardless
            nn = hi - lo
            processed += nn
            if prof is not None:
                prof.events += nn
                counts[_ARRIVAL] = counts.get(_ARRIVAL, 0) + nn
                batches[_ARRIVAL] = batches.get(_ARRIVAL, 0) + 1
                stream_n += nn
                if prof.events >= prof.next_sample:
                    prof.sample(
                        t, wall_base + (perf_counter() - run_t0), prof.events
                    )
        else:
            break

    kernel.processed += processed
    if prof is not None:
        prof.wall_s = wall_base + (perf_counter() - run_t0)
        prof.stream_events += stream_n
        prof.heap_events += heap_n
        prof.runs += 1
    return clock.now
