"""Vectorized struct-of-arrays fast path for the serving simulators.

The profiled 100k-request hetero bench spends >90% of its wall time in
per-event Python churn: one ``Event`` tuple, one heap push/pop, and one
handler dispatch per arrival.  But between control/failure events the
arrival stream is pure request traffic with a *known* order — it is
sorted up front or arrives presorted — so none of that machinery is
needed to replay it.  This module collapses the hot
ARRIVAL→dispatch→FINISH path:

* :func:`drain` walks the arrivals as struct-of-arrays chunks (a numpy
  column of arrival times per chunk of whole epochs) and hands whole
  equal-time *epochs* to a loop-specific callback, keeping the binary
  heap only for the cold kinds (CONTROL/READY/FAIL/RECOVER and the
  FINISH events dispatches schedule).  A sorted list is one chunk; a
  presorted iterator is pulled lazily, :data:`STREAM_CHUNK` requests at
  a time, with the kernel's own finiteness and ordering checks, so a
  day-long stream is never materialized.  The kernel's documented total
  order — RECOVER < ARRIVAL < READY < CONTROL < FAIL < FINISH at equal
  instants — is preserved by construction: an epoch at time ``t`` runs
  after any heap event earlier than ``t`` or at ``t`` with a smaller
  kind, and before everything else.
* The FINISH path records one ``(dispatch, finish, requests)`` triple
  per batch through
  :meth:`~repro.sim.stats.MetricsRecorder.record_batch`.  In streaming
  mode that feeds every level of the recorder chain its batch's
  latencies in request order — the sequence per-request recording
  would feed it — so every sketch ends bitwise where the reference
  path's does.  In full mode :class:`FastRecorder` defers per-request
  ``CompletedRequest`` materialization until a report query needs it;
  every query answers bit-identically to the eager recorder.

Routing is not this module's business: both paths call the same
:mod:`repro.cluster.router` policies with the same hooks, so every
router, builtin or custom, replays exactly.

Exactness is the contract (pinned by ``tests/test_fast_differential``):
the fast path must produce the same report, request for request, as the
event-at-a-time path.  It engages on every configuration but span
tracing, in either record mode and on sorted or presorted streams.  Its
one caller is the fleet loop (:mod:`repro.autoscale._loop`), whose gate
serves the single-node engine and every fleet simulator alike and falls
back to the slow path when spans are traced.

Profiling note: under a :class:`~repro.obs.KernelProfiler` the fast
path counts arrival epochs in the ARRIVAL event/batch ledgers but books
no handler time for them — routing happens inside the drain, not in a
per-event handler.  ``handler_share`` then honestly reports what is
left of the per-event handler churn the fast path was built to remove.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop
from itertools import islice
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.serving.engine import (
    CompletedRequest,
    Request,
)
from repro.sim.kernel import (
    DiscreteEventKernel,
    EventKind,
    _not_finite,
    _out_of_order,
)
from repro.sim.stats import MetricsRecorder

__all__ = [
    "FAST_RUNS",
    "FastRecorder",
    "drain",
]

#: Fast-path engagements since import — the differential harness and the
#: benchmarks snapshot it around a run to assert the gate actually took
#: the vectorized path (a silent fallback would make fast==slow vacuous).
FAST_RUNS = 0

#: Requests a lazily read arrival stream is pulled by (see
#: :func:`_epoch_chunks`): large enough to amortize the per-chunk numpy
#: passes, small enough that the read-ahead adds no measurable peak RSS.
STREAM_CHUNK = 512

_ARRIVAL = int(EventKind.ARRIVAL)


def count_run() -> None:
    """Bump :data:`FAST_RUNS` (called once per engaged fast-path run)."""
    global FAST_RUNS
    FAST_RUNS += 1


# ---------------------------------------------------------------------- #
# Deferred batch recording
# ---------------------------------------------------------------------- #


class FastRecorder(MetricsRecorder):
    """A full-mode recorder that materializes completions lazily.

    The hot FINISH path calls :meth:`record_batch` once per dispatched
    batch instead of building one :class:`CompletedRequest` per request;
    any query that needs the per-request list flushes the pending
    batches first, producing records identical (field for field, float
    for float) to what the eager path would have stored.

    Only ``record="full"`` needs it: streaming nodes keep no
    per-request records, and take the base
    :meth:`MetricsRecorder.record_batch`.  Parent chaining is
    unsupported: full-mode nodes have parentless recorders.
    """

    __slots__ = ("_batches", "_cum")

    def __init__(self) -> None:
        super().__init__(record="full")
        self._batches: List[tuple] = []
        #: per-batch cumulative completion count (flushed included) so
        #: tail reads bisect straight to the first unseen batch.
        self._cum: List[int] = []

    def record_batch(
        self, dispatch_s: float, finish_s: float, requests: List[Request]
    ) -> None:
        """Record one finished batch (``requests`` ownership transfers)."""
        self._batches.append((dispatch_s, finish_s, requests))
        self.n_completed += len(requests)
        self._cum.append(self.n_completed)

    def _flush(self) -> None:
        if not self._batches:
            return
        append = self._completed.append
        for dispatch_s, finish_s, reqs in self._batches:
            b = len(reqs)
            for r in reqs:
                append(
                    CompletedRequest(
                        request=r,
                        dispatch_s=dispatch_s,
                        finish_s=finish_s,
                        batch=b,
                    )
                )
        self._batches.clear()
        self._cum.clear()

    # Every accessor that reads the per-request completion list flushes
    # first; counters (n_completed) are maintained eagerly.

    @property
    def completed(self):
        self._flush()
        return MetricsRecorder.completed.fget(self)

    @property
    def completed_count(self) -> int:
        return self.n_completed

    @property
    def latencies_s(self) -> List[float]:
        self._flush()
        return MetricsRecorder.latencies_s.fget(self)

    def new_latencies(self, seen: int) -> List[float]:
        """Flush-free tail slice: pending batches are read in place."""
        out = []
        flushed = self._completed
        if seen < len(flushed):
            out.extend(c.latency_s for c in flushed[seen:])
            seen = len(flushed)
        if seen >= self.n_completed:
            return out
        batches = self._batches
        cum = self._cum
        i = bisect_right(cum, seen)
        pos = cum[i] - len(batches[i][2])
        for _, finish_s, reqs in batches[i:]:
            for r in reqs[seen - pos:] if seen > pos else reqs:
                out.append(finish_s - r.arrival_s)
            pos += len(reqs)
            seen = pos
        return out

    def window_percentile(self, q: float, start_s: float, end_s: float) -> float:
        self._flush()
        return MetricsRecorder.window_percentile(self, q, start_s, end_s)

    @property
    def mean_latency_s(self) -> float:
        self._flush()
        return MetricsRecorder.mean_latency_s.fget(self)

    @property
    def mean_queue_s(self) -> float:
        self._flush()
        return MetricsRecorder.mean_queue_s.fget(self)

    @property
    def mean_service_s(self) -> float:
        self._flush()
        return MetricsRecorder.mean_service_s.fget(self)

    @property
    def mean_batch(self) -> float:
        self._flush()
        return MetricsRecorder.mean_batch.fget(self)


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

    A list is one chunk.  Any other iterable is read lazily,
    :data:`STREAM_CHUNK` requests at a time: each read holds back its
    last epoch (it may go on in the next read) and carries it into the
    next chunk, so equal-time arrivals never straddle a chunk boundary.
    """
    if isinstance(arrivals, list):
        if arrivals:
            yield arrivals, _checked_times(arrivals, None, 0)
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
    (:func:`_epoch_chunks`): a sorted list is one chunk, an
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
