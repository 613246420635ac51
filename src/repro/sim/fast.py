"""Vectorized struct-of-arrays fast path for the serving simulators.

The profiled 100k-request hetero bench spends >90% of its wall time in
per-event Python churn: one ``Event`` tuple, one heap push/pop, and one
handler dispatch per arrival.  But between control/failure events the
arrival stream is pure request traffic with a *known* schedule — it was
preloaded — so none of that machinery is needed to replay it.  This
module collapses the hot ARRIVAL→dispatch→FINISH path:

* :func:`drain` walks the preloaded arrivals as a struct-of-arrays
  (one sorted numpy array of arrival times) and hands whole equal-time
  *epochs* to a loop-specific callback, keeping the binary heap only
  for the cold kinds (CONTROL/READY/FAIL/RECOVER and the FINISH events
  dispatches schedule).  The kernel's documented total order —
  RECOVER < ARRIVAL < READY < CONTROL < FAIL < FINISH at equal
  instants — is preserved by construction: an epoch at time ``t`` runs
  after any heap event earlier than ``t`` or at ``t`` with a smaller
  kind, and before everything else.
* :class:`FastRecorder` defers per-request ``CompletedRequest``
  materialization: the FINISH path records one ``(dispatch, finish,
  requests)`` triple per batch, and the per-request records are built
  lazily the first time a report query needs them.  Every query
  answers bit-identically to the eager recorder.
* The ``_*Fast`` router twins reproduce each builtin router's choice
  float-for-float while amortizing the per-arrival replica scan:
  within a (model, SLO) *key lifetime* — delimited by any dispatch,
  finish, or fleet-membership event — node backlogs change only
  through the twin's own picks, so a heap seeded from live backlogs
  and advanced by ``heapreplace`` tracks them exactly.

Exactness is the contract (pinned by ``tests/test_fast_differential``):
the fast path must produce the same report, request for request, as the
event-at-a-time path.  It therefore only engages on configurations it
can replay exactly.  Its one caller is the fleet loop
(:mod:`repro.autoscale._loop`), whose gate serves the single-node
engine and every fleet simulator alike and falls back to the slow path
otherwise.

Profiling note: under a :class:`~repro.obs.KernelProfiler` the fast
path counts arrival epochs in the ARRIVAL event/batch ledgers but books
no handler time for them — routing happens inside the drain, not in a
per-event handler.  ``handler_share`` then honestly reports what is
left of the per-event handler churn the fast path was built to remove.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heappop, heapreplace, heappush
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from repro.serving.engine import (
    CompletedRequest,
    Request,
)
from repro.sim.kernel import DiscreteEventKernel, EventKind
from repro.sim.stats import MetricsRecorder

__all__ = [
    "FAST_RUNS",
    "FastRecorder",
    "arrival_times",
    "drain",
    "make_chooser",
]

#: Fast-path engagements since import — the differential harness and the
#: benchmarks snapshot it around a run to assert the gate actually took
#: the vectorized path (a silent fallback would make fast==slow vacuous).
FAST_RUNS = 0

_ARRIVAL = int(EventKind.ARRIVAL)


def count_run() -> None:
    """Bump :data:`FAST_RUNS` (called once per engaged fast-path run)."""
    global FAST_RUNS
    FAST_RUNS += 1


def arrival_times(ordered: List[Request]) -> np.ndarray:
    """The struct-of-arrays column the drain walks: sorted arrival times."""
    return np.fromiter(
        (r.arrival_s for r in ordered), np.float64, count=len(ordered)
    )


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

    Only ``record="full"`` is supported — the streaming recorder is
    already flat-memory and keeps its eager per-scalar path.  Parent
    chaining is unsupported: the fast path only engages on loops that
    give full-mode nodes parentless recorders.
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
# Exact router twins
# ---------------------------------------------------------------------- #


class _ChooserBase:
    """Shared cache/invalidations of the fast router twins.

    ``replicas_for`` is the loop's live membership view; its result is
    cached per model until :meth:`invalidate_all` (fleet membership or
    node state changed).  ``_key`` marks the current backlog-tracking
    lifetime; :meth:`invalidate_backlogs` ends it (some node's queue or
    in-flight set changed outside the twin's own picks).
    """

    __slots__ = ("router", "replicas_for", "_reps", "_key")

    def __init__(self, router, replicas_for) -> None:
        self.router = router
        self.replicas_for = replicas_for
        self._reps: Dict[str, list] = {}
        self._key = None

    def invalidate_backlogs(self) -> None:
        self._key = None

    def invalidate_all(self) -> None:
        self._key = None
        self._reps.clear()

    def _replicas(self, model: str) -> list:
        reps = self._reps.get(model)
        if reps is None:
            reps = self.replicas_for(model)
            self._reps[model] = reps
        return reps


class _RoundRobinFast(_ChooserBase):
    """Twin of ``RoundRobinRouter`` — backlog-oblivious, shares the
    router's own per-model counter so fast and slow runs interleave."""

    __slots__ = ()

    def invalidate_backlogs(self) -> None:  # cycling ignores load
        pass

    def route(self, r: Request, now: float):
        reps = self._replicas(r.model)
        if not reps:
            return None
        nxt = self.router._next
        i = nxt.get(r.model, 0)
        nxt[r.model] = i + 1
        return reps[i % len(reps)]


class _LeastLoadedFast(_ChooserBase):
    """Twin of ``LeastLoadedRouter``: min (backlog, node_id) via a heap
    seeded from live backlogs and advanced by own-pick increments."""

    __slots__ = ("_heap", "_by_id")

    def route(self, r: Request, now: float):
        model = r.model
        if self._key != model:
            reps = self._replicas(model)
            if not reps:
                return None
            self._key = model
            self._by_id = {n.node_id: n for n in reps}
            heap = [(n.backlog(), n.node_id) for n in reps]
            heapify(heap)
            self._heap = heap
        heap = self._heap
        b, nid = heap[0]
        heapreplace(heap, (b + 1, nid))
        return self._by_id[nid]


class _AffinityFast(_ChooserBase):
    """Twin of ``AffinityRouter``: primary until the spill threshold,
    then join-shortest-queue.  Within a key lifetime the primary's
    backlog only grows, so spilling is monotone and the JSQ heap can be
    built lazily at the first spill."""

    __slots__ = ("_primary", "_pb", "_limit", "_heap", "_by_id")

    def route(self, r: Request, now: float):
        model = r.model
        if self._key != model:
            reps = self._replicas(model)
            if not reps:
                return None
            self._key = model
            primary = reps[0]
            self._primary = primary
            sb = self.router.spill_backlog
            self._limit = sb if sb is not None else primary.max_batch
            self._pb = primary.backlog()
            self._heap = None
        if self._pb < self._limit:
            self._pb += 1
            return self._primary
        heap = self._heap
        if heap is None:
            reps = self._replicas(model)
            self._by_id = {n.node_id: n for n in reps}
            heap = [(n.backlog(), n.node_id) for n in reps]
            heapify(heap)
            self._heap = heap
        b, nid = heap[0]
        heapreplace(heap, (b + 1, nid))
        return self._by_id[nid]


class _BackendAffinityFast(_ChooserBase):
    """Twin of ``BackendAffinityRouter`` keyed on (model, slo).

    At each arrival the slow router recomputes ``slack = slo - (clock -
    arrival_s)``; the fast path routes every request at its own arrival
    instant, so slack is exactly ``slo`` and feasibility reduces to
    ``eta + min_latency <= slo``.  Within a backlog lifetime
    ``busy_until`` and ``in_flight`` are frozen (any change
    invalidates), so a node's eta only shrinks as ``now`` grows:
    feasibility is monotone and the build instant doesn't matter.
    Nodes infeasible-but-busy go on a watch list re-evaluated per
    arrival with the *original float expression* (never an algebraic
    rearrangement); idle infeasible nodes can never become feasible
    this lifetime.

    State is kept *per key* in a dict so interleaved (model, slo)
    streams don't thrash rebuilds.  Because another key's picks can
    grow a node's queue behind a cached heap's back, heap entries only
    ever **under-estimate** the live backlog; pops lazily re-validate
    the top against ``node.backlog()`` and re-sift until the top is
    live, which selects the exact ``(cost, live backlog, node_id)``
    minimum the slow router's scan would.
    """

    __slots__ = ("_states", "_ckey", "_cst")

    def __init__(self, router, replicas_for) -> None:
        super().__init__(router, replicas_for)
        #: (model, slo) -> [fheap | None, watch, fbheap | None]
        self._states: Dict[tuple, list] = {}
        self._ckey = None  # memo of the last key looked up …
        self._cst = None  # … and its state, skipping the dict round-trip

    def invalidate_backlogs(self) -> None:
        if self._states:
            self._states.clear()
        self._cst = None

    def invalidate_all(self) -> None:
        self._states.clear()
        self._reps.clear()
        self._cst = None

    def route(self, r: Request, now: float):
        model = r.model
        slo = r.slo_s
        st = self._cst
        ck = self._ckey
        if st is None or ck[0] != model or ck[1] != slo:
            key = (model, slo)
            st = self._states.get(key)
            self._ckey = key
            self._cst = st
        if st is None:
            reps = self._replicas(model)
            if not reps:
                return None
            if slo is None:
                feas = None
                watch: list = []
            else:
                # Heap entries carry the node as a trailing payload: the
                # unique node_id settles every tie before tuple
                # comparison could ever reach the node itself.
                feas = []
                watch = []
                for n in reps:
                    ml = n.min_latency(model)
                    if n.in_flight:
                        if max(0.0, n.busy_until - now) + ml <= slo:
                            feas.append(
                                (n.spec.hourly_cost, n.backlog(), n.node_id, n)
                            )
                        else:
                            watch.append((n, ml))
                    elif 0.0 + ml <= slo:
                        feas.append(
                            (n.spec.hourly_cost, n.backlog(), n.node_id, n)
                        )
                    # else: idle and infeasible — dead for this lifetime
                heapify(feas)
            st = [feas, watch, None]
            self._states[key] = st
        fheap, watch, fbheap = st
        if slo is not None:
            if watch:
                still = []
                for n, ml in watch:
                    if max(0.0, n.busy_until - now) + ml <= slo:
                        heappush(
                            fheap,
                            (n.spec.hourly_cost, n.backlog(), n.node_id, n),
                        )
                    else:
                        still.append((n, ml))
                if len(still) != len(watch):
                    st[1] = still
            while fheap:
                c, b, nid, node = fheap[0]
                live = len(node.queue) + len(node.in_flight)
                if live != b:
                    heapreplace(fheap, (c, live, nid, node))
                    continue
                heapreplace(fheap, (c, b + 1, nid, node))
                return node
        if fbheap is None:
            reps = self._replicas(model)
            fbheap = [
                (n.backlog(), n.spec.hourly_cost, n.node_id, n) for n in reps
            ]
            heapify(fbheap)
            st[2] = fbheap
        while True:
            b, c, nid, node = fbheap[0]
            live = len(node.queue) + len(node.in_flight)
            if live != b:
                heapreplace(fbheap, (live, c, nid, node))
                continue
            heapreplace(fbheap, (b + 1, c, nid, node))
            return node


def make_chooser(router, replicas_for: Callable[[str], list]):
    """Build the exact fast twin of ``router``, or ``None`` if it has no
    twin (custom router subclasses fall back to the slow path)."""
    # Exact type checks: a subclass may override route() arbitrarily.
    from repro.cluster.router import (
        AffinityRouter,
        BackendAffinityRouter,
        LeastLoadedRouter,
        RoundRobinRouter,
    )

    t = type(router)
    if t is RoundRobinRouter:
        return _RoundRobinFast(router, replicas_for)
    if t is LeastLoadedRouter:
        return _LeastLoadedFast(router, replicas_for)
    if t is AffinityRouter:
        return _AffinityFast(router, replicas_for)
    if t is BackendAffinityRouter:
        return _BackendAffinityFast(router, replicas_for)
    return None


# ---------------------------------------------------------------------- #
# The struct-of-arrays drain
# ---------------------------------------------------------------------- #


def drain(
    kernel: DiscreteEventKernel,
    arrival_ts: np.ndarray,
    on_epoch: Callable[[float, int, int], bool],
    handlers: Dict[int, Callable],
    profiler=None,
) -> float:
    """Replay preloaded arrivals as epochs against the kernel's heap.

    The arrival stream is the struct-of-arrays column ``arrival_ts``
    (sorted, one entry per request); everything else — CONTROL ticks,
    failures, and the FINISH events ``on_epoch``/handlers schedule via
    ``kernel.schedule`` — lives on the kernel's heap.  Equal-time
    arrivals form one *epoch*; ``on_epoch(t, lo, hi)`` processes
    requests ``[lo, hi)`` and returns True when it scheduled a heap
    event, which forces a re-peek (the new event may precede the next
    epoch).  Heap events are popped in (time, kind) batches exactly
    like :meth:`DiscreteEventKernel.run`, and an epoch at ``t`` runs
    after heap kinds below ARRIVAL at ``t`` (RECOVER) and before those
    above — the documented total order.

    The kernel's clock and processed-event ledger are advanced so
    ``kernel.finalize`` and the profiler contract hold unchanged; with
    a ``profiler``, arrival epochs land in the ARRIVAL count/batch
    ledgers but book no handler time (see the module docstring).

    Args:
        kernel: The kernel whose heap holds every non-arrival event.
            Must not contain ARRIVAL events (arrivals are the array).
        arrival_ts: Sorted float64 arrival times.
        on_epoch: Callback for one equal-time arrival span.
        handlers: Heap handlers by ``int(EventKind)``; unhandled kinds
            are dropped but counted, as in the slow kernel.
        profiler: Optional :class:`~repro.obs.KernelProfiler`.

    Returns:
        The kernel clock after the drain.
    """
    heap = kernel._heap
    clock = kernel.clock
    ta = arrival_ts
    n = len(ta)
    if n:
        bounds = [0]
        bounds.extend((np.flatnonzero(ta[1:] != ta[:-1]) + 1).tolist())
        bounds.append(n)
        tl = ta.tolist()
        etimes = [tl[b] for b in bounds[:-1]]
    else:
        bounds = [0]
        etimes = []
    ne = len(etimes)
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
                    scheduled = on_epoch(t, lo, hi)
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
                    "must come in through the preloaded array"
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
            on_epoch(t, lo, hi)  # re-peeks next iteration regardless
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
