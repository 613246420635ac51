"""The deterministic discrete-event kernel every serving loop runs on.

One clock, one event queue, one total order.  Two loops run on it: the
one request loop (:mod:`repro.autoscale._loop`, which the single-node
engine, the static fleet and both elastic fleets configure) and the
generative token loop (:mod:`repro.genai.engine`).  The kernel owns the
heap, the clock, and the tie-break contract their request-for-request
equivalence tests depend on, so a new scenario (e.g. failure injection)
is a new event kind plus handlers — not a new loop.

**The total order.**  Events are dequeued by ``(time, kind, entity,
seq)``:

========  ========  ====================================================
priority  kind      why it sorts here
========  ========  ====================================================
0         RECOVER   repaired capacity rejoins before anything else this
                    instant, so arrivals at the recovery instant can
                    route to it
1         ARRIVAL   arrivals drain before any other processing at the
                    same instant, so simultaneous requests share batches
                    and routing sees them in stream order
2         READY     provisioned nodes join the routing set before the
                    controller looks
3         CONTROL   the controller observes after arrivals and joins
4         FAIL      outages strike after the controller observed (it
                    reacts next tick) and before finishes, so a batch
                    completing exactly at the failure instant is lost —
                    the pessimistic reading
5         PREFILL   a prompt pass completing at an instant merges its
                    sequences (and emits their first tokens) before the
                    decode boundary at the same instant, so fresh joiners
                    are part of that boundary's batch; like FINISH it
                    sorts after FAIL — a prefill landing exactly at a
                    failure instant is lost with the node
6         DECODE    token boundaries fire after any same-instant prefill
          _STEP     merge and before FINISH bookkeeping, so the
                    completions recorded at an instant already reflect
                    every token emitted at it
7         FINISH    completions are recorded last at any instant
========  ========  ====================================================

Ties inside one ``(time, kind)`` break by ``entity`` (node id, stream
index, tick number), then by the kernel-assigned insertion sequence, so
the order is total and insertion-order independent —
``tests/test_sim.py`` permutes insertion orders to prove it.

**Epoch delivery.**  ``run`` delivers every event sharing one ``(time,
kind)`` as a single batch to that kind's handler.  That is exactly the
"drain every arrival at this instant before any dispatch" contract the
pre-kernel loops implemented by hand, and for single-entity kinds it
degenerates to one event per call.

**Bulk streams stay O(1).**  Request arrivals are known upfront and
sorted; pushing 100k of them through the heap would pay an avoidable
log-factor.  ``preload`` accepts the sorted stream and the kernel merges
it with the heap of dynamically scheduled events, preserving the one
total order at deque-head cost.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from enum import IntEnum
from typing import Any, Callable, Deque, Iterable, List, Mapping, NamedTuple

__all__ = ["EventKind", "Event", "SimClock", "DiscreteEventKernel"]


class EventKind(IntEnum):
    """Event classes in kernel priority order (lower = earlier at a tie).

    The numeric values ARE the tie-break contract at equal timestamps —
    see the module docstring's table.  New event kinds must pick a slot
    in this order deliberately; appending without thought silently
    changes simultaneous-event semantics.
    """

    RECOVER = 0
    ARRIVAL = 1
    READY = 2
    CONTROL = 3
    FAIL = 4
    PREFILL = 5
    DECODE_STEP = 6
    FINISH = 7


class Event(NamedTuple):
    """One scheduled occurrence; compares as its total-order key.

    As a ``NamedTuple`` an event *is* its heap entry: tuple comparison
    over ``(time, kind, entity, seq)`` implements the documented total
    order, and ``seq`` (kernel-assigned, globally unique) guarantees the
    comparison never reaches the possibly-uncomparable ``payload``.
    """

    #: Simulated instant the event fires, seconds.
    time: float
    #: Event class (an :class:`EventKind`; plain ints compare equal).
    kind: int
    #: Tie-break id inside one (time, kind): node id, stream index, ...
    entity: int = 0
    #: Kernel-assigned insertion sequence; callers leave the default.
    seq: int = 0
    #: Opaque handler data (request, epoch counter, ...).
    payload: Any = None


class SimClock:
    """Monotonic simulated time.

    The kernel owns one and advances it as events dequeue; handlers may
    read ``now`` but never set it — time only moves by processing events.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, t: float) -> None:
        """Move time forward to ``t``.

        Args:
            t: The next event's timestamp.

        Raises:
            RuntimeError: If ``t`` is in the past — a scheduling bug.
        """
        if t < self.now:
            raise RuntimeError(
                f"simulated time went backwards: {self.now} -> {t}"
            )
        self.now = t


_DECODE_STEP = int(EventKind.DECODE_STEP)


def _not_finite(t: float) -> ValueError:
    """The error for a NaN or infinite event time.  Callers test
    ``not -inf < t < inf``: NaN compares False both ways, so it would
    slip past every ordering check and corrupt the heap."""
    return ValueError(f"event time must be finite, got {t}")


def _out_of_order(key: tuple, prev: tuple) -> ValueError:
    """The error for a lazy-stream event whose ``(time, kind, entity)``
    key sorts before its predecessor's."""
    return ValueError(f"lazy stream events out of order: {key} after {prev}")


#: A handler receives ``(now, events)`` — every event of one kind firing
#: at one instant, in entity order.
Handler = Callable[[float, List[Event]], None]


class DiscreteEventKernel:
    """One simulation run: a heap plus a pre-sorted bulk stream.

    Usage::

        kernel = DiscreteEventKernel()
        kernel.preload(Event(r.arrival_s, EventKind.ARRIVAL, i, payload=r)
                       for i, r in enumerate(stream))
        kernel.schedule(0.5, EventKind.CONTROL)
        kernel.run({EventKind.ARRIVAL: on_arrivals, ...})

    Handlers may call :meth:`schedule` while the run is in flight (that
    is how dispatches create their finish events); scheduling into the
    past raises.  An event scheduled for the *current* instant with an
    already-passed kind priority still fires at this instant, in a later
    batch — time never moves backwards, but intra-instant priority only
    orders events that existed when the instant began.
    """

    __slots__ = (
        "clock",
        "processed",
        "_heap",
        "_stream",
        "_seq",
        "_lazy",
        "_lazy_prev",
        "_prof",
    )

    def __init__(self) -> None:
        self.clock = SimClock()
        #: Events delivered to handlers so far (the events/sec numerator).
        self.processed = 0
        self._heap: List[Event] = []
        self._stream: Deque[Event] = deque()
        self._seq = 0
        self._lazy = None
        self._lazy_prev = None
        #: The profiler of a profiled run in flight, else ``None``.
        self._prof = None

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def _stamp(self, ev: Event) -> Event:
        self._seq += 1
        return ev._replace(seq=self._seq)

    def preload(self, events: Iterable[Event]) -> None:
        """Append a time-ordered bulk stream (e.g. request arrivals).

        The stream bypasses the heap — the kernel merges it with
        dynamically scheduled events at dequeue time — so preloading n
        events costs O(n), not O(n log n).  Preloaded events keep their
        ``seq`` of 0: they are never ``<``-compared against each other
        (the stream is FIFO), and against heap events (``seq >= 1``) the
        comparison resolves at ``seq`` at the latest, so the possibly
        uncomparable payload is never reached.

        Args:
            events: Events already sorted by ``(time, kind, entity)``,
                also non-decreasing relative to any earlier preload.

        Raises:
            ValueError: If the events are out of order, or an event time
                is NaN or infinite.
        """
        stream = self._stream
        prev = stream[-1][:3] if stream else None
        inf = math.inf
        for ev in events:
            if not -inf < ev[0] < inf:
                raise _not_finite(ev[0])
            key = ev[:3]
            if prev is not None and key < prev:
                raise ValueError(
                    f"preloaded events out of order: {key} after {prev}"
                )
            prev = key
            stream.append(ev)

    def preload_stream(self, events: Iterable[Event]) -> None:
        """Attach a *lazy* time-ordered bulk stream.

        Like :meth:`preload`, but the iterable is consumed one event at a
        time as the run advances instead of being materialized into the
        stream deque upfront — the move that keeps a 10M-request run's
        memory flat: arrivals exist only between being generated and
        being served.  Ordering and finiteness are validated at pull time
        (the run raises mid-flight on a misordered source or a NaN/inf
        time, same :class:`ValueError` contract as :meth:`preload`).

        Events pulled from the lazy stream sort after any still-queued
        eager ``preload`` events; interleaving both is supported but the
        combined sequence must still be globally non-decreasing.

        Args:
            events: An iterator/generator of events sorted by
                ``(time, kind, entity)``.

        Raises:
            RuntimeError: If a lazy stream is already attached.
        """
        if self._lazy is not None:
            raise RuntimeError("a lazy event stream is already attached")
        self._lazy = iter(events)
        self._lazy_prev = self._stream[-1][:3] if self._stream else None

    def _refill(self) -> None:
        """Pull the next lazy event into the (empty) stream deque."""
        try:
            ev = next(self._lazy)
        except StopIteration:
            self._lazy = None
            return
        if not -math.inf < ev[0] < math.inf:
            raise _not_finite(ev[0])
        key = ev[:3]
        if self._lazy_prev is not None and key < self._lazy_prev:
            raise _out_of_order(key, self._lazy_prev)
        self._lazy_prev = key
        self._stream.append(ev)

    def schedule(
        self, time: float, kind: int, entity: int = 0, payload: Any = None
    ) -> Event:
        """Insert one event into the run.

        Args:
            time: Firing instant (>= the current clock).
            kind: An :class:`EventKind`.
            entity: Tie-break id within the (time, kind) batch.
            payload: Opaque data handed to the handler.

        Returns:
            The stamped event (useful in tests).

        Raises:
            ValueError: If ``time`` is before the current clock, or is
                NaN or infinite.
        """
        if not self.clock.now <= time < math.inf:
            if not time < math.inf:
                raise _not_finite(time)
            raise ValueError(
                f"cannot schedule into the past: {time} < {self.clock.now}"
            )
        ev = self._stamp(Event(time, int(kind), entity, payload=payload))
        heapq.heappush(self._heap, ev)
        return ev

    # ------------------------------------------------------------------ #
    # Macro-step seams (the fast paths' view into the queue)
    # ------------------------------------------------------------------ #

    def peek_time(self) -> Any:
        """Timestamp of the next pending event, or ``None`` when drained.

        The segment re-peek seam: a fast path advancing state in closed
        form between events asks how far it may run before the event
        world can change under it, plans a segment bounded by that
        instant, and re-peeks at the segment boundary.  Peeking refills
        one event from an attached lazy stream if the eager deque is
        empty, but consumes nothing.
        """
        if not self._stream and self._lazy is not None:
            self._refill()
        t = self._stream[0].time if self._stream else None
        if self._heap:
            ht = self._heap[0].time
            if t is None or ht < t:
                return ht
        return t

    def credit_events(self, n: int) -> None:
        """Count ``n`` decode boundaries a macro step replayed arithmetically.

        A macro-stepped decode segment collapses ``k`` boundaries into
        one scheduled ``DECODE_STEP``; crediting the other ``k - 1``
        keeps ``processed`` (and the ``events_processed`` benchmarks
        divide wall time by) at one event per boundary.  Under a
        profiled run the credit lands in the profiler's ledgers too —
        events, ``DECODE_STEP`` counts and batches (one per boundary)
        and heap deliveries — so they read as a per-boundary run's.

        Raises:
            ValueError: On a negative credit.
        """
        if n < 0:
            raise ValueError("cannot credit a negative event count")
        self.processed += n
        prof = self._prof
        if prof is not None and n:
            kind = _DECODE_STEP
            prof.events += n
            prof.counts[kind] = prof.counts.get(kind, 0) + n
            prof.batches[kind] = prof.batches.get(kind, 0) + n
            prof.heap_events += n

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #

    def run(self, handlers: Mapping[int, Handler], obs: Any = None) -> float:
        """Drain the queue, delivering per-instant batches to handlers.

        Args:
            handlers: :class:`EventKind` -> handler.  Kinds without a
                handler are dequeued and dropped (still counted in
                ``processed``).
            obs: Optional :class:`~repro.obs.RunObserver`.  When it
                carries a profiler the run executes an instrumented twin
                of the loop (per-kind counts, handler wall time, stream
                vs. heap delivery, events/s timeline); otherwise this
                original loop runs untouched — the disabled cost is this
                one branch per run, never per event.

        Returns:
            The final clock value (the last event's timestamp, or 0.0
            for an empty run).
        """
        profiler = getattr(obs, "profile", None) if obs is not None else None
        if profiler is not None:
            return self._run_profiled(handlers, profiler)
        heap, stream = self._heap, self._stream
        clock = self.clock
        heappop = heapq.heappop
        while True:
            if not stream and self._lazy is not None:
                self._refill()
            if not (heap or stream):
                break
            if stream and (not heap or stream[0] < heap[0]):
                first = stream.popleft()
            else:
                first = heappop(heap)
            t, kind = first.time, first.kind
            batch = [first]
            # Collect the rest of this (time, kind) batch.  The global
            # minimum lives at one of the two heads; if it no longer
            # matches, nothing later can.
            while True:
                if not stream and self._lazy is not None:
                    self._refill()
                if stream and (not heap or stream[0] < heap[0]):
                    nxt = stream[0]
                    if nxt.time == t and nxt.kind == kind:
                        batch.append(stream.popleft())
                        continue
                elif heap:
                    nxt = heap[0]
                    if nxt.time == t and nxt.kind == kind:
                        batch.append(heappop(heap))
                        continue
                break
            clock.advance(t)
            self.processed += len(batch)
            handler = handlers.get(kind)
            if handler is not None:
                handler(t, batch)
        return clock.now

    def _run_profiled(self, handlers: Mapping[int, Handler], prof: Any) -> float:
        """The instrumented twin of :meth:`run`.

        Same merge/batch/dispatch structure, plus ``perf_counter``
        timing around every handler call, per-kind event/batch counts,
        stream-vs-heap delivery counts, and periodic events/s timeline
        samples — all accumulated onto ``prof`` (a
        :class:`~repro.obs.profile.KernelProfiler`).  Kept as a separate
        loop so the un-profiled path carries zero per-event overhead.
        """
        from time import perf_counter

        heap, stream = self._heap, self._stream
        clock = self.clock
        heappop = heapq.heappop
        counts, batches, handler_s = prof.counts, prof.batches, prof.handler_s
        self._prof = prof
        stream_n = heap_n = 0
        run_t0 = perf_counter()
        wall_base = prof.wall_s
        while True:
            if not stream and self._lazy is not None:
                self._refill()
            if not (heap or stream):
                break
            if stream and (not heap or stream[0] < heap[0]):
                first = stream.popleft()
                stream_n += 1
            else:
                first = heappop(heap)
                heap_n += 1
            t, kind = first.time, first.kind
            batch = [first]
            while True:
                if not stream and self._lazy is not None:
                    self._refill()
                if stream and (not heap or stream[0] < heap[0]):
                    nxt = stream[0]
                    if nxt.time == t and nxt.kind == kind:
                        batch.append(stream.popleft())
                        stream_n += 1
                        continue
                elif heap:
                    nxt = heap[0]
                    if nxt.time == t and nxt.kind == kind:
                        batch.append(heappop(heap))
                        heap_n += 1
                        continue
                break
            clock.advance(t)
            n = len(batch)
            self.processed += n
            prof.events += n
            counts[kind] = counts.get(kind, 0) + n
            batches[kind] = batches.get(kind, 0) + 1
            handler = handlers.get(kind)
            if handler is not None:
                h0 = perf_counter()
                handler(t, batch)
                handler_s[kind] = handler_s.get(kind, 0.0) + (perf_counter() - h0)
            if prof.events >= prof.next_sample:
                prof.sample(t, wall_base + (perf_counter() - run_t0), prof.events)
        prof.wall_s = wall_base + (perf_counter() - run_t0)
        prof.stream_events += stream_n
        prof.heap_events += heap_n
        prof.runs += 1
        self._prof = None
        return clock.now

    def finalize(self, report: Any) -> None:
        """Copy end-of-run kernel counters onto ``report``.

        The one shared home of the ``events_processed`` plumbing every
        run loop used to hand-copy: any report object with an
        ``events_processed`` attribute (all five serving reports) gets
        this kernel's ``processed`` count.

        Finalizing is only legal once the kernel is fully drained —
        the fleet loop's drain pops the heap itself, and a bug that left
        events pending would silently under-count; idempotent, so run
        loops and their callers may both finalize.

        Args:
            report: The run's report object.

        Raises:
            RuntimeError: If events are still pending (non-empty heap,
                preloaded stream, or unexhausted lazy stream).
        """
        if self._heap or self._stream or self._lazy is not None:
            raise RuntimeError(
                "finalize() before the kernel drained: "
                f"{len(self._heap)} heap + {len(self._stream)} stream "
                "event(s) still pending"
            )
        report.events_processed = self.processed
