"""The deterministic discrete-event kernel every serving loop runs on.

One clock, one event queue, one total order, one event loop
(:meth:`DiscreteEventKernel.run`).  Two serving loops run on it: the
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

**Epoch delivery.**  ``run`` delivers every heap event sharing one
``(time, kind)`` as a single batch to that kind's handler, and every
request arriving at one instant as a single *epoch* to ``on_epoch``.
That is exactly the "drain every arrival at this instant before any
dispatch" contract the pre-kernel loops implemented by hand, and for
single-entity kinds it degenerates to one event per call.

**Arrivals ride a stream, not the heap.**  Request arrivals come in
arrival order, sorted upfront or generated lazily; pushing 100k of them
through the heap would pay an avoidable log-factor, and materializing a
day-long stream would pay its memory.  ``run(arrivals=...)`` reads any
iterable one epoch at a time with a one-request lookahead, checking
each arrival's finiteness and order as it is read, and merges the
epochs with the heap of scheduled events in the one total order.  After
every epoch and every heap batch the loop compares the next epoch's
instant with the heap head again, so an event a callback schedules
always pops in its place.
"""

from __future__ import annotations

import heapq
import math
from enum import IntEnum
from typing import Any, Callable, Iterable, List, Mapping, NamedTuple, Optional

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
    order, and ``seq`` (stamped by :meth:`DiscreteEventKernel.schedule`
    on every heap event, globally unique) guarantees the comparison
    never reaches the possibly-uncomparable ``payload``.
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


_ARRIVAL = int(EventKind.ARRIVAL)
_DECODE_STEP = int(EventKind.DECODE_STEP)


def _not_finite(t: float) -> ValueError:
    """The error for a NaN or infinite event time.  Callers test
    ``not -inf < t < inf``: NaN compares False both ways, so it would
    slip past every ordering check and corrupt the heap."""
    return ValueError(f"event time must be finite, got {t}")


def _out_of_order(key: tuple, prev: tuple) -> ValueError:
    """The error for an arrival whose ``(time, kind, entity)`` key sorts
    before its predecessor's."""
    return ValueError(f"lazy stream events out of order: {key} after {prev}")


#: A handler receives ``(now, events)`` — every event of one kind firing
#: at one instant, in entity order.
Handler = Callable[[float, List[Event]], None]

#: ``on_epoch`` receives ``(now, requests)`` — every arrival at one
#: instant, in stream order.
EpochHandler = Callable[[float, List[Any]], None]


def _profiled(
    handlers: Mapping[int, Handler], on_epoch: Optional[EpochHandler], prof: Any
):
    """``handlers`` and ``on_epoch`` wrapped to keep ``prof``'s ledgers.

    Built once per profiled run, so :meth:`DiscreteEventKernel.run` has
    one loop body and an unprofiled run pays nothing.  Every kind gets a
    wrapper (unhandled kinds are still counted); each heap batch counts
    its events, one batch and its heap deliveries, and times only the
    handler call itself.  An epoch counts its events, one ARRIVAL batch
    and its stream deliveries but books no handler time: routing an
    epoch is the loop's own work, not a per-event handler's.  Either
    wrapper takes a timeline sample when one is due.

    Returns:
        ``(handlers, on_epoch, finish)``; ``finish()`` closes the run's
        wall-time and run ledgers.
    """
    from time import perf_counter

    counts, batches, handler_s = prof.counts, prof.batches, prof.handler_s
    wall_base = prof.wall_s
    run_t0 = perf_counter()

    def book(kind: int, n: int) -> None:
        prof.events += n
        counts[kind] = counts.get(kind, 0) + n
        batches[kind] = batches.get(kind, 0) + 1

    def sample(t: float) -> None:
        if prof.events >= prof.next_sample:
            prof.sample(t, wall_base + (perf_counter() - run_t0), prof.events)

    def timed(kind: int, handler: Optional[Handler]) -> Handler:
        def run_batch(t: float, batch: List[Event]) -> None:
            n = len(batch)
            book(kind, n)
            prof.heap_events += n
            if handler is not None:
                h0 = perf_counter()
                handler(t, batch)
                handler_s[kind] = handler_s.get(kind, 0.0) + (perf_counter() - h0)
            sample(t)

        return run_batch

    def counted_epoch(t: float, reqs: List[Any]) -> None:
        n = len(reqs)
        book(_ARRIVAL, n)
        prof.stream_events += n
        on_epoch(t, reqs)
        sample(t)

    def finish() -> None:
        prof.wall_s = wall_base + (perf_counter() - run_t0)
        prof.runs += 1

    kinds = {int(k) for k in EventKind} | {int(k) for k in handlers}
    wrapped = {k: timed(k, handlers.get(k)) for k in kinds}
    return wrapped, (counted_epoch if on_epoch is not None else None), finish


class DiscreteEventKernel:
    """One simulation run: a heap of scheduled events plus an arrival stream.

    Usage::

        kernel = DiscreteEventKernel()
        kernel.schedule(0.5, EventKind.CONTROL)
        kernel.run(
            {EventKind.CONTROL: on_control, EventKind.FINISH: on_finish},
            arrivals=sorted_requests,
            on_epoch=on_arrivals,
        )

    Handlers and ``on_epoch`` may call :meth:`schedule` while the run is
    in flight (that is how dispatches create their finish events);
    scheduling into the past raises.  An event scheduled for the
    *current* instant with an already-passed kind priority still fires
    at this instant, in a later batch — time never moves backwards, but
    intra-instant priority only orders events that existed when the
    instant began.
    """

    __slots__ = ("clock", "processed", "_heap", "_seq", "_next_t", "_prof")

    def __init__(self) -> None:
        self.clock = SimClock()
        #: Events delivered to handlers so far (the events/sec numerator).
        self.processed = 0
        self._heap: List[Event] = []
        self._seq = 0
        #: The lookahead arrival's instant during a run, else ``None``.
        self._next_t: Optional[float] = None
        #: The profiler of a profiled run in flight, else ``None``.
        self._prof = None

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(
        self, time: float, kind: int, entity: int = 0, payload: Any = None
    ) -> Event:
        """Insert one event into the run.

        Args:
            time: Firing instant (>= the current clock).
            kind: An :class:`EventKind` other than ``ARRIVAL``.
            entity: Tie-break id within the (time, kind) batch.
            payload: Opaque data handed to the handler.

        Returns:
            The stamped event (useful in tests).

        Raises:
            ValueError: If ``time`` is before the current clock, or is
                NaN or infinite, or ``kind`` is ``ARRIVAL`` (arrivals
                come in through ``run(arrivals=...)``).
        """
        if not self.clock.now <= time < math.inf:
            if not time < math.inf:
                raise _not_finite(time)
            raise ValueError(
                f"cannot schedule into the past: {time} < {self.clock.now}"
            )
        if kind == _ARRIVAL:
            raise ValueError(
                "ARRIVAL events are not scheduled: pass the requests to "
                "run(arrivals=..., on_epoch=...)"
            )
        self._seq += 1
        ev = Event(time, int(kind), entity, self._seq, payload)
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
        instant, and re-peeks at the segment boundary.  The next event
        is the earlier of the heap head and the run's lookahead arrival
        (the first request of the next epoch); peeking consumes neither.
        """
        t = self._next_t
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

    def run(
        self,
        handlers: Mapping[int, Handler],
        arrivals: Iterable[Any] = (),
        on_epoch: Optional[EpochHandler] = None,
        profiler: Any = None,
    ) -> float:
        """Drain the heap and the arrival stream in the one total order.

        Heap events are delivered in per-``(time, kind)`` batches to
        their kind's handler; arrivals in per-instant epochs to
        ``on_epoch``, after any heap event earlier than the epoch or at
        its instant with a smaller kind (RECOVER) and before everything
        else.

        Args:
            handlers: :class:`EventKind` -> handler.  Kinds without a
                handler are dequeued and dropped (still counted in
                ``processed``).
            arrivals: Requests (anything with an ``arrival_s``) in
                arrival order: a list, or any iterable, which is read
                one epoch at a time and never materialized.  A request
                counts as one event.
            on_epoch: Callback for one equal-time span of arrivals;
                required when ``arrivals`` is not empty.
            profiler: Optional :class:`~repro.obs.KernelProfiler`; its
                ledgers are kept by wrappers built once, before the loop
                (see :func:`_profiled`).

        Returns:
            The final clock value (the last event's timestamp, or 0.0
            for an empty run).

        Raises:
            ValueError: On arrivals without an ``on_epoch`` (before the
                run has any side effect), or on a NaN/inf arrival time
                or an arrival earlier than its predecessor (raised when
                the lookahead reaches it).
        """
        it = iter(arrivals)
        nxt = next(it, None)
        nt = None
        if nxt is not None:
            if on_epoch is None:
                raise ValueError("run(arrivals=...) needs an on_epoch callback")
            nt = nxt.arrival_s
            if not -math.inf < nt < math.inf:
                raise _not_finite(nt)
        finish = None
        if profiler is not None:
            handlers, on_epoch, finish = _profiled(handlers, on_epoch, profiler)
            self._prof = profiler
        heap = self._heap
        clock = self.clock
        get = handlers.get
        heappop = heapq.heappop
        inf = math.inf
        popped = arrived = 0
        self._next_t = nt
        while True:
            if heap:
                head = heap[0]
                ht = head[0]
                if nt is None or ht < nt or (ht == nt and head[1] < _ARRIVAL):
                    hk = head[1]
                    clock.advance(ht)
                    batch = [heappop(heap)]
                    while heap and heap[0][0] == ht and heap[0][1] == hk:
                        batch.append(heappop(heap))
                    popped += len(batch)
                    handler = get(hk)
                    if handler is not None:
                        handler(ht, batch)
                    continue
            elif nt is None:
                break
            # The epoch at ``nt``: read on to the first later arrival,
            # which becomes the lookahead.
            t = nt
            epoch = [nxt]
            for nxt in it:
                nt = nxt.arrival_s
                if nt != t:
                    if not t < nt < inf:
                        if not -inf < nt < inf:
                            raise _not_finite(nt)
                        i = arrived + len(epoch)
                        raise _out_of_order(
                            (nt, EventKind.ARRIVAL, i),
                            (t, EventKind.ARRIVAL, i - 1),
                        )
                    break
                epoch.append(nxt)
            else:
                nt = None
            self._next_t = nt
            clock.advance(t)
            arrived += len(epoch)
            on_epoch(t, epoch)
        self.processed += popped + arrived
        if finish is not None:
            finish()
            self._prof = None
        return clock.now

    def finalize(self, report: Any) -> None:
        """Copy end-of-run kernel counters onto ``report``.

        The one shared home of the ``events_processed`` plumbing every
        run loop used to hand-copy: any report object with an
        ``events_processed`` attribute (all five serving reports) gets
        this kernel's ``processed`` count.

        Finalizing is only legal once the kernel is fully drained — a
        bug that left events pending would silently under-count;
        idempotent, so run loops and their callers may both finalize.

        Args:
            report: The run's report object.

        Raises:
            RuntimeError: If heap events are still pending.
        """
        if self._heap:
            raise RuntimeError(
                "finalize() before the kernel drained: "
                f"{len(self._heap)} heap event(s) still pending"
            )
        report.events_processed = self.processed
