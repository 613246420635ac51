"""The discrete-event kernel: total order, epochs, streams, failures.

The tie-break table test is the one place the event total order is
*asserted* (the kernel docstring is the one place it is documented):
every permutation of a set of same-time events must pop in the same
documented order, so no simulation can depend on insertion order.
"""

import random
from typing import NamedTuple

import pytest

from repro.sim import (
    BusyWindow,
    DiscreteEventKernel,
    Event,
    EventKind,
    FailureTrace,
    Outage,
    SimClock,
    nearest_rank,
)


class Arr(NamedTuple):
    """A bare arrival: all the kernel reads of a request is its time."""

    arrival_s: float
    entity: int


def drain(kernel, arrivals=()):
    """Run a kernel, returning every delivered heap event and arrival
    (as an ``ARRIVAL`` event) in delivery order."""
    seen = []
    handlers = {
        kind: (lambda now, evs: seen.extend(evs)) for kind in EventKind
    }
    kernel.run(
        handlers,
        arrivals=arrivals,
        on_epoch=lambda now, reqs: seen.extend(
            Event(now, int(EventKind.ARRIVAL), r.entity) for r in reqs
        ),
    )
    return seen


#: The documented total order at one instant: kind priority, then entity
#: id.  One row per event, listed in expected pop order.
ORDER_TABLE = [
    (EventKind.RECOVER, 0),
    (EventKind.RECOVER, 3),
    (EventKind.ARRIVAL, 0),
    (EventKind.ARRIVAL, 7),
    (EventKind.READY, 2),
    (EventKind.CONTROL, 1),
    (EventKind.FAIL, 0),
    (EventKind.FAIL, 5),
    (EventKind.PREFILL, 0),
    (EventKind.PREFILL, 2),
    (EventKind.DECODE_STEP, 0),
    (EventKind.DECODE_STEP, 6),
    (EventKind.FINISH, 0),
    (EventKind.FINISH, 1),
    (EventKind.FINISH, 4),
]


def _insertion_orders():
    """Orders to try: identity, reversed, interleaved, and a seeded
    random sample (the full 15! is too many)."""
    base = list(range(len(ORDER_TABLE)))
    orders = [base, base[::-1], base[1::2] + base[0::2]]
    rng = random.Random(1234)
    for _ in range(20):
        perm = base[:]
        rng.shuffle(perm)
        orders.append(perm)
    return orders


class TestTotalOrder:
    TABLE = ORDER_TABLE

    def test_kind_priorities_are_the_documented_table(self):
        """ARRIVAL < CONTROL < FINISH (the ISSUE contract), with RECOVER
        first, READY before CONTROL, FAIL between CONTROL and the
        completion kinds, and the generative phases (PREFILL, then
        DECODE_STEP) between FAIL and FINISH."""
        assert EventKind.RECOVER < EventKind.ARRIVAL < EventKind.READY
        assert EventKind.READY < EventKind.CONTROL < EventKind.FAIL
        assert EventKind.FAIL < EventKind.PREFILL < EventKind.DECODE_STEP
        assert EventKind.DECODE_STEP < EventKind.FINISH
        assert [k.value for k in EventKind] == [0, 1, 2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("perm", _insertion_orders())
    def test_equal_time_events_pop_in_table_order(self, perm):
        """Any insertion order of equal-time heap events pops
        identically, with the arrivals (a stream, in entity order) at
        the ARRIVAL slot."""
        kernel = DiscreteEventKernel()
        arrivals = []
        for idx in perm:
            kind, entity = self.TABLE[idx]
            if kind == EventKind.ARRIVAL:
                arrivals.append(Arr(1.0, entity))
            else:
                kernel.schedule(1.0, kind, entity)
        arrivals.sort(key=lambda a: a.entity)
        popped = [(e.kind, e.entity) for e in drain(kernel, arrivals)]
        assert popped == [(int(k), n) for k, n in self.TABLE]

    def test_time_dominates_kind_and_entity(self):
        kernel = DiscreteEventKernel()
        kernel.schedule(2.0, EventKind.RECOVER, 0)
        kernel.schedule(1.0, EventKind.FINISH, 99)
        times = [(e.time, e.kind) for e in drain(kernel)]
        assert times == [(1.0, int(EventKind.FINISH)), (2.0, int(EventKind.RECOVER))]

    def test_insertion_sequence_breaks_exact_ties(self):
        kernel = DiscreteEventKernel()
        a = kernel.schedule(1.0, EventKind.FINISH, 0, payload="first")
        b = kernel.schedule(1.0, EventKind.FINISH, 0, payload="second")
        assert a.seq < b.seq
        assert [e.payload for e in drain(kernel)] == ["first", "second"]


class TestKernel:
    def test_epoch_delivery_batches_same_time_same_kind(self):
        """One instant's arrivals form one epoch, in stream order; one
        (time, kind)'s heap events one batch, in entity order."""
        kernel = DiscreteEventKernel()
        for entity in (3, 1, 2):
            kernel.schedule(1.0, EventKind.FINISH, entity)
        batches = []
        kernel.run(
            {
                EventKind.FINISH: lambda now, evs: batches.append(
                    ("finish", [e.entity for e in evs])
                ),
            },
            arrivals=[Arr(1.0, e) for e in (1, 2, 3)],
            on_epoch=lambda now, reqs: batches.append(
                ("arrival", [r.entity for r in reqs])
            ),
        )
        assert batches == [("arrival", [1, 2, 3]), ("finish", [1, 2, 3])]

    def test_preload_merges_with_heap_in_total_order(self):
        """The arrival stream merges with the heap in the total order."""
        kernel = DiscreteEventKernel()
        kernel.schedule(0.5, EventKind.FINISH, 0)
        kernel.schedule(1.0, EventKind.FINISH, 0)  # after the t=1 arrival
        arrivals = [Arr(float(t), t) for t in range(3)]
        order = [(e.time, int(e.kind)) for e in drain(kernel, arrivals)]
        assert order == [
            (0.0, int(EventKind.ARRIVAL)),
            (0.5, int(EventKind.FINISH)),
            (1.0, int(EventKind.ARRIVAL)),
            (1.0, int(EventKind.FINISH)),
            (2.0, int(EventKind.ARRIVAL)),
        ]

    def test_preload_rejects_out_of_order_streams(self):
        kernel = DiscreteEventKernel()
        with pytest.raises(ValueError, match="out of order"):
            drain(kernel, [Arr(1.0, 0), Arr(0.5, 1)])

    def test_schedule_into_the_past_raises(self):
        kernel = DiscreteEventKernel()
        kernel.schedule(1.0, EventKind.CONTROL, 0)
        kernel.run({})  # clock now at 1.0
        with pytest.raises(ValueError, match="past"):
            kernel.schedule(0.5, EventKind.FINISH, 0)

    def test_clock_is_monotonic_and_processed_counts(self):
        kernel = DiscreteEventKernel()
        end = kernel.run(
            {},
            arrivals=[Arr(float(t), t) for t in range(5)],
            on_epoch=lambda now, reqs: None,
        )
        assert end == 4.0
        assert kernel.clock.now == 4.0
        assert kernel.processed == 5

    def test_simclock_rejects_backwards_time(self):
        clock = SimClock()
        clock.advance(2.0)
        with pytest.raises(RuntimeError, match="backwards"):
            clock.advance(1.0)

    def test_handlers_can_schedule_future_work(self):
        kernel = DiscreteEventKernel()
        seen = []

        def on_arrival(now, reqs):
            kernel.schedule(now + 1.0, EventKind.FINISH, 0)

        kernel.run(
            {EventKind.FINISH: lambda now, evs: seen.append(now)},
            arrivals=[Arr(1.0, 0)],
            on_epoch=on_arrival,
        )
        assert seen == [2.0]


class TestBusyWindow:
    def test_overhang_moves_credit_into_the_right_window(self):
        bw = BusyWindow()
        # A 3 s batch dispatched at t=1 crosses the t=2 window edge.
        assert bw.observe(3.0, 4.0, True, 2.0) == 1.0
        # Window (2, 4]: the rest of the batch, no new dispatches.
        assert bw.observe(3.0, 4.0, True, 4.0) == 2.0
        # Idle window.
        assert bw.observe(3.0, 4.0, False, 6.0) == 0.0

    def test_matches_simple_accounting_when_no_overhang(self):
        bw = BusyWindow()
        assert bw.observe(1.5, 0.0, False, 2.0) == 1.5
        assert bw.observe(2.5, 0.0, False, 4.0) == 1.0


class TestFailureTrace:
    def test_scripted_sorts_and_validates(self):
        trace = FailureTrace.scripted([(1, 5.0, 6.0), (0, 1.0, 2.0)])
        assert [o.node_id for o in trace.outages] == [0, 1]
        assert len(trace) == 2
        assert trace.outages[0].duration_s == 1.0

    def test_outage_validation(self):
        with pytest.raises(ValueError):
            Outage(0, 5.0, 5.0)
        with pytest.raises(ValueError):
            Outage(-1, 0.0, 1.0)
        with pytest.raises(ValueError, match="overlapping"):
            FailureTrace.scripted([(0, 1.0, 3.0), (0, 2.0, 4.0)])

    def test_poisson_is_seeded_and_respects_horizon(self):
        a = FailureTrace.poisson(4, mtbf_s=5.0, mttr_s=1.0, horizon_s=50.0, seed=7)
        b = FailureTrace.poisson(4, mtbf_s=5.0, mttr_s=1.0, horizon_s=50.0, seed=7)
        c = FailureTrace.poisson(4, mtbf_s=5.0, mttr_s=1.0, horizon_s=50.0, seed=8)
        assert a.outages == b.outages
        assert a.outages != c.outages
        assert len(a) > 0
        assert all(o.start_s < 50.0 for o in a.outages)

    def test_schedule_on_emits_fail_recover_pairs(self):
        kernel = DiscreteEventKernel()
        FailureTrace.scripted([(2, 1.0, 3.0)]).schedule_on(kernel)
        events = [(e.time, int(e.kind), e.entity) for e in drain(kernel)]
        assert events == [
            (1.0, int(EventKind.FAIL), 2),
            (3.0, int(EventKind.RECOVER), 2),
        ]


class TestMetricsExports:
    def test_helpers_export_from_sim_only(self):
        """The metrics helpers live in the simulation substrate; the
        serving layer no longer re-exports them."""
        import repro.serving
        import repro.sim
        from repro.serving import engine
        from repro.sim.metrics import window_latencies

        assert repro.sim.nearest_rank is nearest_rank
        assert repro.sim.window_latencies is window_latencies
        for module in (repro.serving, engine):
            for name in ("nearest_rank", "window_latencies"):
                assert name not in module.__all__
                assert not hasattr(module, name)


def _arrivals(times):
    """Requests arriving at ``times``, stream index as ``req_id``."""
    from repro.serving import Request

    return [Request(i, "BERT", t) for i, t in enumerate(times)]


class TestFastDrainTotalOrder:
    """PR 5's tie-break table, extended to the arrival stream.

    ``DiscreteEventKernel.run`` reads arrivals as equal-time epochs
    from a stream instead of the heap, so the ordering risks it adds
    are at the *seams*: equal-time heap events must land around an
    arrival epoch exactly where the documented table puts ARRIVAL, an
    event a callback schedules must pop before a later epoch, and an
    epoch must never be split however long its equal-time run.  These
    tests run the same permutation discipline as :class:`TestTotalOrder`
    with arrivals in the stream, and a differential check against the
    event-at-a-time oracle loop (``tests/fleet_oracle.py``) on seeded
    random schedules, eager and lazy.
    """

    #: The tie-break table with the ARRIVAL rows re-expressed as one
    #: batched epoch (an epoch is one delivery, not per-entity events,
    #: so the arrival entities collapse into a single marker).
    HEAP_ROWS = [
        (kind, entity)
        for kind, entity in ORDER_TABLE
        if kind != EventKind.ARRIVAL
    ]

    @staticmethod
    def _stream_run(heap_rows, arrival_ts, epoch_finish_at=None):
        """Run heap_rows + an arrival stream, returning the unified
        delivery order.  ``epoch_finish_at`` optionally maps an epoch
        time to a FINISH (time, entity) scheduled *from inside* the
        epoch — the re-peek hazard."""
        kernel = DiscreteEventKernel()
        for kind, entity in heap_rows:
            kernel.schedule(1.0, kind, entity)
        seen = []

        def on_epoch(t, reqs):
            seen.append(("epoch", t, reqs[0].req_id, reqs[-1].req_id + 1))
            if epoch_finish_at and t in epoch_finish_at:
                ft, fe = epoch_finish_at[t]
                kernel.schedule(ft, EventKind.FINISH, fe)

        handlers = {
            int(kind): (
                lambda now, evs: seen.extend(
                    ("heap", e.time, int(e.kind), e.entity) for e in evs
                )
            )
            for kind in EventKind
        }
        kernel.run(handlers, arrivals=_arrivals(arrival_ts), on_epoch=on_epoch)
        return kernel, seen

    @pytest.mark.parametrize("perm", _insertion_orders()[:12])
    def test_epoch_lands_at_the_arrival_slot(self, perm):
        """Any heap insertion order: RECOVER pops before the arrival
        epoch, everything above ARRIVAL pops after — same instant."""
        rows = [
            self.HEAP_ROWS[i % len(self.HEAP_ROWS)]
            for i in perm[: len(self.HEAP_ROWS)]
        ]
        # Dedup while keeping the permuted insertion order.
        rows = list(dict.fromkeys(rows))
        _, seen = self._stream_run(rows, [1.0, 1.0, 1.0])
        kinds = [
            int(EventKind.ARRIVAL) if s[0] == "epoch" else s[2] for s in seen
        ]
        assert kinds == sorted(kinds)
        # The epoch is one batched delivery covering all three arrivals.
        epochs = [s for s in seen if s[0] == "epoch"]
        assert epochs == [("epoch", 1.0, 0, 3)]

    def test_equal_time_arrivals_form_one_epoch_per_instant(self):
        _, seen = self._stream_run([], [0.5, 0.5, 1.25, 2.0, 2.0, 2.0])
        assert seen == [
            ("epoch", 0.5, 0, 2),
            ("epoch", 1.25, 2, 3),
            ("epoch", 2.0, 3, 6),
        ]

    def test_epoch_scheduled_finish_preempts_next_epoch(self):
        """The re-peek hazard: an epoch at t=1 schedules a FINISH at
        t=1.5, which must pop before the t=2 epoch."""
        _, seen = self._stream_run(
            [], [1.0, 2.0], epoch_finish_at={1.0: (1.5, 7)}
        )
        assert seen == [
            ("epoch", 1.0, 0, 1),
            ("heap", 1.5, int(EventKind.FINISH), 7),
            ("epoch", 2.0, 1, 2),
        ]

    def test_same_instant_finish_from_epoch_still_pops_after(self):
        """FINISH scheduled *at the epoch's own instant* pops after the
        epoch (FINISH > ARRIVAL) but before the next epoch."""
        _, seen = self._stream_run(
            [], [1.0, 1.0, 2.0], epoch_finish_at={1.0: (1.0, 3)}
        )
        assert seen == [
            ("epoch", 1.0, 0, 2),
            ("heap", 1.0, int(EventKind.FINISH), 3),
            ("epoch", 2.0, 2, 3),
        ]

    def test_heap_arrival_is_rejected(self):
        """The stream owns arrivals: scheduling one on the heap raises,
        naming the way in, and leaves the heap empty."""
        kernel = DiscreteEventKernel()
        with pytest.raises(ValueError, match=r"run\(arrivals="):
            kernel.schedule(1.0, EventKind.ARRIVAL, 0)
        assert kernel.peek_time() is None

    @staticmethod
    def _random_schedule(seed):
        """Seeded arrival times (duplicates included) and heap rows."""
        rng = random.Random(seed)
        times = sorted(
            round(rng.uniform(0.0, 4.0), 1) for _ in range(rng.randint(3, 12))
        )
        heap_rows = [
            (
                round(rng.uniform(0.0, 4.0), 1),
                rng.choice(
                    [
                        EventKind.RECOVER,
                        EventKind.CONTROL,
                        EventKind.FAIL,
                        EventKind.FINISH,
                    ]
                ),
                rng.randint(0, 3),
            )
            for _ in range(rng.randint(0, 8))
        ]
        return times, heap_rows

    @staticmethod
    def _deliveries(times, heap_rows, lazy):
        """Run ``times`` + ``heap_rows`` on a fresh kernel (arrivals fed
        as a list, or an iterator when ``lazy``); return the kernel and
        its ``(time, kind, entities, peek_time)`` delivery log."""
        kernel = DiscreteEventKernel()
        for t, kind, entity in heap_rows:
            kernel.schedule(t, kind, entity)
        got = []

        def on_epoch(t, reqs):
            got.append(
                (
                    t,
                    int(EventKind.ARRIVAL),
                    tuple(r.req_id for r in reqs),
                    kernel.peek_time(),
                )
            )

        handlers = {
            int(kind): (
                lambda now, evs: got.append(
                    (
                        now,
                        int(evs[0].kind),
                        tuple(e.entity for e in evs),
                        kernel.peek_time(),
                    )
                )
            )
            for kind in EventKind
        }
        arrivals = _arrivals(times)
        kernel.run(
            handlers,
            arrivals=iter(arrivals) if lazy else arrivals,
            on_epoch=on_epoch,
        )
        return kernel, got

    @classmethod
    def _assert_drain_matches_reference(cls, times, heap_rows, lazy):
        """The oracle loop (one ARRIVAL event per request, merged with
        the heap event by event) and the kernel's loop must deliver the
        same batches in the same order, peek the same next instant at
        every delivery, and count the same events."""
        from fleet_oracle import oracle_loop

        with oracle_loop():
            ref_kernel, ref = cls._deliveries(times, heap_rows, lazy)
        kernel, got = cls._deliveries(times, heap_rows, lazy)

        assert got == ref
        assert kernel.processed == ref_kernel.processed == len(times) + len(
            heap_rows
        )

        class _Rep:
            events_processed = 0

        rep = _Rep()
        kernel.finalize(rep)
        assert rep.events_processed == ref_kernel.processed

    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedules_match_reference_kernel(self, seed):
        """Differential: a seeded random mix of arrivals (duplicates
        included) and heap events runs in exactly the oracle's order,
        with the same processed-event count."""
        times, heap_rows = self._random_schedule(seed)
        self._assert_drain_matches_reference(times, heap_rows, lazy=False)
        self._assert_drain_matches_reference(times, heap_rows, lazy=True)

    @pytest.mark.parametrize("repeat", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_lazy_chunks_never_split_an_epoch(self, seed, repeat):
        """A lazily read stream with long equal-time runs (``repeat``
        extra copies of half its instants): each run still forms one
        epoch, however the lookahead meets it, and the delivery order
        still matches the oracle."""
        times, heap_rows = self._random_schedule(seed)
        times = sorted(times + times[: len(times) // 2] * (2 * repeat + 1))
        self._assert_drain_matches_reference(times, heap_rows, lazy=True)
        _, seen = self._deliveries(times, [], lazy=True)
        assert [s[0] for s in seen] == sorted(set(times))

    @pytest.mark.parametrize("offset", [1, 2, 4096])
    @pytest.mark.parametrize(
        "times, match",
        [
            ([0.0, 1.0, 0.5, 2.0], "out of order"),
            ([0.0, 1.0, 1.0, float("nan")], "finite"),
            ([0.0, float("inf")], "finite"),
        ],
    )
    def test_lazy_stream_errors_match_the_kernel(self, offset, times, match):
        """A misordered or non-finite lazy stream raises the oracle's
        own ``ValueError``, message for message (stream indices
        included), behind ``offset`` leading requests at time 0."""
        from fleet_oracle import oracle_loop

        times = [0.0] * offset + times
        reqs = _arrivals([0.0] * len(times))
        for r, t in zip(reqs, times):
            object.__setattr__(r, "arrival_s", t)  # bypass Request's check

        def run():
            DiscreteEventKernel().run(
                {}, arrivals=iter(reqs), on_epoch=lambda t, rs: None
            )

        with pytest.raises(ValueError, match=match) as ref_err:
            with oracle_loop():
                run()
        with pytest.raises(ValueError, match=match) as err:
            run()
        assert str(err.value) == str(ref_err.value)
