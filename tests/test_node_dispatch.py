"""`ClusterNode` keeps one FIFO deque per model: a dispatch touches only
the requests it batches, and every observable sequence (admitted batches,
rejections, failure losses, the FIFO ``queue`` view) matches the
single-list scan the node used to run, kept here as ``ListNode``."""

import math
import tracemalloc
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterNode
from repro.serving.engine import Request

MODELS = ("BERT", "DLRM", "GPT2")


class LinearEngine:
    """A stand-in latency model: per-model base cost, linear in batch."""

    max_batch = 64
    BASE = {"BERT": 0.010, "DLRM": 0.004, "GPT2": 0.020}

    def batch_latency(self, model, policy, size, spec=None):
        return self.BASE[model] * (1.0 + 0.5 * (size - 1))


def _old_slo_admit(batch, clock, service_for_size):
    """Single-pass SLO admission as the list-scan node called it."""

    def headroom(r):
        if r.slo_s is None:
            return math.inf
        return r.slo_s - (clock - r.arrival_s)

    order = sorted(batch, key=headroom)
    drop = 0
    service = 0.0
    while drop < len(order):
        service = service_for_size(len(order) - drop)
        if headroom(order[drop]) >= service:
            break
        drop += 1
    rejected = order[:drop]
    if drop == len(order):
        return [], rejected, 0.0
    if drop == 0:
        return list(batch), [], service
    dropped = {id(r) for r in rejected}
    return [r for r in batch if id(r) not in dropped], rejected, service


class ListNode:
    """The reference: one queue shared by all models, scanned from the
    front for the head model's first ``max_batch`` requests and rebuilt
    without them after every batch."""

    def __init__(self, engine, max_batch):
        self.engine, self.max_batch = engine, max_batch
        self.queue, self.in_flight = [], []
        self.rejected, self.failed = [], []
        self.busy_until = 0.0

    def try_dispatch(self, clock):
        while not self.in_flight and self.queue:
            head = self.queue[0].model
            cand = []
            for r in self.queue:
                if r.model == head:
                    cand.append(r)
                    if len(cand) == self.max_batch:
                        break
            admitted, rejected, service = _old_slo_admit(
                cand, clock, lambda b: self.engine.batch_latency(head, "cpu", b)
            )
            self.rejected += [(r, clock) for r in rejected]
            newq, dropped = [], 0
            for r in self.queue:
                if dropped < len(cand) and r.model == head:
                    dropped += 1
                else:
                    newq.append(r)
            self.queue = newq
            if admitted:
                self.in_flight = admitted
                self.busy_until = clock + service
                return self.busy_until
        return None

    def fail(self):
        lost = self.in_flight + self.queue
        self.failed += [(r, "in-flight-lost") for r in self.in_flight]
        self.failed += [(r, "queue-dropped") for r in self.queue]
        self.queue, self.in_flight = [], []
        return lost


class CountingRequest(Request):
    """A ``Request`` that counts reads of its fields, by ``req_id``."""

    __slots__ = ()
    reads: Counter = Counter()

    def __getattribute__(self, name):
        if name in Request.__slots__:
            CountingRequest.reads[object.__getattribute__(self, "req_id")] += 1
        return object.__getattribute__(self, name)


def _counting_node(head, others, max_batch=8):
    node = ClusterNode(0, LinearEngine(), "cpu", max_batch=max_batch)
    for i in range(head):
        node.enqueue(CountingRequest(i, "BERT", 0.0, 1.0))
    for i in range(others):
        node.enqueue(CountingRequest(100_000 + i, "DLRM", 0.0, 1.0))
    CountingRequest.reads.clear()
    return node


def test_dispatch_skips_other_models_queued_behind_the_batch():
    node = _counting_node(head=8, others=10_000)
    tracemalloc.start()
    try:
        assert node.try_dispatch(0.0) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.req_id for r in node.in_flight] == list(range(8))
    touched = set(CountingRequest.reads)
    assert touched <= set(range(8)), sorted(touched - set(range(8)))[:5]
    # Rebuilding the queue without the batch would move every waiting
    # request: one 8-byte list slot each, 80 kB here.
    assert peak < 8 * 1024, peak
    assert node.backlog() == 10_008


def test_dispatch_touches_one_batch_of_a_long_head_queue():
    node = _counting_node(head=10_000, others=0)
    node.try_dispatch(0.0)
    assert set(CountingRequest.reads) == set(range(8))
    # Reads per batched request stay a small constant, whatever the
    # queue length behind it.
    assert sum(CountingRequest.reads.values()) <= 8 * 8
    assert node.queued == 10_000 - 8 and node.backlog() == 10_000


# Arrivals dominate, so queues grow mixed and a batch often leaves part
# of the head model's run behind; failures are rare enough to let them.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["arrive"] * 6 + ["dispatch", "finish"] * 2 + ["fail"]),
        st.sampled_from(MODELS),
        st.sampled_from([None, 0.006, 0.015, 0.03, 0.2]),
        st.sampled_from([0.0, 0.0, 0.001, 0.005]),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(ops=_ops, max_batch=st.integers(1, 4))
# The head model's run outlasts one batch while an older request of
# another model waits: that model must go next.
@example(
    ops=[
        ("arrive", "BERT", None, 0.0),
        ("arrive", "DLRM", None, 0.0),
        ("arrive", "BERT", None, 0.0),
        ("dispatch", "BERT", None, 0.0),
        ("finish", "BERT", None, 0.0),
        ("dispatch", "BERT", None, 0.0),
    ],
    max_batch=1,
)
def test_per_model_deques_match_the_single_list_scan(ops, max_batch):
    eng = LinearEngine()
    node = ClusterNode(0, eng, "cpu", max_batch=max_batch)
    ref = ListNode(eng, max_batch)
    clock = 0.0
    for i, op in enumerate(ops):
        kind, model, slo, dt = op
        if kind == "arrive":
            clock += dt
            r = Request(i, model, clock, slo)
            node.enqueue(r)
            ref.queue.append(r)
        elif kind == "dispatch":
            assert node.try_dispatch(clock) == ref.try_dispatch(clock)
        elif kind == "finish" and ref.in_flight:
            clock = max(clock, ref.busy_until)
            node.finish_batch(clock)
            ref.in_flight = []
        elif kind == "fail":
            assert node.fail(clock) == ref.fail()
        assert node.queue == ref.queue
        assert node.in_flight == ref.in_flight
        assert node.backlog() == len(ref.queue) + len(ref.in_flight)
    rep = node.report
    assert [(x.request, x.rejected_at_s) for x in rep.rejected] == ref.rejected
    assert [(x.request, x.reason) for x in rep.failed] == ref.failed
