"""Property tests: chunked sketch ingestion is per-element ingestion, bit for bit.

:class:`~repro.sim.stats.StreamStats` parks observations in a bounded
pending chunk and folds them in one :meth:`P2Quantile.add_many` pass at
its next read.  The oracles below are the per-element update that pass
replaced: one Jain–Chlamtac step per observation, written the textbook
way (cell search, rank bumps, then the parabolic step with its linear
fallback for each inner marker).  Hypothesis draws streams with ties,
values equal to live markers, runs, and lengths that cross the exact
reservoir and the chunk size, and interleaves reads and window rolls.
Every marker height and rank, reservoir, count, total, min/max, every
packed window summary and every tracked-quantile answer must match the
oracle bit for bit, and ranks and counts must come back as ``int``.  Fixed streams drive each of the
fold's twelve adjustment outcomes (markers 1-3, up or down, parabolic
or linear fallback), unweighted and weighted.  One level
up, :meth:`MetricsRecorder.record_batch` (the fast path's one call per
finished batch) must leave every level of a recorder chain where
per-request ``record_completion`` calls leave it, in both record modes;
in full mode every answer the columns give, read between records too,
must be the answer a plain list of ``CompletedRequest`` records gives,
and a fleet's merged view that of the node-order concatenation.

CI replays it under ``--hypothesis-seed`` derived from the run id (see
the ``fast-differential`` job in ``.github/workflows/ci.yml``).
"""

import bisect
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterReport
from repro.serving import CompletedRequest, Request, ServingReport
from repro.sim.metrics import nearest_rank
from repro.sim.stats import (
    DEFAULT_QUANTILES,
    INGEST_CHUNK,
    MetricsRecorder,
    P2Quantile,
    StreamStats,
    WindowRing,
    _curve_percentile,
    _pack,
    _Summary,
)

# --------------------------------------------------------------------------
# The oracles: one observation per update, as before chunked ingestion.
# --------------------------------------------------------------------------


class OracleP2(P2Quantile):
    """The per-element P² update, one weighted observation per call."""

    __slots__ = ()

    def add(self, x):
        self._step(x, 1)

    def add_run(self, x, n):
        self._step(x, n)

    def add_many(self, xs):
        for x in xs:
            self._step(x, 1)

    def _step(self, x, w):
        q, pos = self._q, self._pos
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and q[k + 1] <= x:
                k += 1
        for i in range(k + 1, 5):
            pos[i] += w
        self.n += w
        n1 = self.n - 1
        for i in (1, 2, 3):
            desired = 1.0 + n1 * self._d[i]
            delta = desired - pos[i]
            if (delta >= 1.0 and pos[i + 1] - pos[i] > 1) or (
                delta <= -1.0 and pos[i - 1] - pos[i] < -1
            ):
                s = 1 if delta >= 1.0 else -1
                qn = self._parabolic(i, s)
                if not q[i - 1] < qn < q[i + 1]:
                    qn = self._linear(i, s)
                q[i] = qn
                pos[i] += s

    def _parabolic(self, i, s):
        q, pos = self._q, self._pos
        num1 = pos[i] - pos[i - 1] + s
        num2 = pos[i + 1] - pos[i] - s
        den = pos[i + 1] - pos[i - 1]
        term1 = num1 * (q[i + 1] - q[i]) / (pos[i + 1] - pos[i])
        term2 = num2 * (q[i] - q[i - 1]) / (pos[i] - pos[i - 1])
        return q[i] + s * (term1 + term2) / den

    def _linear(self, i, s):
        q, pos = self._q, self._pos
        return q[i] + s * (q[i + s] - q[i]) / (pos[i + s] - pos[i])


class OracleSketch(StreamStats):
    """A stream that lands every observation on arrival (nothing pends)."""

    __slots__ = ()

    def add(self, x):
        self.total += x
        x = float(x)
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if self._markers is None:
            bisect.insort(self._exact, x)
            self._maybe_spill()
            return
        for m in self._markers:
            m.add(x)

    def add_many(self, xs):
        for x in xs:
            self.add(x)

    def add_run(self, x, n):
        if n <= 0:
            raise ValueError("run length must be positive")
        if n == 1:
            self.add(x)
            return
        self.total += x * n
        x = float(x)
        self.count += n
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if self._markers is None:
            lo = bisect.bisect_right(self._exact, x)
            self._exact[lo:lo] = [x] * n
            self._maybe_spill()
            return
        self._markers[self._rr].add_run(x, n)
        self._rr = (self._rr + 1) % len(self._markers)

    def _maybe_spill(self):
        if len(self._exact) >= self.exact_limit:
            self._markers = [OracleP2(q, self._exact) for q in self.quantiles]
            self._exact = None


class OracleRing(WindowRing):
    """A window ring whose every window ingests through an oracle stream.

    ``live`` maps each closed window's summary (by ``id``, kept alive
    beside it) to the stream it was packed from, so the summary can be
    checked against the answers the stream itself gives.
    """

    __slots__ = ("live",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.live = {}
        self._use_oracle()

    def roll(self, t):
        stats = self._open
        super().roll(t)
        if stats.count:
            w = self._closed[-1]
            self.live[id(w)] = (w, stats)
        self._use_oracle()

    def _use_oracle(self):
        self._open = OracleSketch(self.quantiles, self.exact_limit)


# --------------------------------------------------------------------------
# Bitwise views of sketch state
# --------------------------------------------------------------------------


def _bits(x):
    return struct.pack("<d", x)


def _marker_state(m):
    """Heights as bits; ranks and count with their types, since the fold
    keeps them as floats inside the loop and must hand back ``int``s."""
    return (
        [_bits(v) for v in m._q],
        [(type(v), v) for v in m._pos],
        (type(m.n), m.n),
    )


def _answers(sk):
    return [_bits(sk.percentile(q * 100.0)) for q in DEFAULT_QUANTILES] + [
        _bits(sk.percentile(100)),
        sk.is_exact,
    ]


def _state(sk):
    """Everything a stream holds, folded (reads flush the pending chunk)."""
    sk.flush()
    exact = None if sk._exact is None else [_bits(v) for v in sk._exact]
    markers = None if sk._markers is None else [_marker_state(m) for m in sk._markers]
    return (sk.count, _bits(sk.total), _bits(sk.min), _bits(sk.max), exact, markers, sk._rr)


def _summary(summary):
    """A packed window, bitwise."""
    start_s, end_s, count, exact, fracs, curve = summary
    return (
        _bits(start_s),
        _bits(end_s),
        count,
        None if exact is None else [_bits(v) for v in exact],
        fracs,
        None if curve is None else [_bits(v) for v in curve],
    )


def _eager(sk):
    """What must stay current without a flush."""
    return (sk.count, _bits(sk.total), _bits(sk.min), _bits(sk.max))


# --------------------------------------------------------------------------
# Streams
# --------------------------------------------------------------------------

# Ties (a handful of exact repeats, adjacent floats) and arbitrary values.
VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=64),
    st.sampled_from([0.0, 0.25, 1.0, 1.0000000000000002, 2.0]),
)


def _burst(seed, k):
    """``k`` seeded lognormal values rounded to a coarse grid (many ties)."""
    rng = random.Random(seed)
    return [round(rng.lognormvariate(0.0, 0.6), 2) for _ in range(k)]


def _live_value(sk, i, j):
    """A value the sketch currently holds: a marker height once spilled,
    else a reservoir entry — the boundary cases of the cell search."""
    if sk._markers is not None:
        m = sk._markers[i % len(sk._markers)]
        return m._q[j % 5]
    if sk._exact:
        return sk._exact[(i * 5 + j) % len(sk._exact)]
    return 1.0


SKETCH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), VALUES),
        st.tuples(st.just("many"), st.lists(VALUES, max_size=30)),
        st.tuples(st.just("live"), st.integers(0, 7), st.integers(0, 4)),
        st.tuples(st.just("run"), VALUES, st.integers(1, 40)),
        st.tuples(st.just("burst"), st.integers(0, 2**16), st.integers(1, 3 * INGEST_CHUNK)),
        st.tuples(st.just("read")),
    ),
    max_size=40,
)

QUANTILE_SETS = st.sampled_from([DEFAULT_QUANTILES, (0.5,), (0.01, 0.5, 0.999)])


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    seed=st.lists(VALUES, min_size=5, max_size=40),
    p=st.sampled_from([0.01, 0.25, 0.5, 0.9, 0.99]),
    chunks=st.lists(
        st.one_of(
            st.tuples(st.just("many"), st.lists(VALUES, max_size=30)),
            st.tuples(st.just("burst"), st.integers(0, 2**16), st.integers(1, 600)),
            st.tuples(st.just("run"), VALUES, st.integers(2, 40)),
        ),
        max_size=12,
    ),
)
def test_add_many_matches_per_element(seed, p, chunks):
    """Any chunking of a stream, with runs between chunks, leaves the
    markers exactly where one-at-a-time updates leave them."""
    seed = sorted(seed)
    fast, oracle = P2Quantile(p, seed), OracleP2(p, seed)
    for i, (kind, *args) in enumerate(chunks):
        if kind == "run":
            fast.add_run(*args)
            oracle.add_run(*args)
        else:
            xs = args[0] if kind == "many" else _burst(*args)
            fast.add_many(xs)
            oracle.add_many(xs)
        assert _marker_state(fast) == _marker_state(oracle)
        # One live marker height, fed back: x equal to a marker.
        x = oracle._q[i % 5]
        fast.add(x)
        oracle.add(x)
        assert _marker_state(fast) == _marker_state(oracle)


@settings(max_examples=100, deadline=None)
@given(
    ops=SKETCH_OPS,
    exact_limit=st.sampled_from([8, 13, 64, 512]),
    quantiles=QUANTILE_SETS,
)
def test_chunked_sketch_matches_oracle(ops, exact_limit, quantiles):
    """Adds, batches, runs and reads in any order: count/total/min/max
    stay current between flushes, and every read and the final state
    match the oracle across the spill and every chunk boundary."""
    sk = StreamStats(quantiles, exact_limit)
    oracle = OracleSketch(quantiles, exact_limit)
    for op in ops:
        kind = op[0]
        if kind == "add":
            sk.add(op[1])
            oracle.add(op[1])
        elif kind == "many":
            sk.add_many(op[1])
            oracle.add_many(op[1])
        elif kind == "live":
            x = _live_value(oracle, op[1], op[2])
            sk.add(x)
            oracle.add(x)
        elif kind == "run":
            sk.add_run(op[1], op[2])
            oracle.add_run(op[1], op[2])
        elif kind == "burst":
            for x in _burst(op[1], op[2]):
                sk.add(x)
                oracle.add(x)
                assert len(sk._pending) < INGEST_CHUNK
        else:
            assert _answers(sk) == _answers(oracle)
        assert _eager(sk) == _eager(oracle)
    assert _answers(sk) == _answers(oracle)
    assert _state(sk) == _state(oracle)


RING_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), VALUES, st.sampled_from([0.0, 0.0, 0.1, 0.7, 2.5])),
        st.tuples(st.just("burst"), st.integers(0, 2**16), st.integers(1, 2 * INGEST_CHUNK)),
        st.tuples(st.just("roll"), st.sampled_from([0.0, 0.3, 1.0, 4.0])),
        st.tuples(
            st.just("read"),
            st.sampled_from([1, 50, 99, 100]),
            st.floats(0.0, 12.0),
            st.floats(0.0, 6.0),
        ),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(
    ops=RING_OPS,
    window_s=st.sampled_from([None, 1.0]),
    depth=st.sampled_from([2, 4096]),
    exact_limit=st.sampled_from([8, 128]),
)
def test_window_ring_matches_oracle(ops, window_s, depth, exact_limit):
    """Rolls (explicit and width-driven) pack closed windows with
    nothing pending, and every window query answers what per-element
    ingestion answers."""
    kw = dict(window_s=window_s, depth=depth, exact_limit=exact_limit)
    ring, oracle = WindowRing(**kw), OracleRing(**kw)
    t = 0.0
    for op in ops:
        kind = op[0]
        if kind == "add":
            t += op[2]
            ring.add(op[1], t)
            oracle.add(op[1], t)
        elif kind == "burst":
            for x in _burst(op[1], op[2]):
                t += 0.01
                ring.add(x, t)
                oracle.add(x, t)
        elif kind == "roll":
            t += op[1]
            ring.roll(t)
            oracle.roll(t)
        else:
            _, q, start, width = op
            a = ring.window_percentile(q, start, start + width)
            b = oracle.window_percentile(q, start, start + width)
            assert _bits(a) == _bits(b) or (math.isnan(a) and math.isnan(b))
            assert ring.window_count(start, start + width) == oracle.window_count(
                start, start + width
            )
        assert all(type(w) is _Summary for w in ring._closed)
    assert len(ring._closed) == len(oracle._closed)
    for w, o in zip(ring._closed, oracle._closed):
        assert _summary(w) == _summary(o)
        # Packing keeps every answer the live stream gave.
        stats = oracle.live[id(o)][1]
        if stats.is_exact:
            assert _summary(o)[3] == [_bits(v) for v in stats.exact_values]
        else:
            for q in [p * 100.0 for p in WindowRing._MERGE_GRID + DEFAULT_QUANTILES]:
                assert _bits(_curve_percentile(q, o.fracs, o.curve)) == _bits(
                    stats.percentile(q)
                )
    w, o = ring._open, oracle._open
    assert ring._start_s == oracle._start_s
    assert (w.count, _bits(w.total)) == (o.count, _bits(o.total))
    assert _answers(w) == _answers(o)
    assert _state(w) == _state(o)


@pytest.mark.parametrize("exact_limit", [8, 512])
@pytest.mark.parametrize(
    "n", [INGEST_CHUNK - 1, INGEST_CHUNK, INGEST_CHUNK + 1, 3 * INGEST_CHUNK + 5]
)
def test_chunk_boundaries(n, exact_limit):
    """Streams ending just before, on and after a chunk boundary."""
    xs = _burst(n, n)
    sk, oracle = StreamStats(exact_limit=exact_limit), OracleSketch(exact_limit=exact_limit)
    for x in xs:
        sk.add(x)
        oracle.add(x)
    assert len(sk._pending) == n % INGEST_CHUNK
    assert _answers(sk) == _answers(oracle)
    assert _state(sk) == _state(oracle)


# --------------------------------------------------------------------------
# The fold's twelve adjustment outcomes: markers 1-3, each stepping up or
# down, by the parabolic formula or its linear fallback.  ``_fold``
# writes each outcome as its own branch, so each gets a stream.
# --------------------------------------------------------------------------


class TracingOracleP2(OracleP2):
    """The oracle, logging each adjustment as (marker, direction, formula)."""

    __slots__ = ("log",)

    def __init__(self, p, seed):
        super().__init__(p, seed)
        self.log = []

    def _parabolic(self, i, s):
        self.log.append((i, "up" if s == 1 else "down", "parabolic"))
        return super()._parabolic(i, s)

    def _linear(self, i, s):
        self.log[-1] = self.log[-1][:2] + ("linear",)
        return super()._linear(i, s)


SEED_1_TO_5 = [1.0, 2.0, 3.0, 4.0, 5.0]

#: outcome -> (p, stream): a short stream on the seed 1..5 that makes it.
ADJUSTMENTS = {
    (1, "up", "parabolic"): (0.9, [1000.0, 1.0, 3.0]),
    (1, "up", "linear"): (0.9, [1000.0, 3.0, -1000.0]),
    (1, "down", "parabolic"): (0.1, [1000.0, 1.0, 3.0]),
    (1, "down", "linear"): (0.1, [1.0, 1.0, -1000.0]),
    (2, "up", "parabolic"): (0.9, [1000.0, 1.0, 3.0]),
    (2, "up", "linear"): (0.5, [-1000.0, 1.0, 3.0, 1000.0]),
    (2, "down", "parabolic"): (0.1, [1000.0, 1.0, 3.0]),
    (2, "down", "linear"): (0.1, [2.0, 2.0, 3.0]),
    (3, "up", "parabolic"): (0.9, [1000.0, 1.0, 3.0]),
    (3, "up", "linear"): (0.1, [-1000.0, 3.0, 2.0, 1.0]),
    (3, "down", "parabolic"): (0.1, [2.0, 2.0, 3.0]),
    (3, "down", "linear"): (0.1, [1000.0, 1.0, 3.0]),
}


def test_adjustment_table_lists_all_twelve_outcomes():
    assert set(ADJUSTMENTS) == {
        (i, d, f) for i in (1, 2, 3) for d in ("up", "down") for f in ("parabolic", "linear")
    }


@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize(
    "outcome", sorted(ADJUSTMENTS), ids=lambda o: "-".join(map(str, o))
)
def test_fold_matches_oracle_on_every_adjustment_outcome(outcome, w):
    """Each outcome's stream, one observation per call (``add`` for
    ``w == 1``, weighted ``add_run`` for ``w > 1``) and, unweighted, as
    one ``add_many`` chunk: bit for bit the oracle after every step,
    with ranks and count handed back as ``int``."""
    p, xs = ADJUSTMENTS[outcome]
    oracle = TracingOracleP2(p, SEED_1_TO_5)
    stepped = P2Quantile(p, SEED_1_TO_5)
    for x in xs:
        oracle.add_run(x, w)
        if w == 1:
            stepped.add(x)
        else:
            stepped.add_run(x, w)
        assert _marker_state(stepped) == _marker_state(oracle)
    assert outcome in oracle.log
    assert all(type(v) is int for v in stepped._pos) and type(stepped.n) is int
    if w == 1:
        chunked = P2Quantile(p, SEED_1_TO_5)
        chunked.add_many(xs)
        assert _marker_state(chunked) == _marker_state(oracle)


# --------------------------------------------------------------------------
# Batch recording: one record_batch per finished batch is the batch's
# record_completion calls, request by request, at every chain level; in
# full mode the columns answer as a plain list of records would.
# --------------------------------------------------------------------------

QS = (1, 25, 50, 90, 99, 99.9, 100)


def _fbits(x):
    return _bits(x) if x == x else "nan"


def _row(c):
    return (c.request.req_id, _bits(c.dispatch_s), _bits(c.finish_s), c.batch)


def _column_answers(rec, windows):
    """Every full-mode answer a recorder reads off its columns."""
    n = rec.completed_count
    return [
        [_row(c) for c in rec.completed],
        [_bits(x) for x in rec.latencies_s],
        [_fbits(rec.percentile(q)) for q in QS],
        [_fbits(rec.window_percentile(q, a, b)) for a, b in windows for q in (50, 99)],
        [
            _fbits(m)
            for m in (rec.mean_latency_s, rec.mean_queue_s, rec.mean_service_s, rec.mean_batch)
        ],
        [[_bits(x) for x in rec.new_latencies(seen)] for seen in (0, n // 2, n)],
    ]


def _list_answers(cs, windows):
    """The oracle: the same answers from a plain list of records."""
    n = len(cs)
    lats = sorted(c.latency_s for c in cs)

    def mean(xs):
        return sum(xs) / n if n else math.nan

    return [
        [_row(c) for c in cs],
        [_bits(x) for x in lats],
        [_fbits(nearest_rank(lats, q)) for q in QS],
        [
            _fbits(nearest_rank(sorted(c.latency_s for c in cs if a <= c.finish_s < b), q))
            for a, b in windows
            for q in (50, 99)
        ],
        [
            _fbits(mean([getattr(c, k) for c in cs]))
            for k in ("latency_s", "queue_s", "service_s", "batch")
        ],
        [[_bits(c.latency_s) for c in cs[seen:]] for seen in (0, n // 2, n)],
    ]


def _windows(t):
    return [(0.0, t + 1.0), (0.0, t / 2), (t / 3, t)]


def _chain(record, depth, window_s, exact_limit):
    """A node report and its ``depth - 1`` ancestor recorders (node,
    pool, run); the node is a ``ServingReport``, as in a fleet run."""
    keywords = dict(record=record, window_s=window_s, exact_limit=exact_limit)
    rec = None
    levels = []
    for _ in range(depth - 1):
        rec = MetricsRecorder(**keywords, parent=rec)
        levels.append(rec)
    levels.append(ServingReport("hybrid", **keywords, parent=rec))
    return levels[::-1]


def _recorder_state(rec, windows):
    """Everything a recorder answers, floats as bits."""

    def f(x):
        return _bits(x) if x == x else "nan"

    out = [
        rec.completed_count,
        f(rec.mean_latency_s),
        f(rec.mean_queue_s),
        f(rec.mean_service_s),
        f(rec.mean_batch),
        [f(rec.percentile(q)) for q in (1, 25, 50, 90, 99, 99.9, 100)],
        [f(rec.window_percentile(q, a, b)) for a, b in windows for q in (50, 99)],
    ]
    if rec.record == "full":
        out.append(
            [
                (c.request.req_id, _bits(c.dispatch_s), _bits(c.finish_s), c.batch)
                for c in rec.completed
            ]
        )
    else:
        out.append(_state(rec.latency))
        out.append((_bits(rec._queue_sum), _bits(rec._service_sum), _bits(rec._batch_sum)))
        ring = rec.ring
        out.append([_summary(w) for w in ring._closed])
        out.append(_summary(_pack(ring._open, ring._start_s, math.inf)))
    return out


BATCHES = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.floats(0.0, 0.5),  # dispatch gap after the last finish
            st.floats(0.0, 0.5),  # service time
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),  # waits
        ),
        st.tuples(st.just("burst"), st.integers(0, 2**16), st.integers(1, 300)),
        st.tuples(st.just("roll"), st.floats(0.0, 0.5)),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(
    ops=BATCHES,
    record=st.sampled_from(["full", "streaming"]),
    depth=st.integers(1, 3),
    window_s=st.sampled_from([None, 0.75]),
    exact_limit=st.sampled_from([8, 512]),
    n_nodes=st.integers(1, 3),
)
def test_record_batch_matches_record_completion(
    ops, record, depth, window_s, exact_limit, n_nodes
):
    """``record_batch`` at the node leaves every chain level — node, pool
    and run — bitwise where per-request ``record_completion`` leaves it,
    in both record modes.  In full mode every level answers, at each roll
    and at the end, bitwise as the list of records it was given would,
    and a fleet whose nodes took the batches in turn answers as the
    node-order concatenation of their lists."""
    batched = _chain(record, depth, window_s, exact_limit)
    per_request = _chain(record, depth, window_s, exact_limit)
    full = record == "full"
    records = []
    nodes = [ServingReport("hybrid") for _ in range(n_nodes)]
    node_records = [[] for _ in nodes]
    t = 0.0
    rid = 0
    for i, op in enumerate(ops):
        if op[0] == "roll":
            t += op[1]
            for rec in batched + per_request:
                rec.roll_window(t)
            if full:
                want = _list_answers(records, _windows(t))
                for rec in batched:
                    assert _column_answers(rec, _windows(t)) == want
            continue
        if op[0] == "batch":
            _, gap, service, waits = op
        else:
            rng = random.Random(op[1])
            gap, service = rng.random() * 0.1, rng.random() * 0.1
            waits = [round(rng.random(), 2) for _ in range(op[2])]
        dispatch = t + gap + max(waits)
        finish = dispatch + service
        reqs = [Request(rid + i, "BERT", dispatch - w) for i, w in enumerate(waits)]
        batch = [CompletedRequest(r, dispatch, finish, len(reqs)) for r in reqs]
        batched[0].record_batch(dispatch, finish, reqs)
        for c in batch:
            per_request[0].record_completion(c)
        records += batch
        k = i % n_nodes
        nodes[k].record_batch(dispatch, finish, reqs)
        node_records[k] += batch
        rid += len(reqs)
        t = finish
    windows = _windows(t)
    for got, want in zip(batched, per_request):
        assert _recorder_state(got, windows) == _recorder_state(want, windows)
    if full:
        want = _list_answers(records, windows)
        for rec in batched:
            assert _column_answers(rec, windows) == want
        want = _list_answers([c for cs in node_records for c in cs], windows)
        assert _column_answers(MetricsRecorder.merged(nodes), windows) == want
        fleet = ClusterReport("hybrid", "rr", nodes)
        assert [
            [_row(c) for c in fleet.completed],
            [_bits(x) for x in fleet.latencies_s],
            [_fbits(fleet.latency_percentile(q)) for q in QS],
            [_fbits(fleet.window_percentile(q, a, b)) for a, b in windows for q in (50, 99)],
        ] == want[:4]
