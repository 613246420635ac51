"""The statistics core under every report layer.

Every report layer (the single-node
:class:`~repro.serving.engine.ServingReport`, the fleet's
``ClusterReport``, the autoscaler's ``AutoscaleReport`` and the mixed
fleet's ``HeteroAutoscaleReport``) answers its latency queries from one
:class:`MetricsRecorder` fed by the sim kernel's ``FINISH`` path, in one
of two modes.

* ``record="full"`` (the default, and the golden-trace contract): the
  recorder keeps append-only columns, one entry per completed request:
  the request, its dispatch and finish times, its batch size and its
  latency (``finish_s - arrival_s``, computed once at ingestion).
  Percentiles are *exact* nearest-rank over the sorted latency column;
  ``CompletedRequest`` records are built only when a caller reads
  ``completed``.  The right mode for small runs, debugging and
  regression fixtures.
* ``record="streaming"`` (the scale mode): no per-request column exists
  anywhere.  Latencies stream through a :class:`QuantileSketch` (exact
  nearest-rank up to a fixed reservoir, then P²-style markers), counts
  and means are incremental, and windowed percentiles come from a
  bounded ring of per-window sub-sketches (:class:`WindowRing`) so
  ``window_percentile`` stays O(1) per completion.  Peak memory is flat
  in the number of requests — the mode that makes a 24h-diurnal,
  10M-request run fit in a laptop's RAM.

Accessing a per-request list (``completed``, ``latencies_s``, ...) on a
streaming recorder raises :class:`RecordingModeError` with a pointer at
``record="full"`` — a loud contract, not a silent empty list.

The quantile machinery is deliberately simple and fully deterministic
(no sampling randomness): the P² estimator of Jain & Chlamtac (1985),
one marker set per tracked quantile, seeded from the exact reservoir at
the moment it spills — the same incremental-aggregation move the
analytic cycle-accounting simulators in SNIPPETS.md make instead of
materializing event streams.

Ingestion is chunked but order-preserving.  A sketch updates
``count``/``min``/``max`` on every ``add`` (or once per ``add_many``
batch, the FINISH path's :meth:`MetricsRecorder.record_batch`) and
parks the values in a pending list of about :data:`INGEST_CHUNK`
values (a batch may overshoot it by less than one batch);
:meth:`QuantileSketch.flush` folds the chunk in arrival order, one
``insort`` at a time up to the spill, then one
:meth:`P2Quantile.add_many` pass per marker set over local variables.
The chunk is flushed when full, before every read (``quantile``,
``is_exact``, ``exact_values``, and so every :class:`StreamStats` and
:class:`WindowRing` query), before ``add_run``, and when a ring window
closes.  Marker state after a flush is bitwise what per-element updates
give, so no answer depends on where the chunk boundaries fell.

Observations must be finite: ``QuantileSketch.add``, ``add_many`` and
``add_run`` (and so every :class:`StreamStats`, :class:`WindowRing` and
:class:`MetricsRecorder` call, in both modes) raise ``ValueError`` on
NaN or infinity and leave the sketch or recorder as it was, since a NaN
compares false against every marker and would corrupt every later
percentile.  A batch pays one ``math.isfinite`` test of a sum, not one
per value.

The elastic fleets roll every streaming recorder's ring, node and pool
alike, at each control tick, so windows are control intervals at every
level; a closed window is packed to its count plus its exact reservoir
or quantile curve.
"""

from __future__ import annotations

import bisect
import math
from array import array
from functools import reduce
from itertools import repeat
from operator import add, sub
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.sim.metrics import nearest_rank

__all__ = [
    "DEFAULT_QUANTILES",
    "RecordingModeError",
    "P2Quantile",
    "QuantileSketch",
    "StreamStats",
    "WindowRing",
    "MetricsRecorder",
]

#: Quantiles every sketch tracks with a dedicated P² marker set (as
#: fractions).  Queries off this grid interpolate between the nearest
#: tracked quantiles (and the observed min/max at the ends).
DEFAULT_QUANTILES: Tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99)

#: Exact-reservoir size before a sketch spills to P² markers.  Up to
#: this many observations every percentile answer is exact nearest-rank.
DEFAULT_EXACT_LIMIT = 512

#: Observations a :class:`QuantileSketch` holds before folding them in
#: as one chunk (see :meth:`QuantileSketch.flush`).
INGEST_CHUNK = 256

#: Closed windows a :class:`WindowRing` retains (oldest evicted beyond
#: this) — bounds streaming-mode memory regardless of run length.
DEFAULT_RING_DEPTH = 4096


class RecordingModeError(RuntimeError):
    """Raised when per-request data is asked of a streaming recorder.

    Streaming mode keeps aggregates only; no per-request column exists.
    Re-run with ``record="full"`` to get them.
    """


class P2Quantile:
    """One P² marker set: a streaming estimate of a single quantile.

    The Jain & Chlamtac (1985) algorithm: five markers whose heights
    approximate the (0, p/2, p, (1+p)/2, 1) quantiles, nudged toward
    their desired positions with piecewise-parabolic interpolation on
    every observation.  O(1) memory and time per observation.

    Markers are seeded from an already-sorted sample (the exact
    reservoir a :class:`QuantileSketch` spills), which starts them far
    closer to their targets than the textbook first-five-observations
    initialization.
    """

    __slots__ = ("p", "n", "_d", "_q", "_pos")

    def __init__(self, p: float, sorted_seed: Sequence[float]) -> None:
        """Seed the marker set from a sorted sample.

        Args:
            p: Target quantile as a fraction in (0, 1).
            sorted_seed: Ascending observations (at least 5).

        Raises:
            ValueError: If ``p`` is out of range or the seed is short.
        """
        if not 0.0 < p < 1.0:
            raise ValueError("quantile fraction must be in (0, 1)")
        m = len(sorted_seed)
        if m < 5:
            raise ValueError("P2 needs a seed of at least 5 observations")
        self.p = p
        self.n = m
        self._d = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
        idx: List[int] = []
        for i, d in enumerate(self._d):
            j = int(round(d * (m - 1)))
            if idx:
                j = max(j, idx[-1] + 1)  # strictly increasing positions
            idx.append(min(j, m - 5 + i))
        self._q = [float(sorted_seed[j]) for j in idx]
        self._pos = [j + 1 for j in idx]  # 1-based ranks among n seen

    def add(self, x: float) -> None:
        """Fold one observation into the marker set."""
        self.add_many((x,))

    def add_many(self, xs: Iterable[float]) -> None:
        """Fold observations in order, bitwise as :meth:`add` one by one.

        The chunked-ingestion primitive: one call folds a whole chunk
        with the markers held in local variables, so the per-observation
        cost is the Jain–Chlamtac arithmetic alone, with no call or
        attribute traffic.
        """
        self._fold(xs, 1)

    def add_run(self, x: float, n: int) -> None:
        """Fold ``n`` identical observations in one weighted update.

        The macro-step ingestion primitive: a batched decode boundary
        emits the *same* gap for every active sequence, so the markers
        take the whole run as one weighted observation — rank positions
        above the insertion point jump by ``n``, then a single standard
        adjustment sweep nudges the inner markers.  That makes the cost
        O(1) per *run* instead of O(1) per *sample* (the property that
        lets a macro-stepped path ingest 300k tokens in 40k updates);
        the price is that marker positions chase their desired ranks one
        step per run rather than per sample — the estimator stays
        monotone and bracketed, and converges over the run stream.  Both
        the reference and fast generative paths ingest the identical run
        sequence, so their sketches agree exactly.

        Raises:
            ValueError: If ``n`` is not positive (nothing is changed).
        """
        if n <= 0:
            raise ValueError("run length must be positive")
        self._fold((x,), n)

    def _fold(self, xs: Iterable[float], w: int) -> None:
        """The one copy of the P² update: fold each of ``xs`` with weight ``w``.

        Markers 1-3 adjust in order, each seeing its lower neighbor's
        fresh state, with the textbook's float operation order (the
        parabolic step, falling back to the linear one when it leaves
        the bracket), so any chunking of a stream gives the same bits.

        Two rewrites make each observation cheaper without changing a
        bit of the result:

        * Ranks are doubles inside the loop.  The ranks ``p0..p4`` and
          the count ``n - 1`` are integers below 2**53, so as floats
          they hold exactly the same values, and their sums and
          differences stay exact.  Every formula mixed them with floats
          anyway (``n1 * d1``, ``delta - p1``, ``/ (p2 - p1)``), which
          converted the integer exactly first; now each operation takes
          the float-float path on the same operands in the same order.
          ``n`` and ``_pos`` go back to ``int`` when the loop ends.
        * The textbook's sign ``s = ±1`` is split into an up branch
          (``delta >= 1``) and a down branch (``delta <= -1``), each
          with its own parabolic and linear formula.  That is exact in
          IEEE arithmetic: ``1 * a == a``; ``(-a) / b == -(a / b)``,
          because round-to-nearest is symmetric in sign; and
          ``x + (-y) == x - y``.
        """
        q0, q1, q2, q3, q4 = self._q
        p0, p1, p2, p3, p4 = map(float, self._pos)
        _, d1, d2, d3, _ = self._d
        fw = float(w)
        n1 = float(self.n - 1)
        for x in xs:
            # Find x's cell; every marker above it moves up a rank.
            if x < q0:
                q0 = x
                p1 += fw
                p2 += fw
                p3 += fw
            elif x >= q4:
                q4 = x
            elif q1 <= x:
                if q2 <= x:
                    if not q3 <= x:
                        p3 += fw
                else:
                    p2 += fw
                    p3 += fw
            else:
                p1 += fw
                p2 += fw
                p3 += fw
            p4 += fw
            n1 += fw
            delta = 1.0 + n1 * d1 - p1
            if delta >= 1.0:
                if p2 - p1 > 1.0:
                    qn = q1 + (
                        (p1 - p0 + 1.0) * (q2 - q1) / (p2 - p1)
                        + (p2 - p1 - 1.0) * (q1 - q0) / (p1 - p0)
                    ) / (p2 - p0)
                    if not q0 < qn < q2:
                        qn = q1 + (q2 - q1) / (p2 - p1)
                    q1 = qn
                    p1 += 1.0
            elif delta <= -1.0:
                if p0 - p1 < -1.0:
                    qn = q1 - (
                        (p1 - p0 - 1.0) * (q2 - q1) / (p2 - p1)
                        + (p2 - p1 + 1.0) * (q1 - q0) / (p1 - p0)
                    ) / (p2 - p0)
                    if not q0 < qn < q2:
                        qn = q1 - (q0 - q1) / (p0 - p1)
                    q1 = qn
                    p1 -= 1.0
            delta = 1.0 + n1 * d2 - p2
            if delta >= 1.0:
                if p3 - p2 > 1.0:
                    qn = q2 + (
                        (p2 - p1 + 1.0) * (q3 - q2) / (p3 - p2)
                        + (p3 - p2 - 1.0) * (q2 - q1) / (p2 - p1)
                    ) / (p3 - p1)
                    if not q1 < qn < q3:
                        qn = q2 + (q3 - q2) / (p3 - p2)
                    q2 = qn
                    p2 += 1.0
            elif delta <= -1.0:
                if p1 - p2 < -1.0:
                    qn = q2 - (
                        (p2 - p1 - 1.0) * (q3 - q2) / (p3 - p2)
                        + (p3 - p2 + 1.0) * (q2 - q1) / (p2 - p1)
                    ) / (p3 - p1)
                    if not q1 < qn < q3:
                        qn = q2 - (q1 - q2) / (p1 - p2)
                    q2 = qn
                    p2 -= 1.0
            delta = 1.0 + n1 * d3 - p3
            if delta >= 1.0:
                if p4 - p3 > 1.0:
                    qn = q3 + (
                        (p3 - p2 + 1.0) * (q4 - q3) / (p4 - p3)
                        + (p4 - p3 - 1.0) * (q3 - q2) / (p3 - p2)
                    ) / (p4 - p2)
                    if not q2 < qn < q4:
                        qn = q3 + (q4 - q3) / (p4 - p3)
                    q3 = qn
                    p3 += 1.0
            elif delta <= -1.0:
                if p2 - p3 < -1.0:
                    qn = q3 - (
                        (p3 - p2 - 1.0) * (q4 - q3) / (p4 - p3)
                        + (p4 - p3 + 1.0) * (q3 - q2) / (p3 - p2)
                    ) / (p4 - p2)
                    if not q2 < qn < q4:
                        qn = q3 - (q2 - q3) / (p2 - p3)
                    q3 = qn
                    p3 -= 1.0
        self.n = int(n1) + 1
        self._q = [q0, q1, q2, q3, q4]
        self._pos = [int(p0), int(p1), int(p2), int(p3), int(p4)]

    @property
    def value(self) -> float:
        """The current estimate of the target quantile."""
        return self._q[2]


class QuantileSketch:
    """Exact nearest-rank up to a reservoir limit, P² markers beyond it.

    The two regimes give both worlds: small runs (and small windows) pay
    nothing for approximation — answers are the exact nearest-rank that
    full recording gives — while long streams hold O(1) memory.
    At the spill instant the exact reservoir seeds one
    :class:`P2Quantile` per tracked quantile, so the markers start on
    target instead of on the first five observations.
    """

    __slots__ = (
        "quantiles",
        "exact_limit",
        "count",
        "min",
        "max",
        "_exact",
        "_markers",
        "_rr",
        "_pending",
    )

    def __init__(
        self,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
    ) -> None:
        """Create an empty sketch.

        Args:
            quantiles: Tracked quantile fractions, each in (0, 1).
            exact_limit: Reservoir size before spilling to P² (>= 8).

        Raises:
            ValueError: On an out-of-range quantile or a tiny limit.
        """
        qs = tuple(sorted(set(float(q) for q in quantiles)))
        if not qs or any(not 0.0 < q < 1.0 for q in qs):
            raise ValueError("tracked quantiles must be fractions in (0, 1)")
        if exact_limit < 8:
            raise ValueError("exact_limit must be at least 8")
        self.quantiles = qs
        self.exact_limit = exact_limit
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self._exact: Optional[List[float]] = []
        self._markers: Optional[List[P2Quantile]] = None
        #: Round-robin cursor for run-batched marker updates.
        self._rr = 0
        #: Observations not yet folded in, in arrival order (at most
        #: :data:`INGEST_CHUNK`; see :meth:`flush`).
        self._pending: List[float] = []

    @property
    def is_exact(self) -> bool:
        """True while every answer is still exact nearest-rank."""
        self.flush()
        return self._markers is None

    @property
    def exact_values(self) -> Optional[List[float]]:
        """The ascending reservoir while exact, else ``None``."""
        self.flush()
        return self._exact

    def add(self, x: float) -> None:
        """Fold one observation into the sketch.

        ``count``/``min``/``max`` update now; the value itself waits in
        the pending chunk until the next :meth:`flush`.

        Raises:
            ValueError: If ``x`` is NaN or infinite (nothing is changed).
        """
        x = float(x)
        if not math.isfinite(x):
            _reject_nonfinite((x,))
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        pending = self._pending
        pending.append(x)
        if len(pending) >= INGEST_CHUNK:
            self.flush()

    def add_many(self, xs: List[float]) -> None:
        """Fold float observations in order, bitwise as :meth:`add` one
        by one.

        The batch-ingestion call: one ``extend`` of the pending chunk
        and one min/max each.  The chunk may overshoot
        :data:`INGEST_CHUNK` by up to ``len(xs) - 1`` values before it
        is flushed, which no answer depends on (see :meth:`flush`).

        Raises:
            ValueError: If any observation is NaN or infinite (nothing
                is changed).
        """
        if not math.isfinite(sum(xs)):
            _reject_nonfinite(xs)
        self._extend(xs)

    def _extend(self, xs: List[float]) -> None:
        """:meth:`add_many` for observations already known to be finite."""
        if not xs:
            return
        self.count += len(xs)
        lo = min(xs)
        if lo < self.min:
            self.min = lo
        hi = max(xs)
        if hi > self.max:
            self.max = hi
        pending = self._pending
        pending.extend(xs)
        if len(pending) >= INGEST_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Fold the pending chunk in, in arrival order.

        The reservoir takes observations one ``insort`` at a time up to
        the spill; the rest of the chunk goes to every marker set in one
        :meth:`P2Quantile.add_many` pass.  The result is bitwise what
        adding each observation on arrival would give, so a read never
        depends on where the chunk boundaries fell.
        """
        xs = self._pending
        if not xs:
            return
        self._pending = []
        if self._markers is None:
            exact = self._exact
            limit = self.exact_limit
            for i, x in enumerate(xs):
                bisect.insort(exact, x)
                if len(exact) >= limit:
                    self._markers = [P2Quantile(q, exact) for q in self.quantiles]
                    self._exact = None
                    xs = xs[i + 1 :]
                    break
            else:
                return
        for m in self._markers:
            m.add_many(xs)

    def add_run(self, x: float, n: int) -> None:
        """Fold ``n`` identical observations in one O(1) bulk update.

        In the exact regime the run is spliced into the reservoir at its
        insertion point in one slice assignment (a run may overshoot
        ``exact_limit`` before spilling — deterministic, and identical
        for every caller feeding the same run sequence).  Past the spill
        the run feeds *one* tracked marker, round-robin: each marker
        then estimates its quantile from an interleaved subsample of the
        run stream, which keeps ingestion O(1) per run regardless of run
        width or marker count — the property that lets a macro-stepped
        decode path ingest hundreds of thousands of token gaps in tens
        of thousands of updates.  Min/max (the interpolation anchors)
        still see every run.  The pending chunk is flushed first, so the
        run lands after everything added before it.

        Raises:
            ValueError: If ``n`` is not positive or ``x`` is NaN or
                infinite (nothing is changed).
        """
        if n <= 0:
            raise ValueError("run length must be positive")
        if n == 1:
            self.add(x)
            return
        x = float(x)
        if not math.isfinite(x):
            _reject_nonfinite((x,))
        self.flush()
        self.count += n
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if self._markers is None:
            exact = self._exact
            lo = bisect.bisect_right(exact, x)
            exact[lo:lo] = [x] * n
            if len(exact) >= self.exact_limit:
                self._markers = [P2Quantile(q, exact) for q in self.quantiles]
                self._exact = None
            return
        markers = self._markers
        i = self._rr
        markers[i].add_run(x, n)
        self._rr = i + 1 if i + 1 < len(markers) else 0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in (0, 100]).

        Exact nearest-rank while the reservoir holds; after the spill,
        tracked quantiles answer from their P² marker and off-grid
        queries interpolate linearly between the bracketing tracked
        quantiles (with the observed min/max anchoring the ends).

        Args:
            q: Percentile in (0, 100].

        Returns:
            The estimate, or NaN for an empty sketch.

        Raises:
            ValueError: If ``q`` is outside (0, 100].
        """
        if not 0 < q <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return math.nan
        self.flush()
        if self._markers is not None:
            return _curve_percentile(q, self.quantiles, self._curve())
        return nearest_rank(self._exact, q)

    def _curve(self) -> List[float]:
        """The spilled sketch's curve heights: min, one estimate per
        tracked quantile, max (see :func:`_curve_percentile`)."""
        return [self.min, *(m.value for m in self._markers), self.max]


def _reject_nonfinite(xs: Iterable[float]) -> None:
    """Raise ``ValueError`` if any of ``xs`` is NaN or infinite.

    Callers reach here only when a float sum over ``xs`` came out
    non-finite, so the common, all-finite batch costs one
    ``math.isfinite`` test.  A finite sum proves every term finite; a
    non-finite one is a NaN or infinite term, or finite terms that
    overflowed, which this element-wise pass tells apart.
    """
    if not all(map(math.isfinite, xs)):
        raise ValueError("observations must be finite (no NaN or inf)")


def _curve_percentile(q: float, fracs: Sequence[float], curve: Sequence[float]) -> float:
    """Read percentile ``q`` off a spilled sketch's quantile curve.

    The curve runs through ``(0, min)``, one ``(frac, estimate)`` point
    per tracked fraction in ``fracs`` and ``(1, max)``; ``curve`` holds
    those heights in that order.  Off-grid queries interpolate linearly
    between the bracketing points.
    """
    p = q / 100.0
    pts = list(zip((0.0, *fracs, 1.0), curve))
    for (p0, v0), (p1, v1) in zip(pts, pts[1:]):
        if p <= p1:
            if p1 <= p0:
                return v1
            w = (p - p0) / (p1 - p0)
            return v0 + w * (v1 - v0)
    return curve[-1]


class StreamStats:
    """Incremental count/sum/mean/min/max plus a quantile sketch.

    The one-pass replacement for "keep a latency list and sort it":
    every moment it can answer the same questions a sorted list could,
    at O(1) memory once past the sketch's exact reservoir.
    """

    __slots__ = ("count", "total", "_sketch")

    def __init__(
        self,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
    ) -> None:
        """Create empty running statistics.

        Args:
            quantiles: Tracked quantile fractions for the sketch.
            exact_limit: The sketch's exact-reservoir size.
        """
        self.count = 0
        self.total = 0.0
        self._sketch = QuantileSketch(quantiles, exact_limit)

    def add(self, x: float) -> None:
        """Fold one observation in.

        Raises:
            ValueError: If ``x`` is NaN or infinite (nothing is changed).
        """
        self._sketch.add(x)
        self.count += 1
        self.total += x

    def add_many(self, xs: List[float]) -> None:
        """Fold float observations in order, bitwise as :meth:`add` one
        by one (the sum accumulates left to right, as ``+=`` would).

        The running sum doubles as the finiteness test, so a batch costs
        one ``math.isfinite`` check, not one per observation.

        Raises:
            ValueError: If any observation is NaN or infinite (nothing
                is changed).
        """
        total = reduce(add, xs, self.total)
        if not math.isfinite(total):
            _reject_nonfinite(xs)
        self._sketch._extend(xs)
        self.count += len(xs)
        self.total = total

    def add_run(self, x: float, n: int) -> None:
        """Fold ``n`` identical observations in one batched update.

        One multiply for the sum, one bulk sketch insert — the per-run
        cost the macro-stepped decode path pays per boundary instead of
        per token.  ``n == 1`` delegates to :meth:`add`, so mixed-run
        callers keep single-sample semantics unchanged.

        Raises:
            ValueError: If ``n`` is not positive or ``x`` is NaN or
                infinite (nothing is changed).
        """
        if n <= 0:
            raise ValueError("run length must be positive")
        if n == 1:
            self.add(x)
            return
        self._sketch.add_run(x, n)
        self.count += n
        self.total += x * n

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    @property
    def min(self) -> float:
        """Smallest observation (inf when empty)."""
        return self._sketch.min

    @property
    def max(self) -> float:
        """Largest observation (-inf when empty)."""
        return self._sketch.max

    @property
    def is_exact(self) -> bool:
        """True while percentile answers are exact nearest-rank."""
        return self._sketch.is_exact

    @property
    def exact_values(self) -> Optional[List[float]]:
        """The sketch's ascending reservoir while exact, else ``None``."""
        return self._sketch.exact_values

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile estimate (``q`` in (0, 100])."""
        return self._sketch.quantile(q)


class _Summary(NamedTuple):
    """What window queries read of one window.

    ``exact`` is the ascending reservoir while the window's sketch is
    exact; otherwise ``fracs``/``curve`` hold its quantile curve (see
    :func:`_curve_percentile`).
    """

    count: int
    exact: Optional[Sequence[float]]
    fracs: Optional[Tuple[float, ...]]
    curve: Optional[Sequence[float]]


class _Window:
    """One window of a :class:`WindowRing`.

    An open window ingests through a live :class:`StreamStats`.
    :meth:`close` packs it into a :class:`_Summary` over ``array('d')``
    storage (reading the sketch flushes its pending chunk) and drops the
    sketch: a closed window costs a few hundred bytes however many
    completions it saw, and answers every query exactly as its sketch
    would have.
    """

    __slots__ = ("start_s", "end_s", "stats", "summary")

    def __init__(self, start_s: float, quantiles, exact_limit) -> None:
        self.start_s = start_s
        self.end_s = math.inf  # open until closed
        self.stats: Optional[StreamStats] = StreamStats(quantiles, exact_limit)
        self.summary: Optional[_Summary] = None

    @property
    def count(self) -> int:
        """Completions the window holds."""
        return self.stats.count if self.summary is None else self.summary.count

    def read(self) -> _Summary:
        """The window's query view (packed now if it is still open)."""
        if self.summary is not None:
            return self.summary
        sk = self.stats._sketch
        if sk.is_exact:
            return _Summary(sk.count, array("d", sk.exact_values), None, None)
        return _Summary(sk.count, None, sk.quantiles, array("d", sk._curve()))

    def close(self, t: float) -> None:
        """End the window at ``t`` and keep only its packed summary."""
        self.end_s = t
        self.summary = self.read()
        self.stats = None


class WindowRing:
    """A bounded ring of windowed sub-sketches for O(1) window queries.

    Completions land in the open window; :meth:`roll` closes it (the
    elastic fleets roll at every control tick, so a window *is* a
    control interval) and a fixed ``window_s`` width auto-rolls for
    loops without a controller.  Only the newest ``depth`` closed
    windows are retained, each packed to its reservoir or quantile
    curve, so memory is bounded however long the run.

    Queries merge the sub-sketches of every window intersecting the
    asked range: exact when all of them still hold their reservoirs
    (the common case — a control window sees far fewer completions than
    the reservoir size), and a count-weighted interpolation of the
    per-window quantile curves once any window has spilled.  Windows
    are never split: a query is effectively snapped to the window
    boundaries it overlaps.
    """

    __slots__ = ("window_s", "depth", "quantiles", "exact_limit", "_closed", "_open")

    #: Per-quantile-curve sample grid used when merging spilled windows.
    _MERGE_GRID = tuple((i + 0.5) / 32.0 for i in range(32))

    def __init__(
        self,
        window_s: Optional[float] = None,
        depth: int = DEFAULT_RING_DEPTH,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = 128,
    ) -> None:
        """Create an empty ring.

        Args:
            window_s: Auto-roll width; ``None`` rolls only explicitly.
            depth: Closed windows retained (oldest evicted beyond this).
            quantiles: Tracked quantile fractions per sub-sketch.
            exact_limit: Per-window exact-reservoir size.

        Raises:
            ValueError: On a non-positive width or depth.
        """
        if window_s is not None and window_s <= 0:
            raise ValueError("window_s must be positive when given")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.window_s = window_s
        self.depth = depth
        self.quantiles = tuple(quantiles)
        self.exact_limit = exact_limit
        self._closed: List[_Window] = []
        self._open = _Window(0.0, self.quantiles, self.exact_limit)

    def add(self, x: float, t: float) -> None:
        """Record observation ``x`` stamped at time ``t`` (non-decreasing).

        Raises:
            ValueError: If ``x`` (or, when auto-rolling, ``t``) is NaN or
                infinite (nothing is changed, not even an auto-roll).
        """
        if self.window_s is not None:
            if not math.isfinite(x):
                _reject_nonfinite((x,))
            self._advance(t)
        self._open.stats.add(x)

    def add_many(self, xs: List[float], t: float) -> None:
        """Record float observations ``xs``, all stamped at time ``t``
        (non-decreasing), as :meth:`add` one by one would.

        Raises:
            ValueError: If any observation (or, when auto-rolling, ``t``)
                is NaN or infinite (nothing is changed, not even a roll).
        """
        if self.window_s is not None:
            if not math.isfinite(sum(xs)):
                _reject_nonfinite(xs)
            self._advance(t)
        self._open.stats.add_many(xs)

    def _advance(self, t: float) -> None:
        """Auto-roll the open window if ``t`` is past its width."""
        if not math.isfinite(t):  # a NaN would skip the roll
            raise ValueError(f"window time must be finite, got {t!r}")
        edge = self._open.start_s + self.window_s
        if t >= edge:
            # Snap the boundary to the width grid so sparse streams
            # don't accumulate one giant window.
            periods = math.floor((t - self._open.start_s) / self.window_s)
            start = self._open.start_s + periods * self.window_s
            while t >= start + self.window_s:  # the division rounded down
                start += self.window_s
            self.roll(start)

    def roll(self, t: float) -> None:
        """Close the open window at ``t`` and start a new one there.

        The closing window's pending chunk is folded in and the window
        packed (:meth:`_Window.close`), so closed windows hold neither
        unflushed data nor a live sketch.  A NaN or infinite ``t`` raises.
        """
        if not math.isfinite(t):  # a NaN start hides every earlier window
            raise ValueError(f"window time must be finite, got {t!r}")
        w = self._open
        if w.stats.count:
            w.close(t)
            self._closed.append(w)
            if len(self._closed) > self.depth:
                del self._closed[0 : len(self._closed) - self.depth]
        self._open = _Window(t, self.quantiles, self.exact_limit)

    def _overlapping(self, start_s: float, end_s: float) -> List[_Window]:
        out = [
            w
            for w in self._closed
            if w.start_s < end_s and w.end_s > start_s
        ]
        w = self._open
        if w.stats.count and w.start_s < end_s:
            out.append(w)
        return out

    def window_percentile(self, q: float, start_s: float, end_s: float) -> float:
        """Percentile over completions in windows touching ``[start_s, end_s)``.

        Args:
            q: Percentile in (0, 100].
            start_s: Query start (inclusive).
            end_s: Query end (exclusive).

        Returns:
            Exact nearest-rank when every overlapped window is still in
            its exact regime; a count-weighted estimate otherwise; NaN
            when no retained window overlaps.
        """
        windows = [w.read() for w in self._overlapping(start_s, end_s)]
        if not windows:
            return math.nan
        if all(w.exact is not None for w in windows):
            merged: List[float] = []
            for w in windows:
                merged.extend(w.exact)
            merged.sort()
            return nearest_rank(merged, q)
        # Weighted merge: sample each window's quantile curve and take
        # the weighted nearest rank across samples.
        samples: List[Tuple[float, float]] = []  # (value, weight)
        for w in windows:
            if w.exact is not None:
                wgt = 1.0
                samples.extend((v, wgt) for v in w.exact)
            else:
                wgt = w.count / len(self._MERGE_GRID)
                samples.extend(
                    (_curve_percentile(p * 100.0, w.fracs, w.curve), wgt)
                    for p in self._MERGE_GRID
                )
        samples.sort(key=lambda vw: vw[0])
        total = sum(wgt for _, wgt in samples)
        target = q / 100.0 * total
        cum = 0.0
        for v, wgt in samples:
            cum += wgt
            if cum >= target:
                return v
        return samples[-1][0]

    def window_count(self, start_s: float, end_s: float) -> int:
        """Completions recorded in windows touching ``[start_s, end_s)``."""
        return sum(w.count for w in self._overlapping(start_s, end_s))


class MetricsRecorder:
    """The one metrics-accumulation contract every report layer shares.

    The sim kernel's ``FINISH`` path calls :meth:`record_batch` once per
    finished batch, and the admission and failure paths call
    :meth:`record_rejection` and :meth:`record_failure`; reports answer
    every query from here.

    * ``record="full"`` keeps five append-only columns, one entry per
      completed request: the request, ``dispatch_s``, ``finish_s``,
      ``batch`` and the latency.  Exact percentiles sort the latency
      column (memoized on the completion count, a sound key because the
      columns only grow), window percentiles filter it on the finish
      column, and ``completed`` builds its ``CompletedRequest`` records
      on read.  :meth:`merged` concatenates several recorders' columns
      into one, which is how a full-mode fleet answers fleet-wide.
    * ``record="streaming"`` keeps only aggregates: counters, running
      sums, a latency :class:`QuantileSketch`, and a :class:`WindowRing`
      of per-window sub-sketches.  The per-request properties raise
      :class:`RecordingModeError`.

    A recorder may chain to a ``parent``: streaming fleets give each
    node a recorder whose parent is the pool or run recorder, so one
    batch recorded at the node updates every aggregation level.
    """

    __slots__ = (
        "record",
        "parent",
        "_requests",
        "_dispatch",
        "_finish",
        "_batch",
        "_lat",
        "_sorted",
        "_rejected",
        "_failed",
        "n_completed",
        "n_rejected",
        "n_failed",
        "latency",
        "_queue_sum",
        "_service_sum",
        "_batch_sum",
        "ring",
    )

    def __init__(
        self,
        record: str = "full",
        window_s: Optional[float] = None,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        ring_depth: int = DEFAULT_RING_DEPTH,
        parent: Optional["MetricsRecorder"] = None,
    ) -> None:
        """Create an empty recorder.

        Args:
            record: ``"full"`` (exact per-request columns) or
                ``"streaming"`` (flat-memory aggregates).
            window_s: Auto-roll width of the streaming window ring;
                ``None`` rolls only on explicit :meth:`roll_window`
                calls (the elastic control loops roll every tick).
            quantiles: Tracked quantile fractions for the sketches.
            exact_limit: Exact-reservoir size of the overall sketch.
            ring_depth: Closed windows the ring retains.
            parent: Optional upstream recorder every record also feeds.

        Raises:
            ValueError: On an unknown ``record`` mode.
        """
        if record not in ("full", "streaming"):
            raise ValueError(
                f"unknown record mode {record!r}; choose 'full' or 'streaming'"
            )
        self.record = record
        self.parent = parent
        self.n_completed = 0
        self.n_rejected = 0
        self.n_failed = 0
        if record == "full":
            self._requests: Optional[list] = []
            self._dispatch: Optional[List[float]] = []
            self._finish: Optional[List[float]] = []
            self._batch: Optional[List[int]] = []
            # Latencies are the one column of per-request floats (the
            # others repeat one object per batch), so they pack into an
            # array at 8 bytes each.
            self._lat: Optional[array] = array("d")
            self._sorted: Tuple[int, List[float]] = (0, [])
            self._rejected: Optional[list] = []
            self._failed: Optional[list] = []
            self.latency = None
            self.ring = None
        else:
            self._requests = self._dispatch = self._finish = self._batch = None
            self._lat = self._rejected = self._failed = None
            self.latency = StreamStats(quantiles, exact_limit)
            self.ring = WindowRing(
                window_s=window_s,
                depth=ring_depth,
                quantiles=quantiles,
            )
        self._queue_sum = 0.0
        self._service_sum = 0.0
        self._batch_sum = 0.0

    @classmethod
    def merged(cls, recorders: Iterable["MetricsRecorder"]) -> "MetricsRecorder":
        """One full-mode recorder holding ``recorders``' records
        concatenated in the given order (a fleet's node order).

        Raises:
            RecordingModeError: If any recorder is a streaming one.
        """
        out = cls()
        for rec in recorders:
            rec._require_full("merging per-request columns")
            out._requests += rec._requests
            out._dispatch += rec._dispatch
            out._finish += rec._finish
            out._batch += rec._batch
            out._lat += rec._lat
            out._rejected += rec._rejected
            out._failed += rec._failed
            out.n_completed += rec.n_completed
            out.n_rejected += rec.n_rejected
            out.n_failed += rec.n_failed
        return out

    # ------------------------------------------------------------------ #
    # The recording contract (the FINISH/admission/failure paths)
    # ------------------------------------------------------------------ #

    def record_completion(self, c) -> None:
        """Record one completed request, as :meth:`record_batch` of
        ``c.request`` alone would, but with ``c``'s own batch size.

        Args:
            c: An object with ``request``, ``dispatch_s``, ``finish_s``
                and ``batch`` attributes (a ``CompletedRequest``).

        Raises:
            ValueError: If the latency is NaN or infinite (the recorder
                is left unchanged).
        """
        self._record(c.dispatch_s, c.finish_s, (c.request,), c.batch)

    def record_batch(
        self, dispatch_s: float, finish_s: float, requests: Sequence
    ) -> None:
        """Record one finished batch, bitwise as :meth:`record_completion`
        of each request in order would.

        The FINISH path's one call per batch: ``requests`` (objects with
        an ``arrival_s``) were dispatched together at ``dispatch_s`` and
        finished at ``finish_s``.

        Raises:
            ValueError: If a latency is NaN or infinite (the recorder is
                left unchanged).
        """
        self._record(dispatch_s, finish_s, requests, len(requests))

    def _record(
        self, dispatch_s: float, finish_s: float, requests: Sequence, batch: int
    ) -> None:
        """The one ingestion body: ``requests`` dispatched at
        ``dispatch_s`` in a batch of ``batch`` and finished at
        ``finish_s``.

        Each level of the parent chain (node, then pool, then run) gets
        the requests in order: full mode appends to its columns,
        streaming mode feeds its sketches the latencies in one batch
        call and accumulates the queue, service and batch sums left to
        right, as per-request ``+=`` would.
        """
        b = len(requests)
        if not b:
            return
        lats = [finish_s - r.arrival_s for r in requests]
        if self._lat is not None and not math.isfinite(sum(lats)):
            _reject_nonfinite(lats)
        queues = None
        rec: Optional[MetricsRecorder] = self
        while rec is not None:
            if rec._lat is not None:
                rec._requests.extend(requests)
                rec._dispatch.extend(repeat(dispatch_s, b))
                rec._finish.extend(repeat(finish_s, b))
                rec._batch.extend(repeat(batch, b))
                rec._lat.extend(lats)
            else:
                if queues is None:
                    queues = [dispatch_s - r.arrival_s for r in requests]
                    service = finish_s - dispatch_s
                rec.latency.add_many(lats)
                rec._queue_sum = reduce(add, queues, rec._queue_sum)
                rec._service_sum = reduce(add, repeat(service, b), rec._service_sum)
                rec._batch_sum = reduce(add, repeat(batch, b), rec._batch_sum)
                rec.ring.add_many(lats, finish_s)
            rec.n_completed += b
            rec = rec.parent

    def record_rejection(self, r) -> None:
        """Record one admission-rejected request (kept only in full mode)."""
        self.n_rejected += 1
        if self._rejected is not None:
            self._rejected.append(r)
        if self.parent is not None:
            self.parent.record_rejection(r)

    def record_failure(self, f) -> None:
        """Record one failure-lost request (kept only in full mode)."""
        self.n_failed += 1
        if self._failed is not None:
            self._failed.append(f)
        if self.parent is not None:
            self.parent.record_failure(f)

    def roll_window(self, t: float) -> None:
        """Close the streaming window ring's open window at ``t``.

        A no-op in full mode (full-mode window queries filter the
        columns exactly instead), but for the same check of ``t``."""
        if not math.isfinite(t):
            raise ValueError(f"window time must be finite, got {t!r}")
        if self.ring is not None:
            self.ring.roll(t)

    # ------------------------------------------------------------------ #
    # Per-request access (full mode only)
    # ------------------------------------------------------------------ #

    def _require_full(self, what: str):
        if self.record != "full":
            raise RecordingModeError(
                f"{what} is unavailable in streaming mode — per-request "
                "records were not kept; re-run with record='full'"
            )

    @property
    def completed(self) -> list:
        """Per-request completion records, built from the columns on
        each read (full mode only); editing the list leaves the recorder
        as it was.

        Raises:
            RecordingModeError: In streaming mode.
        """
        self._require_full("the completed-request list")
        # Lazy: the serving layer imports this module.
        from repro.serving.engine import CompletedRequest

        return list(
            map(CompletedRequest, self._requests, self._dispatch, self._finish, self._batch)
        )

    @property
    def rejected(self) -> list:
        """Per-request rejection records (full mode only).

        Raises:
            RecordingModeError: In streaming mode.
        """
        self._require_full("the rejected-request list")
        return self._rejected

    @property
    def failed(self) -> list:
        """Per-request failure records (full mode only).

        Raises:
            RecordingModeError: In streaming mode.
        """
        self._require_full("the failed-request list")
        return self._failed

    @property
    def latencies_s(self) -> List[float]:
        """Ascending completed latencies, memoized on the completion
        count (the columns only grow, so the count keys them).

        Raises:
            RecordingModeError: In streaming mode — use
                :meth:`percentile` instead.
        """
        self._require_full("the sorted latency list")
        n, memo = self._sorted
        if n != self.n_completed:
            memo = sorted(self._lat)
            self._sorted = (self.n_completed, memo)
        return memo

    def new_latencies(self, seen: int) -> List[float]:
        """Latencies of completions recorded after the first ``seen``.

        The elastic control loops slice each node's latency column once
        per tick to build the window-p99 signal (full mode only).

        Raises:
            RecordingModeError: In streaming mode.
        """
        self._require_full("the completion-latency slice")
        return self._lat[seen:].tolist()

    # ------------------------------------------------------------------ #
    # Aggregate queries (both modes)
    # ------------------------------------------------------------------ #

    @property
    def completed_count(self) -> int:
        """Completions recorded so far (works in both modes)."""
        return self.n_completed

    @property
    def rejected_count(self) -> int:
        """Rejections recorded so far (works in both modes)."""
        return self.n_rejected

    @property
    def failed_count(self) -> int:
        """Failure losses recorded so far (works in both modes)."""
        return self.n_failed

    def percentile(self, q: float) -> float:
        """Latency percentile: exact in full mode, sketched in streaming.

        Args:
            q: Percentile in (0, 100].

        Returns:
            Latency seconds (NaN when nothing completed).
        """
        if self.record == "full":
            return nearest_rank(self.latencies_s, q)
        return self.latency.percentile(q)

    def window_percentile(self, q: float, start_s: float, end_s: float) -> float:
        """Latency percentile over completions finishing in a window.

        Full mode filters the latency column on the finish column
        exactly; streaming mode answers from the window ring (snapped to
        the rolled window boundaries the range overlaps).

        Args:
            q: Percentile in (0, 100].
            start_s: Window start (inclusive).
            end_s: Window end (exclusive).

        Returns:
            Latency seconds (NaN when the window saw no completion).
        """
        if self.record == "full":
            return nearest_rank(
                sorted(
                    lat
                    for lat, f in zip(self._lat, self._finish)
                    if start_s <= f < end_s
                ),
                q,
            )
        return self.ring.window_percentile(q, start_s, end_s)

    @property
    def mean_latency_s(self) -> float:
        """Mean completed latency (NaN when nothing completed)."""
        if self.record == "full":
            if not self.n_completed:
                return math.nan
            return sum(self._lat) / self.n_completed
        return self.latency.mean

    @property
    def mean_queue_s(self) -> float:
        """Mean queueing delay (NaN when nothing completed)."""
        if self.n_completed == 0:
            return math.nan
        if self.record == "full":
            return sum(
                d - r.arrival_s for d, r in zip(self._dispatch, self._requests)
            ) / self.n_completed
        return self._queue_sum / self.n_completed

    @property
    def mean_service_s(self) -> float:
        """Mean service time (NaN when nothing completed)."""
        if self.n_completed == 0:
            return math.nan
        if self.record == "full":
            return sum(map(sub, self._finish, self._dispatch)) / self.n_completed
        return self._service_sum / self.n_completed

    @property
    def mean_batch(self) -> float:
        """Mean dispatched batch size (NaN when nothing completed)."""
        if self.n_completed == 0:
            return math.nan
        if self.record == "full":
            return sum(self._batch) / self.n_completed
        return self._batch_sum / self.n_completed
