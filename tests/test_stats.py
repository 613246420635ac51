"""Tests for the streaming statistics core (``repro.sim.stats``) and the
lazy kernel stream: sketch-vs-exact cross-checks, the window ring, the
recorder's two modes, the full-mode latency memo's refresh on a later
record, and the lazy arrival stream's ordering contract."""

import math
import random
from typing import Any, NamedTuple

import pytest

from repro.serving.engine import (
    CompletedRequest,
    OnlineServingEngine,
    Request,
    ServingReport,
)
from repro.sim import (
    DiscreteEventKernel,
    EventKind,
    MetricsRecorder,
    P2Quantile,
    RecordingModeError,
    StreamStats,
    WindowRing,
    nearest_rank,
)


def _completion(latency_s, finish_s=0.0, req_id=0, queue_s=0.0, batch=1):
    finish_s = max(finish_s, latency_s)  # arrivals cannot be negative
    r = Request(req_id=req_id, model="BERT", arrival_s=finish_s - latency_s)
    return CompletedRequest(
        request=r,
        dispatch_s=finish_s - latency_s + queue_s,
        finish_s=finish_s,
        batch=batch,
    )


class TestQuantileSketch:
    """The quantile half of :class:`StreamStats`: the exact reservoir,
    then P² markers."""

    def test_exact_regime_matches_nearest_rank(self):
        rng = random.Random(7)
        xs = [rng.expovariate(3.0) for _ in range(200)]
        sk = StreamStats(exact_limit=512)
        for x in xs:
            sk.add(x)
        assert sk.is_exact
        for q in (25, 50, 75, 90, 95, 99, 100):
            assert sk.percentile(q) == nearest_rank(sorted(xs), q)

    @pytest.mark.parametrize(
        "dist",
        [
            lambda rng: rng.expovariate(2.0),
            lambda rng: rng.lognormvariate(0.0, 0.7),
        ],
        ids=["expovariate", "lognormal"],
    )
    def test_sketch_within_two_percent_of_exact(self, dist):
        """The documented tolerance: tracked percentiles of a 50k-sample
        stream sit within 2% of the exact nearest-rank answer."""
        rng = random.Random(42)
        xs = [dist(rng) for _ in range(50_000)]
        sk = StreamStats()
        for x in xs:
            sk.add(x)
        assert not sk.is_exact
        for q in (50, 90, 95, 99):
            exact = nearest_rank(sorted(xs), q)
            rel = abs(sk.percentile(q) - exact) / exact
            assert rel < 0.02, f"p{q}: {rel:.4f} off"

    def test_min_max_and_count(self):
        sk = StreamStats(exact_limit=8)
        for x in range(1000):
            sk.add(float(x))
        assert (sk.min, sk.max, sk.count) == (0.0, 999.0, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamStats(quantiles=[1.5])
        with pytest.raises(ValueError):
            StreamStats(exact_limit=4)
        with pytest.raises(ValueError):
            StreamStats().percentile(0)

    def test_empty_is_nan(self):
        assert math.isnan(StreamStats().percentile(50))

    def test_p2_is_monotone_in_rank(self):
        rng = random.Random(3)
        sk = StreamStats(exact_limit=8)
        for _ in range(10_000):
            sk.add(rng.gauss(10.0, 2.0))
        vals = [sk.percentile(q) for q in (10, 25, 50, 75, 90, 95, 99)]
        assert vals == sorted(vals)


class TestP2Quantile:
    def test_seeded_from_sorted_reservoir(self):
        seed = sorted(float(i) for i in range(64))
        m = P2Quantile(0.5, seed)
        assert abs(m.value - nearest_rank(seed, 50)) <= 1.0

    def test_tracks_shifting_stream(self):
        rng = random.Random(11)
        seed = sorted(rng.uniform(0, 1) for _ in range(64))
        m = P2Quantile(0.9, seed)
        xs = [rng.uniform(0, 1) for _ in range(20_000)]
        for x in xs:
            m.add(x)
        assert abs(m.value - 0.9) < 0.02

    @pytest.mark.parametrize("n", [0, -5])
    def test_bad_run_length_changes_nothing(self, n):
        # A negative weight used to walk ranks backwards: add_run(3.0, -5)
        # left _pos == [1, 2, 3, 0, 1], no longer monotone.
        m = P2Quantile(0.5, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        before = (list(m._q), list(m._pos), m.n)
        with pytest.raises(ValueError, match="run length"):
            m.add_run(3.0, n)
        assert (m._q, m._pos, m.n) == before


class TestStreamStats:
    def test_mean_total_and_percentiles(self):
        st = StreamStats()
        for x in (1.0, 2.0, 3.0, 4.0):
            st.add(x)
        assert st.count == 4
        assert st.mean == pytest.approx(2.5)
        assert st.min == 1.0 and st.max == 4.0
        assert st.percentile(50) == nearest_rank([1.0, 2.0, 3.0, 4.0], 50)

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_run_length_changes_nothing(self, n):
        st = StreamStats()
        for x in range(10):
            st.add(float(x))
        before = (st.count, st.total, st.min, st.max, st.percentile(50))
        with pytest.raises(ValueError, match="run length"):
            st.add_run(1.0, n)
        assert (st.count, st.total, st.min, st.max, st.percentile(50)) == before
        sk = StreamStats()
        sk.add(2.0)
        with pytest.raises(ValueError, match="run length"):
            sk.add_run(1.0, n)
        assert (sk.count, sk.total, sk.min, sk.max, sk.exact_values) == (1, 2.0, 2.0, 2.0, [2.0])


class TestWindowRing:
    def test_exact_windows_merge_exactly(self):
        ring = WindowRing()
        xs0 = [0.5, 0.1, 0.9]
        xs1 = [0.3, 0.7]
        for x in xs0:
            ring.add(x, 0.2)
        ring.roll(1.0)
        for x in xs1:
            ring.add(x, 1.2)
        ring.roll(2.0)
        assert ring.window_percentile(99, 0.0, 1.0) == nearest_rank(sorted(xs0), 99)
        assert ring.window_percentile(99, 1.0, 2.0) == nearest_rank(sorted(xs1), 99)
        assert ring.window_percentile(50, 0.0, 2.0) == nearest_rank(sorted(xs0 + xs1), 50)
        assert ring.window_count(0.0, 2.0) == 5

    def test_open_window_is_queryable(self):
        ring = WindowRing()
        ring.add(0.4, 0.1)
        assert ring.window_percentile(99, 0.0, 1.0) == 0.4
        ring.roll(1.0)  # once closed, a disjoint later range sees nothing
        assert math.isnan(ring.window_percentile(99, 5.0, 6.0))

    def test_auto_roll_snaps_to_width_grid(self):
        ring = WindowRing(window_s=1.0)
        ring.add(0.1, 0.5)
        ring.add(0.2, 7.3)  # jumps several widths: boundary at 7.0, not 8.3
        assert ring.window_count(0.0, 1.0) == 1
        assert ring.window_count(7.0, 8.0) == 1
        assert ring._closed[-1].end_s == 7.0  # snapped to the width grid
        assert ring._start_s == 7.0

    def test_auto_roll_lands_past_t_when_division_rounds_down(self):
        # (2.080... - 0.580...) / 0.75 rounds to just under 2, yet t is on
        # the second edge: one roll must reach it, or the next add at the
        # same t rolls again and splits what add_many keeps together.
        start, t = 0.5802376254465351, 2.080237625446535
        one, many = WindowRing(window_s=0.75), WindowRing(window_s=0.75)
        for ring in (one, many):
            ring.roll(start)
        one.add(0.5, t)
        one.add(1.5, t)
        many.add_many([0.5, 1.5], t)
        for ring in (one, many):
            assert ring._closed == []
            assert ring._start_s <= t < ring._start_s + 0.75
            assert ring._open.count == 2

    def test_depth_bounds_memory(self):
        ring = WindowRing(depth=4)
        for i in range(32):
            ring.add(float(i), float(i) + 0.5)
            ring.roll(float(i + 1))
        assert len(ring._closed) == 4
        assert ring.window_count(0.0, 32.0) == 4  # older windows evicted

    def test_spilled_window_estimate_stays_close(self):
        rng = random.Random(5)
        ring = WindowRing(exact_limit=128)
        xs = [rng.expovariate(1.0) for _ in range(5_000)]
        for x in xs:
            ring.add(x, 0.5)
        ring.roll(1.0)
        exact = nearest_rank(sorted(xs), 95)
        assert abs(ring.window_percentile(95, 0.0, 1.0) - exact) / exact < 0.05


class TestMetricsRecorder:
    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown record mode"):
            MetricsRecorder(record="ledger")

    def test_full_mode_keeps_records(self):
        rec = MetricsRecorder(record="full")
        rec.record_completion(_completion(0.25, finish_s=1.0))
        assert rec.completed_count == 1
        assert rec.latencies_s == [0.25]
        assert rec.percentile(99) == 0.25

    def test_full_mode_builds_records_only_on_read(self, monkeypatch):
        """A full run keeps columns; ``CompletedRequest`` records are
        built only when ``completed`` is read, one per completion."""
        import repro.serving.engine as serving_engine
        from repro.cluster import Cluster
        from repro.serving import poisson_requests

        built = []

        class Counted(CompletedRequest):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(serving_engine, "CompletedRequest", Counted)
        rep = Cluster(2, engine=OnlineServingEngine()).run(
            poisson_requests("BERT", 200.0, 1.0, seed=1)
        )
        node = rep.node_reports[0]
        _ = rep.p50_s, rep.p99_s, rep.window_percentile(99, 0.0, 1.0)
        _ = node.mean_queue_s, node.mean_service_s, node.mean_batch
        assert rep.served > 0 and built == []
        assert len(rep.completed) == rep.served == len(built)

    def test_streaming_mode_refuses_per_request_access(self):
        rec = MetricsRecorder(record="streaming")
        rec.record_completion(_completion(0.25, finish_s=1.0))
        assert rec.completed_count == 1
        assert rec.percentile(50) == 0.25
        for attr in ("completed", "rejected", "failed", "latencies_s"):
            with pytest.raises(RecordingModeError, match="record='full'"):
                getattr(rec, attr)

    def test_modes_agree_on_aggregates(self):
        rng = random.Random(9)
        full = MetricsRecorder(record="full")
        stream = MetricsRecorder(record="streaming")
        t = 10.0
        # 100 observations: under both the overall (512) and per-window
        # (128) exact limits, so every answer must match bit-for-bit.
        for i in range(100):
            t += rng.expovariate(50.0)
            c = _completion(rng.expovariate(8.0), finish_s=t, req_id=i)
            full.record_completion(c)
            stream.record_completion(c)
        assert stream.completed_count == full.completed_count
        assert stream.mean_latency_s == pytest.approx(full.mean_latency_s)
        assert stream.mean_queue_s == pytest.approx(full.mean_queue_s)
        assert stream.mean_batch == pytest.approx(full.mean_batch)
        assert stream.percentile(99) == full.percentile(99)
        # End strictly after the last finish: the window query's end is
        # exclusive, and both modes must see all 100 completions.
        assert stream.window_percentile(99, 0.0, t + 1.0) == (
            full.window_percentile(99, 0.0, t + 1.0)
        )

    def test_parent_chaining_feeds_every_level(self):
        run = MetricsRecorder(record="streaming")
        pool = MetricsRecorder(record="streaming", parent=run)
        node = MetricsRecorder(record="streaming", parent=pool)
        node.record_completion(_completion(0.5, finish_s=1.0))
        node.record_rejection(object())
        node.record_failure(object())
        for rec in (node, pool, run):
            assert (rec.completed_count, rec.rejected_count, rec.failed_count) == (
                1,
                1,
                1,
            )
        assert run.percentile(50) == 0.5


class TestLatencyMemoRefresh:
    """Full-mode answers come from append-only columns, and the sorted
    latency memo is keyed on the completion count: a record made after a
    read refreshes every answer, node and fleet alike, while editing the
    list ``completed`` returns leaves the recorder as it was."""

    @pytest.mark.parametrize("level", ["serving", "cluster"])
    def test_record_after_read_refreshes_every_answer(self, level):
        from repro.cluster import ClusterReport

        node = ServingReport(policy="hybrid")
        other = ServingReport(policy="hybrid")
        fleet = ClusterReport(policy="hybrid", router="rr", node_reports=[node, other])
        node.record_completion(_completion(0.25, finish_s=1.0, req_id=0))
        other.record_batch(1.5, 2.0, [Request(1, "BERT", 1.5)])

        def answers():
            if level == "serving":
                return (
                    node.p99_s,
                    node.window_percentile(99, 0.0, 10.0),
                    node.mean_latency_s,
                    node.mean_service_s,
                )
            return (
                fleet.p99_s,
                fleet.window_percentile(99, 0.0, 10.0),
                fleet.latencies_s,
            )

        first, after = {
            "serving": ((0.25, 0.25, 0.25, 0.25), (1.0, 1.0, 0.625, 0.625)),
            "cluster": ((0.5, 0.5, [0.25, 0.5]), (1.0, 1.0, [0.25, 0.5, 1.0])),
        }[level]
        assert answers() == first
        edited = node.completed
        edited[0] = _completion(9.0, finish_s=9.0)
        edited.append(_completion(8.0, finish_s=8.0))
        assert node.served == len(node.completed) == 1
        assert answers() == first
        node.record_batch(2.0, 3.0, [Request(2, "BERT", 2.0)])
        assert answers() == after


class TestServingReportModes:
    def test_streaming_report_counts_without_lists(self):
        rep = ServingReport(policy="hybrid", record="streaming")
        rep.record_completion(_completion(0.3, finish_s=1.0))
        assert rep.served == 1
        assert rep.p99_s == pytest.approx(0.3)
        with pytest.raises(RecordingModeError):
            rep.completed
        with pytest.raises(RecordingModeError):
            rep.latencies_s

    def test_engine_run_streaming_matches_full_counts(self):
        from repro.serving import poisson_requests

        eng = OnlineServingEngine()
        reqs = poisson_requests("BERT", 300.0, 2.0, seed=5, slo_s=1.0)
        full = eng.run(reqs, policy="hybrid")
        stream = eng.run(reqs, policy="hybrid", record="streaming")
        assert stream.served == full.served
        assert stream.rejected_count == full.rejected_count
        assert stream.throughput_rps == pytest.approx(full.throughput_rps)
        if full.served:
            assert stream.p99_s == pytest.approx(full.p99_s)


class Arrival(NamedTuple):
    """A bare arrival: its time, plus a payload to trace it by."""

    arrival_s: float
    payload: Any


class TestLazyKernelStream:
    @staticmethod
    def _arrivals(n, seed=0):
        rng = random.Random(seed)
        t = 0.0
        out = []
        for i in range(n):
            t += rng.expovariate(10.0)
            out.append(Arrival(t, i))
        return out

    def test_lazy_stream_matches_eager_preload(self):
        arrivals = self._arrivals(500)
        seen_eager, seen_lazy = [], []

        k1 = DiscreteEventKernel()
        k1.run({}, arrivals=arrivals, on_epoch=lambda t, reqs: seen_eager.extend(
            (t, r.payload) for r in reqs))

        k2 = DiscreteEventKernel()
        k2.run({}, arrivals=iter(arrivals), on_epoch=lambda t, reqs: seen_lazy.extend(
            (t, r.payload) for r in reqs))

        assert seen_lazy == seen_eager
        assert k2.processed == k1.processed

    def test_lazy_stream_interleaves_with_scheduled_events(self):
        arrivals = self._arrivals(200, seed=3)
        order = []
        kernel = DiscreteEventKernel()
        kernel.schedule(arrivals[50].arrival_s, EventKind.CONTROL, payload="tick")
        kernel.run(
            {EventKind.CONTROL: lambda t, evs: order.append("tick")},
            arrivals=iter(arrivals),
            on_epoch=lambda t, reqs: order.extend(r.payload for r in reqs),
        )
        assert order.index("tick") == 51  # ARRIVAL sorts before CONTROL
        assert [o for o in order if o != "tick"] == list(range(200))

    def test_out_of_order_lazy_stream_raises_mid_run(self):
        bad = [Arrival(1.0, 0), Arrival(0.5, 1)]
        kernel = DiscreteEventKernel()
        with pytest.raises(ValueError, match="out of order"):
            kernel.run({}, arrivals=iter(bad), on_epoch=lambda t, reqs: None)
