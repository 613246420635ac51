"""Tests for the request-level online serving engine."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serving import (
    POLICIES,
    OnlineServingEngine,
    Request,
    ServingReport,
    merge_streams,
    poisson_requests,
    slo_admit,
    uniform_requests,
)

from fleet_oracle import oracle_run


@pytest.fixture(scope="module")
def eng():
    return OnlineServingEngine()


class TestStreams:
    def test_poisson_deterministic(self):
        a = poisson_requests("BERT", rate_rps=100, duration_s=1.0, seed=3)
        b = poisson_requests("BERT", rate_rps=100, duration_s=1.0, seed=3)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]

    def test_poisson_rate_roughly_respected(self):
        reqs = poisson_requests("BERT", rate_rps=500, duration_s=4.0, seed=0)
        assert 1500 < len(reqs) < 2500  # ~2000 expected

    def test_uniform_spacing(self):
        reqs = uniform_requests("BERT", rate_rps=10, duration_s=1.0)
        gaps = [b.arrival_s - a.arrival_s for a, b in zip(reqs, reqs[1:])]
        assert all(g == pytest.approx(0.1) for g in gaps)

    def test_uniform_delivers_exact_rate(self):
        """Regression: the last arrival used to land on duration_s and get
        filtered, understating the asked-for rate by one request."""
        reqs = uniform_requests("BERT", rate_rps=10, duration_s=1.0)
        assert len(reqs) == 10
        assert reqs[0].arrival_s == 0.0
        assert reqs[-1].arrival_s < 1.0

    def test_merge_orders_by_arrival(self):
        a = uniform_requests("BERT", rate_rps=7, duration_s=1.0, start_id=0)
        b = uniform_requests("DLRM", rate_rps=11, duration_s=1.0, start_id=1000)
        merged = merge_streams(a, b)
        assert len(merged) == len(a) + len(b)
        arrivals = [r.arrival_s for r in merged]
        assert arrivals == sorted(arrivals)

    def test_invalid_stream_params(self):
        with pytest.raises(ValueError):
            poisson_requests("BERT", rate_rps=0, duration_s=1.0)
        with pytest.raises(ValueError):
            uniform_requests("BERT", rate_rps=10, duration_s=0)

    def test_invalid_request(self):
        with pytest.raises(ValueError):
            Request(req_id=0, model="BERT", arrival_s=-1.0)
        with pytest.raises(ValueError):
            Request(req_id=0, model="BERT", arrival_s=0.0, slo_s=0.0)


class TestBatchLatency:
    def test_unknown_policy_and_model(self, eng):
        with pytest.raises(ValueError, match="unknown policy"):
            eng.batch_latency("BERT", "gpu", 4)
        with pytest.raises(KeyError, match="unknown model"):
            eng.batch_latency("LLAMA", "cpu", 4)
        with pytest.raises(ValueError):
            eng.batch_latency("BERT", "cpu", 0)

    def test_monotone_in_batch(self, eng):
        for policy in POLICIES:
            t1 = eng.batch_latency("BERT", policy, 1)
            t8 = eng.batch_latency("BERT", policy, 8)
            t64 = eng.batch_latency("BERT", policy, 64)
            assert 0 < t1 <= t8 <= t64

    def test_hybrid_no_worse_than_best_single(self, eng):
        """The hybrid split's service time lower-bounds either backend for
        every model and batch size (its share grid includes both endpoints)."""
        for model in ("BERT", "DLRM", "XLM"):
            for batch in (1, 3, 17, 32, 64):
                hybrid = eng.batch_latency(model, "hybrid", batch)
                single = min(
                    eng.batch_latency(model, "cpu", batch),
                    eng.batch_latency(model, "pim", batch),
                )
                assert hybrid <= single + 1e-15

    def test_latency_cache_hit(self, eng):
        t1 = eng.batch_latency("BERT", "pim", 5)
        # the cache key carries the node-spec hardware identity; the
        # spec-less call is the default StepStone node
        assert ("BERT", "pim", 5, ("stepstone",)) in eng._latency_cache
        assert eng.batch_latency("BERT", "pim", 5) == t1


class TestEngineRuns:
    def test_empty_stream(self, eng):
        rep = eng.run([], "pim")
        assert rep.completed == [] and rep.rejected == []
        assert math.isnan(rep.p50_s)
        assert rep.throughput_rps == 0.0

    def test_unknown_policy(self, eng):
        with pytest.raises(ValueError, match="unknown policy"):
            eng.run([Request(0, "BERT", 0.0)], "tpu")

    def test_deterministic_same_seed(self, eng):
        reqs = poisson_requests("BERT", rate_rps=200, duration_s=1.0, seed=11, slo_s=3.0)
        a = eng.run(reqs, "hybrid")
        b = eng.run(reqs, "hybrid")
        assert len(a.completed) == len(b.completed)
        assert (a.p50_s, a.p95_s, a.p99_s) == (b.p50_s, b.p95_s, b.p99_s)
        assert a.throughput_rps == b.throughput_rps

    def test_all_served_no_slo(self, eng):
        reqs = poisson_requests("BERT", rate_rps=100, duration_s=1.0, seed=5)
        rep = eng.run(reqs, "hybrid")
        assert len(rep.completed) == len(reqs)
        assert not rep.rejected

    def test_slo_rejects_infeasible_requests(self, eng):
        """A request whose SLO is below the batch-1 service floor can never
        be served — admission rejects it instead of blowing the bound."""
        floor = eng.min_latency("BERT", "pim")
        reqs = poisson_requests(
            "BERT", rate_rps=50, duration_s=0.5, seed=2, slo_s=floor / 2
        )
        rep = eng.run(reqs, "pim")
        assert not rep.completed
        assert len(rep.rejected) == len(reqs)

    def test_completed_latencies_respect_slo(self, eng):
        slo = 30 * eng.min_latency("BERT", "cpu")
        reqs = poisson_requests("BERT", rate_rps=400, duration_s=1.0, seed=9, slo_s=slo)
        rep = eng.run(reqs, "hybrid")
        assert rep.completed
        assert max(c.latency_s for c in rep.completed) <= slo

    def test_fifo_and_accounting(self, eng):
        reqs = uniform_requests("BERT", rate_rps=120, duration_s=1.0)
        rep = eng.run(reqs, "cpu")
        assert len(rep.completed) == len(reqs)
        for c in rep.completed:
            assert c.queue_s >= 0
            assert c.service_s > 0
            assert c.latency_s == pytest.approx(c.queue_s + c.service_s)
            assert 1 <= c.batch <= eng.max_batch
        finishes = [c.finish_s for c in rep.completed]
        assert finishes == sorted(finishes)  # FIFO batches finish in order

    def test_max_batch_respected(self):
        small = OnlineServingEngine(max_batch=4)
        reqs = uniform_requests("DLRM", rate_rps=1000, duration_s=0.05)
        rep = small.run(reqs, "pim")
        assert rep.completed
        assert max(c.batch for c in rep.completed) <= 4

    def test_invalid_max_batch(self):
        with pytest.raises(ValueError):
            OnlineServingEngine(max_batch=0)

    def test_colliding_req_ids_across_streams(self, eng):
        """Regression: queue bookkeeping used req_id, so merged streams with
        overlapping ids silently dropped requests."""
        a = Request(req_id=0, model="BERT", arrival_s=0.0)
        b = Request(req_id=0, model="DLRM", arrival_s=0.0)
        rep = eng.run([a, b], "pim")
        assert len(rep.completed) == 2
        assert not rep.rejected

    def test_slo_admission_shrinks_before_mass_reject(self, eng):
        """Regression: two simultaneous requests whose SLO admits batch 1
        but not batch 2 — admission must serve one, not reject both."""
        s1 = eng.batch_latency("BERT", "cpu", 1)
        s2 = eng.batch_latency("BERT", "cpu", 2)
        assert s1 < s2
        slo = (s1 + s2) / 2
        reqs = [Request(i, "BERT", 0.0, slo_s=slo) for i in range(2)]
        rep = eng.run(reqs, "cpu")
        assert len(rep.completed) >= 1
        assert all(c.latency_s <= slo for c in rep.completed)

    def test_batches_never_mix_models(self, eng):
        a = poisson_requests("BERT", rate_rps=60, duration_s=0.5, seed=1, start_id=0)
        b = poisson_requests("DLRM", rate_rps=600, duration_s=0.5, seed=2, start_id=10_000)
        rep = eng.run(merge_streams(a, b), "hybrid")
        assert len(rep.completed) == len(a) + len(b)
        by_dispatch = {}
        for c in rep.completed:
            by_dispatch.setdefault(c.dispatch_s, set()).add(c.request.model)
        assert all(len(models) == 1 for models in by_dispatch.values())

    def test_hybrid_policy_never_worse_throughput(self, eng):
        """Overload BERT: hybrid sustains at least the best single backend."""
        reqs = poisson_requests("BERT", rate_rps=300, duration_s=1.5, seed=7, slo_s=2.0)
        reports = eng.run_policies(reqs)
        best_single = max(
            reports["cpu"].throughput_rps, reports["pim"].throughput_rps
        )
        assert reports["hybrid"].throughput_rps >= best_single - 1e-9


class TestReport:
    def test_percentiles_nearest_rank(self):
        rep = ServingReport(policy="cpu")
        reqs = [Request(i, "BERT", 0.0) for i in range(10)]
        from repro.serving import CompletedRequest

        for i, r in enumerate(reqs):
            rep.record_completion(
                CompletedRequest(request=r, dispatch_s=0.0, finish_s=float(i + 1), batch=1)
            )
        rep.sim_end_s = 10.0
        assert rep.p50_s == 5.0
        assert rep.p99_s == 10.0
        assert rep.latency_percentile(100) == 10.0
        assert rep.throughput_rps == 1.0

    def test_percentile_validation(self):
        rep = ServingReport(policy="cpu")
        with pytest.raises(ValueError):
            rep.latency_percentile(0)
        with pytest.raises(ValueError):
            rep.latency_percentile(101)

    def test_summary_renders(self, eng):
        reqs = poisson_requests("DLRM", rate_rps=2000, duration_s=0.05, seed=4)
        rep = eng.run(reqs, "pim")
        s = rep.summary()
        assert "pim" in s and "p50" in s and "req/s" in s


class TestSloAdmitRegression:
    """The single-pass admission must reject exactly the same requests the
    original shrink-one-recompute-all (O(b^2)) loop rejected."""

    @staticmethod
    def _reference(batch, clock, service_for_size):
        """The pre-refactor quadratic admission loop, verbatim semantics."""
        b = list(batch)
        rejected = []
        service = 0.0
        while b:
            service = service_for_size(len(b))
            violators = [
                r
                for r in b
                if r.slo_s is not None and (clock - r.arrival_s) + service > r.slo_s
            ]
            if not violators:
                break
            worst = min(violators, key=lambda r: r.slo_s - (clock - r.arrival_s))
            rejected.append(worst)
            b = [r for r in b if r is not worst]
        if not b:
            service = 0.0
        return b, rejected, service

    def _assert_matches(self, batch, clock, service_for_size):
        ref_adm, ref_rej, ref_srv = self._reference(batch, clock, service_for_size)
        admitted, rejected, service = slo_admit(batch, clock, service_for_size)
        assert [id(r) for r in rejected] == [id(r) for r in ref_rej]
        assert [id(r) for r in admitted] == [id(r) for r in ref_adm]
        assert service == ref_srv

    def test_randomized_batches_match(self):
        rng = random.Random(1234)
        for trial in range(200):
            clock = rng.uniform(0.0, 5.0)
            size = rng.randint(1, 40)
            batch = []
            for i in range(size):
                arrival = clock - rng.uniform(0.0, 2.0)
                slo = None if rng.random() < 0.2 else rng.uniform(0.05, 3.0)
                batch.append(
                    Request(req_id=i, model="BERT", arrival_s=max(0.0, arrival), slo_s=slo)
                )
            per_req = rng.uniform(0.01, 0.5)
            base = rng.uniform(0.0, 0.5)
            self._assert_matches(batch, clock, lambda n: base + per_req * n)

    def test_headroom_ties_match(self):
        """Identical (arrival, slo) pairs: drop order must still agree."""
        batch = [Request(req_id=i, model="BERT", arrival_s=0.0, slo_s=0.3) for i in range(8)]
        self._assert_matches(batch, 1.0, lambda n: 0.05 * n)

    def test_no_slo_requests_never_rejected(self):
        batch = [Request(req_id=i, model="BERT", arrival_s=0.0) for i in range(4)]
        admitted, rejected, service = slo_admit(batch, 100.0, lambda n: 1.0 * n)
        assert admitted == batch and not rejected
        assert service == 4.0

    def test_all_rejected(self):
        batch = [Request(req_id=i, model="BERT", arrival_s=0.0, slo_s=0.01) for i in range(3)]
        admitted, rejected, service = slo_admit(batch, 5.0, lambda n: 1.0)
        assert not admitted and len(rejected) == 3
        assert service == 0.0

    def test_engine_runs_match_reference_end_to_end(self, eng):
        """Replaying an overloaded stream, every dispatched batch's reject
        set matches the quadratic reference (checked via total counts and
        identical reports across the refactor's seams)."""
        slo = 6 * eng.min_latency("BERT", "cpu")
        reqs = poisson_requests("BERT", rate_rps=400, duration_s=1.0, seed=21, slo_s=slo)
        rep = eng.run(reqs, "cpu")
        assert len(rep.completed) + len(rep.rejected) == len(reqs)
        assert rep.rejected  # the scenario actually exercises rejection
        assert max(c.latency_s for c in rep.completed) <= slo


class TestServingReportEdgeCases:
    def test_zero_completed_percentiles_and_means_are_nan(self):
        rep = ServingReport(policy="cpu")
        assert math.isnan(rep.p50_s)
        assert math.isnan(rep.p95_s)
        assert math.isnan(rep.p99_s)
        assert math.isnan(rep.latency_percentile(100))
        assert math.isnan(rep.mean_queue_s)
        assert math.isnan(rep.mean_service_s)
        assert math.isnan(rep.mean_batch)
        assert rep.offered == 0

    def test_zero_completed_summary_still_renders(self):
        rep = ServingReport(policy="cpu")
        assert "cpu" in rep.summary()

    def test_single_request_stream(self, eng):
        rep = eng.run([Request(0, "BERT", 0.5)], "pim")
        assert len(rep.completed) == 1
        c = rep.completed[0]
        assert rep.p50_s == rep.p95_s == rep.p99_s == c.latency_s
        assert rep.mean_queue_s == 0.0
        assert rep.mean_service_s == pytest.approx(c.service_s)
        assert rep.mean_batch == 1.0
        assert rep.sim_end_s == c.finish_s
        assert rep.throughput_rps == pytest.approx(1.0 / c.finish_s)

    def test_single_rejected_request(self, eng):
        floor = eng.min_latency("BERT", "pim")
        rep = eng.run([Request(0, "BERT", 0.0, slo_s=floor / 10)], "pim")
        assert not rep.completed and len(rep.rejected) == 1
        assert math.isnan(rep.p99_s)
        assert rep.offered == 1

    def test_merge_streams_ties_break_by_req_id(self):
        a = [Request(5, "BERT", 1.0), Request(1, "BERT", 0.0)]
        b = [Request(2, "DLRM", 1.0), Request(0, "DLRM", 1.0)]
        merged = merge_streams(a, b)
        assert [(r.arrival_s, r.req_id) for r in merged] == [
            (0.0, 1),
            (1.0, 0),
            (1.0, 2),
            (1.0, 5),
        ]

    def test_merged_tied_arrivals_form_one_batch(self, eng):
        """Simultaneous same-model arrivals dispatch as a single batch."""
        reqs = [Request(i, "BERT", 0.0) for i in range(3)]
        rep = eng.run(reqs, "cpu")
        assert [c.batch for c in rep.completed] == [3, 3, 3]


class TestStreamDeterminismRegression:
    """Satellite regression: stream generators and `merge_streams` must be
    reproducible — identical seeds give identical streams, and full
    (arrival, req_id) ties keep a stable, input-order merge."""

    def test_poisson_identical_seed_identical_stream(self):
        a = poisson_requests("BERT", rate_rps=250, duration_s=2.0, seed=17, slo_s=0.5)
        b = poisson_requests("BERT", rate_rps=250, duration_s=2.0, seed=17, slo_s=0.5)
        assert a == b  # frozen dataclasses: bit-for-bit equality
        c = poisson_requests("BERT", rate_rps=250, duration_s=2.0, seed=18, slo_s=0.5)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in c]

    def test_uniform_identical_args_identical_stream(self):
        a = uniform_requests("DLRM", rate_rps=100, duration_s=1.0, slo_s=0.1)
        b = uniform_requests("DLRM", rate_rps=100, duration_s=1.0, slo_s=0.1)
        assert a == b

    def test_merge_is_stable_for_full_ties(self):
        """Colliding (arrival_s, req_id) pairs — caller-chosen ids may
        collide across streams — must keep input stream order."""
        a = [Request(0, "BERT", 1.0), Request(1, "BERT", 1.0)]
        b = [Request(0, "DLRM", 1.0), Request(1, "DLRM", 1.0)]
        merged = merge_streams(a, b)
        assert [(r.req_id, r.model) for r in merged] == [
            (0, "BERT"),
            (0, "DLRM"),
            (1, "BERT"),
            (1, "DLRM"),
        ]
        # and the merge itself is reproducible call to call
        assert merge_streams(a, b) == merge_streams(a, b)

    def test_merge_of_seeded_streams_is_reproducible(self):
        def build():
            return merge_streams(
                poisson_requests("BERT", 300, 1.0, seed=3, start_id=0),
                poisson_requests("DLRM", 100, 1.0, seed=4, start_id=1_000_000),
            )

        assert build() == build()


class TestWindowPercentiles:
    """Satellite coverage: the shared windowed-percentile helpers (reused
    by ClusterReport and AutoscaleReport) on their edge cases."""

    def _completed(self, finishes):
        from repro.serving import CompletedRequest

        rep = ServingReport(policy="cpu")
        for i, f in enumerate(finishes):
            rep.record_completion(
                CompletedRequest(
                    request=Request(i, "BERT", 0.0),
                    dispatch_s=0.0,
                    finish_s=f,
                    batch=1,
                )
            )
        return rep

    def test_empty_window_is_nan(self):
        rep = self._completed([1.0, 2.0, 3.0])
        assert math.isnan(rep.window_percentile(99, 10.0, 20.0))
        # inverted and zero-width windows are empty too
        assert math.isnan(rep.window_percentile(99, 2.0, 1.0))
        assert math.isnan(rep.window_percentile(99, 1.0, 1.0))

    def test_empty_report_window_is_nan(self):
        rep = ServingReport(policy="cpu")
        assert math.isnan(rep.window_percentile(50, 0.0, 100.0))

    def test_single_request_window(self):
        rep = self._completed([1.5])
        assert rep.window_percentile(1, 1.0, 2.0) == 1.5
        assert rep.window_percentile(99, 1.0, 2.0) == 1.5
        assert rep.window_percentile(100, 1.0, 2.0) == 1.5

    def test_window_bounds_are_half_open(self):
        rep = self._completed([1.0, 2.0])
        assert rep.window_percentile(99, 1.0, 2.0) == 1.0  # [1, 2): keeps 1.0
        assert rep.window_percentile(99, 1.0, 2.0 + 1e-9) == 2.0

    def test_all_rejected_window_is_nan(self, eng):
        """A window in which everything was shed has no latency signal."""
        floor = eng.min_latency("BERT", "pim")
        reqs = [Request(i, "BERT", 0.0, slo_s=floor / 10) for i in range(4)]
        rep = eng.run(reqs, "pim")
        assert len(rep.rejected) == 4
        assert math.isnan(rep.window_percentile(99, 0.0, 100.0))

    def test_window_matches_full_percentile_when_covering(self, eng):
        reqs = poisson_requests("BERT", 150, 1.0, seed=9)
        rep = eng.run(reqs, "hybrid")
        assert rep.window_percentile(99, 0.0, rep.sim_end_s + 1.0) == rep.p99_s

    def test_percentile_validation_applies_to_windows(self):
        rep = self._completed([1.0])
        with pytest.raises(ValueError):
            rep.window_percentile(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            rep.window_percentile(101, 0.0, 1.0)


# A short multi-model stream of (model, tick, SLO in half-ticks).  Shared
# ticks make simultaneous arrivals common, and SLOs range from hopeless
# to generous so admission both shrinks and passes batches.
_streams = st.lists(
    st.tuples(
        st.sampled_from(("BERT", "DLRM")),
        st.integers(0, 24),
        st.one_of(st.none(), st.integers(1, 8)),
    ),
    max_size=12,
)


class TestEngineProperties:
    @settings(max_examples=15, deadline=None)
    @given(spec=_streams, policy=st.sampled_from(POLICIES))
    # A queued request and an arrival both at a batch's finish instant:
    # the arrival must join the next batch on the drain and the oracle.
    @example(
        spec=[("BERT", 0, None), ("BERT", 1, None), ("BERT", 2, None)],
        policy="pim",
    )
    def test_fast_equals_reference_and_conserves_requests(self, eng, spec, policy):
        # A tick is half a batch-1 BERT service time.  Even ticks sit on a
        # grid built by repeated addition, so a lone BERT batch dispatched
        # on it finishes exactly on the next grid point and arrivals tie
        # with finishes.
        step = eng.min_latency("BERT", policy)
        grid = [0.0]
        for _ in range(12):
            grid.append(grid[-1] + step)
        reqs = [
            Request(
                i,
                model,
                grid[tick // 2] + tick % 2 * step / 2,
                None if slo is None else slo * step / 2,
            )
            for i, (model, tick, slo) in enumerate(spec)
        ]
        slow = oracle_run(eng.run, reqs, policy)
        fast = eng.run(reqs, policy)
        assert [
            (c.request.req_id, c.dispatch_s, c.finish_s, c.batch)
            for c in fast.completed
        ] == [
            (c.request.req_id, c.dispatch_s, c.finish_s, c.batch)
            for c in slow.completed
        ]
        assert [(r.request.req_id, r.rejected_at_s) for r in fast.rejected] == [
            (r.request.req_id, r.rejected_at_s) for r in slow.rejected
        ]
        assert fast.sim_end_s == slow.sim_end_s
        assert fast.events_processed == slow.events_processed
        for record in ("full", "streaming"):
            for rep in (
                oracle_run(eng.run, reqs, policy, record=record),
                eng.run(reqs, policy, record=record),
            ):
                assert rep.offered == rep.served + rep.rejected_count == len(reqs)
