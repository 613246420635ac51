"""repro.obs: span tracing, the telemetry bus, and kernel self-profiling.

Three invariants carry the module:

* **Inertness** — ``obs=None`` (the default) leaves every run loop on
  its original code path, and an attached observer never changes a
  report (tracing observes, never perturbs);
* **Exactness** — span totals reproduce report aggregates with ``==``,
  not ``approx``, and survive ring eviction unchanged;
* **Coverage** — all five run loops thread one observer down to the
  kernel and populate ``events_processed`` through the one shared
  :meth:`~repro.sim.kernel.DiscreteEventKernel.finalize` helper.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    BUS,
    KernelProfiler,
    RunObserver,
    Span,
    SpanRecorder,
    Telemetry,
    validate_chrome_trace,
)
from repro.sim import FailureTrace
from repro.sim.kernel import DiscreteEventKernel, EventKind

MIX = {"BERT": 0.9, "DLRM": 0.1}


# --------------------------------------------------------------------- #
# SpanRecorder
# --------------------------------------------------------------------- #


class TestSpanRecorder:
    def test_emit_and_accounting(self):
        sp = SpanRecorder(cap=10)
        sp.emit(1, "queued", 0.0, 0.5)
        sp.emit(1, "serve", 0.5, 0.25, node=2, batch=4, model="BERT")
        sp.emit(-1, "batch", 0.5, 0.25, node=2, batch=4)
        assert len(sp) == 3 and sp.n_emitted == 3 and sp.n_evicted == 0
        assert sp.count("serve") == 1 and sp.total_s("queued") == 0.5
        assert sp.count("missing") == 0 and sp.total_s("missing") == 0.0
        assert sp.phases() == ["queued", "serve", "batch"]
        s = sp.spans[1]
        assert s == Span(1, "serve", 0.5, 0.25, 2, 4, "BERT", 0, 0)
        assert s.end_s == 0.75

    def test_by_request_excludes_engine_spans(self):
        sp = SpanRecorder()
        sp.emit(3, "queued", 0.0, 1.0)
        sp.emit(-1, "batch", 0.0, 1.0)
        sp.emit(3, "serve", 1.0, 1.0)
        groups = sp.by_request()
        assert list(groups) == [3] and len(groups[3]) == 2

    def test_slowest_ranks_by_extent(self):
        sp = SpanRecorder()
        sp.emit(1, "serve", 0.0, 1.0)
        sp.emit(2, "serve", 0.0, 5.0)
        sp.emit(3, "serve", 0.0, 3.0)
        assert [rid for rid, _, _ in sp.slowest(2)] == [2, 3]

    def test_eviction_keeps_totals_exact_and_memory_flat(self):
        """The ring caps retained spans; counts/durations stay exact."""
        sp = SpanRecorder(cap=16)
        expect = 0.0
        for i in range(1000):
            sp.emit(i, "serve", float(i), 0.125)
            expect += 0.125
        assert len(sp) == 16  # flat: never exceeds cap
        assert sp.n_emitted == 1000 and sp.n_evicted == 1000 - 16
        assert sp.count("serve") == 1000
        assert sp.total_s("serve") == expect
        assert sp.spans[0].req_id == 1000 - 16  # oldest evicted first

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(cap=0)

    def test_waterfall_renders_glyphs(self):
        sp = SpanRecorder()
        sp.emit(7, "queued", 0.0, 1.0)
        sp.emit(7, "serve", 1.0, 1.0)
        out = sp.waterfall(n=4)
        assert "req 7" in out and "legend:" in out
        assert "." in out and "s" in out
        assert SpanRecorder().waterfall() == "(no request spans retained)"

    def test_chrome_trace_exports_and_validates(self, tmp_path):
        sp = SpanRecorder()
        sp.emit(1, "serve", 1.0, 0.5, node=3, batch=2, model="BERT")
        sp.emit(-1, "batch", 0.5, 1.0, node=3, kv_tokens=8, tokens=4)
        payload = sp.chrome_trace()
        assert validate_chrome_trace(payload) == 2
        ev0, ev1 = payload["traceEvents"]
        assert ev0["ts"] <= ev1["ts"]  # sorted monotonic
        assert ev1["cat"] == "request" and ev0["cat"] == "engine"
        assert ev0["tid"] == 0 and ev1["tid"] == 1
        assert ev1["args"] == {"batch": 2, "model": "BERT"}
        path = tmp_path / "trace.json"
        assert sp.write_chrome_trace(str(path)) == 2
        assert validate_chrome_trace(json.loads(path.read_text())) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"foo": []},
            {"traceEvents": {}},
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": 0, "pid": 0}]},
            {
                "traceEvents": [
                    {"name": "x", "ph": "B", "ts": 0, "dur": 0, "pid": 0, "tid": 0}
                ]
            },
            {
                "traceEvents": [
                    {"name": "x", "ph": "X", "ts": -1, "dur": 0, "pid": 0, "tid": 0}
                ]
            },
            {
                "traceEvents": [
                    {"name": "x", "ph": "X", "ts": 0, "dur": 0, "pid": 0.5, "tid": 0}
                ]
            },
            {
                "traceEvents": [
                    {"name": "x", "ph": "X", "ts": 5, "dur": 0, "pid": 0, "tid": 0},
                    {"name": "y", "ph": "X", "ts": 1, "dur": 0, "pid": 0, "tid": 0},
                ]
            },
        ],
    )
    def test_validate_rejects_schema_violations(self, payload):
        with pytest.raises(ValueError):
            validate_chrome_trace(payload)


# --------------------------------------------------------------------- #
# Telemetry
# --------------------------------------------------------------------- #


class TestTelemetry:
    def test_counters_gauges_histograms(self):
        bus = Telemetry()
        bus.inc("served", 2, scope="engine")
        bus.inc("served", 3, scope="engine")
        bus.gauge("depth", 7.0, node="0")
        bus.observe("latency", 0.1)
        bus.observe("latency", 0.3)
        assert bus.counter("served", scope="engine") == 5.0
        assert bus.counter("served") == 0.0  # different label set
        assert bus.gauge_value("depth", node="0") == 7.0
        assert math.isnan(bus.gauge_value("depth"))
        h = bus.histogram("latency")
        assert h.count == 2 and h.mean == pytest.approx(0.2)
        snap = bus.snapshot()
        assert snap["counters"]["served{scope=engine}"] == 5.0
        assert snap["histograms"]["latency"]["count"] == 2

    def test_disabled_bus_is_a_no_op(self):
        bus = Telemetry(enabled=False)
        bus.inc("served")
        bus.gauge("depth", 1.0)
        bus.observe("latency", 0.5)
        bus.record_counts("engine", served=3)
        assert bus.counter("served") == 0.0
        assert bus.histogram("latency").count == 0
        assert bus.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert bus.enable().counter("served") == 0.0  # chainable

    def test_module_bus_starts_disabled(self):
        assert BUS.enabled is False

    def test_scoped_labels_merge_and_call_site_wins(self):
        bus = Telemetry()
        scoped = bus.scoped(scope="cluster", node="1")
        scoped.inc("served")
        scoped.inc("served", 1, node="2")  # call-site overrides
        assert bus.counter("served", scope="cluster", node="1") == 1.0
        assert bus.counter("served", scope="cluster", node="2") == 1.0

    def test_record_counts_and_reset(self):
        bus = Telemetry()
        bus.record_counts("genai", served=4, tokens=128)
        assert bus.counter("served", scope="genai") == 4.0
        assert bus.counter("tokens", scope="genai") == 128.0
        bus.reset()
        assert bus.counter("served", scope="genai") == 0.0


# --------------------------------------------------------------------- #
# KernelProfiler
# --------------------------------------------------------------------- #


def _micro_kernel(n: int = 500):
    """A kernel and its ``run`` keywords: ``n`` arrivals 1 ms apart,
    each scheduling a FINISH 0.5 ms later."""
    from repro.serving import Request

    kernel = DiscreteEventKernel()

    def on_arrival(now, reqs):
        for r in reqs:
            kernel.schedule(now + 5e-4, EventKind.FINISH, r.req_id)

    def on_finish(now, events):
        pass

    return kernel, dict(
        handlers={EventKind.FINISH: on_finish},
        arrivals=[Request(i, "BERT", float(i) * 1e-3) for i in range(n)],
        on_epoch=on_arrival,
    )


class TestKernelProfiler:
    def test_profiled_run_accounts_every_event(self):
        prof = KernelProfiler(sample_every=200)
        kernel, run = _micro_kernel(500)
        kernel.run(**run, profiler=prof)
        assert prof.events == kernel.processed == 1000
        assert prof.counts[int(EventKind.ARRIVAL)] == 500
        assert prof.counts[int(EventKind.FINISH)] == 500
        assert prof.stream_events == 500  # streamed arrivals
        assert prof.heap_events == 500  # scheduled finishes
        assert prof.runs == 1 and prof.wall_s > 0
        assert prof.timeline and prof.timeline[0][2] >= 200

    def test_profile_freezes_named_kinds(self):
        prof = KernelProfiler()
        kernel, run = _micro_kernel(100)
        kernel.run(**run, profiler=prof)
        p = prof.profile()
        assert p.counts == {"ARRIVAL": 100, "FINISH": 100}
        assert p.batches["ARRIVAL"] == 100
        assert p.events_per_s > 0
        assert 0.0 < p.handler_share <= 1.0
        assert p.stream_share == 0.5
        assert [r["kind"] for r in p.rows()] == sorted(
            p.counts, key=lambda n: -p.handler_s.get(n, 0.0)
        )
        assert "kernel profile: 200 events" in p.summary()

    def test_profiler_accumulates_across_runs(self):
        prof = KernelProfiler()
        for _ in range(2):
            kernel, run = _micro_kernel(50)
            kernel.run(**run, profiler=prof)
        assert prof.runs == 2 and prof.events == 200

    def test_empty_profile_is_safe(self):
        p = KernelProfiler().profile()
        assert p.events_per_s == 0.0 and p.handler_share == 0.0
        assert p.stream_share == 0.0 and p.rows() == []

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelProfiler(sample_every=0)

    def test_credited_events_land_in_the_profiler(self):
        """A credit inside a profiled run books decode boundaries: one
        event, one DECODE_STEP batch and one heap delivery each; outside
        a profiled run it touches only ``processed``."""
        prof = KernelProfiler()
        kernel = DiscreteEventKernel()
        kernel.schedule(1.0, EventKind.DECODE_STEP)
        kernel.run(
            {EventKind.DECODE_STEP: lambda t, evs: kernel.credit_events(3)},
            profiler=prof,
        )
        step = int(EventKind.DECODE_STEP)
        assert prof.events == kernel.processed == 4
        assert prof.counts == {step: 4} and prof.batches == {step: 4}
        assert prof.heap_events == 4 and prof.stream_events == 0
        kernel.credit_events(2)
        assert kernel.processed == 6 and prof.events == 4


# --------------------------------------------------------------------- #
# Observed runs: inertness, exact tie-outs, five-loop coverage
# --------------------------------------------------------------------- #


def _engine_stream():
    from repro.serving import OnlineServingEngine, poisson_requests

    engine = OnlineServingEngine()
    stream = poisson_requests("BERT", 200.0, 1.5, seed=9, slo_s=0.5)
    return engine, stream


class TestObservedRuns:
    def test_tracing_never_perturbs_the_engine(self):
        engine, stream = _engine_stream()
        plain = engine.run(list(stream), "hybrid")
        obs = RunObserver.full(cap=50_000)
        traced = engine.run(list(stream), "hybrid", obs=obs)
        assert [
            (c.request.req_id, c.dispatch_s, c.finish_s, c.batch)
            for c in traced.completed
        ] == [
            (c.request.req_id, c.dispatch_s, c.finish_s, c.batch)
            for c in plain.completed
        ]
        assert traced.sim_end_s == plain.sim_end_s
        assert traced.events_processed == plain.events_processed

    def test_engine_spans_tie_out_exactly(self):
        engine, stream = _engine_stream()
        obs = RunObserver.tracing()
        rep = engine.run(stream, "hybrid", obs=obs)
        sp = obs.spans
        assert sp.total_s("serve") == sum(c.service_s for c in rep.completed)
        assert sp.total_s("queued") == sum(c.queue_s for c in rep.completed)
        assert sp.count("serve") == rep.served
        assert sp.count("rejected") == rep.rejected_count
        assert validate_chrome_trace(sp.chrome_trace()) == sp.n_emitted

    def test_genai_engine_spans_tie_out_exactly(self):
        from repro.genai import GenerativeEngine, gen_requests

        reqs = gen_requests(2.0, 15.0, seed=5)
        obs = RunObserver.tracing()
        eng = GenerativeEngine(max_batch=4)
        rep = eng.run(reqs, obs=obs)
        plain = GenerativeEngine(max_batch=4).run(reqs)
        sp = obs.spans
        assert sp.total_s("prefill-pass") == rep.busy_prefill_s
        assert sp.total_s("decode-step") == rep.busy_decode_s
        assert sp.total_s("prefill-pass") + sp.total_s("decode-step") == rep.busy_s
        assert sp.count("sequence") == rep.served
        assert (rep.served, rep.tokens_out, rep.sim_end_s, rep.busy_s) == (
            plain.served,
            plain.tokens_out,
            plain.sim_end_s,
            plain.busy_s,
        )

    def test_cluster_failure_spans_cover_lost_requests(self):
        from repro.cluster import Cluster
        from repro.serving import poisson_requests

        obs = RunObserver.tracing()
        cluster = Cluster(n_nodes=2, replication=2)
        stream = poisson_requests("BERT", 300.0, 2.0, seed=3)
        rep = cluster.run(
            stream,
            failures=FailureTrace.scripted([(0, 0.5, 1.0)]),
            obs=obs,
        )
        sp = obs.spans
        assert rep.failed_count > 0
        assert sp.count("failed") == rep.failed_count
        assert sp.count("serve") == rep.served
        # Truncated batch spans: busy accounting still ties per node.
        for node in cluster.nodes:
            batch_sum = sum(
                s.dur_s
                for s in sp.spans
                if s.phase == "batch" and s.node == node.node_id
            )
            assert batch_sum == pytest.approx(node.busy_s, abs=1e-12)

    def test_all_five_run_loops_populate_events_processed(self):
        """The shared ``kernel.finalize`` helper feeds every report —
        and one observer threads through all five loops unchanged."""
        from repro.autoscale import (
            BaselineBurstPolicy,
            DiurnalTrace,
            ElasticCluster,
            HeteroElasticCluster,
            NodePool,
            TargetUtilizationPolicy,
            mix_requests,
            node_capacity_rps,
        )
        from repro.cluster import Cluster
        from repro.genai import GenerativeEngine, gen_requests
        from repro.serving import (
            GPU_NODE,
            STEPSTONE_NODE,
            OnlineServingEngine,
            poisson_requests,
        )

        obs = RunObserver.full(cap=50_000)
        engine = OnlineServingEngine()
        reports = {}

        reports["engine"] = engine.run(
            poisson_requests("BERT", 150.0, 1.0, seed=1), "hybrid", obs=obs
        )
        reports["cluster"] = Cluster(n_nodes=2, replication=2).run(
            poisson_requests("BERT", 200.0, 1.0, seed=2), obs=obs
        )
        elastic = ElasticCluster(
            engine=engine,
            policy="hybrid",
            models=sorted(MIX),
            initial_nodes=1,
            min_nodes=1,
            max_nodes=3,
            control_interval_s=0.5,
        )
        stream = mix_requests(
            DiurnalTrace(trough_rps=40.0, peak_rps=150.0, period_s=2.0),
            MIX,
            2.0,
            seed=3,
            slos={m: 1.0 for m in MIX},
        )
        capacity = node_capacity_rps(engine, MIX, "hybrid")
        reports["elastic"] = elastic.run(
            stream, TargetUtilizationPolicy(capacity, target=0.7), obs=obs
        )
        hetero = HeteroElasticCluster(
            pools={
                "stepstone": NodePool(
                    STEPSTONE_NODE, min_nodes=1, max_nodes=3, initial_nodes=1
                ),
                "gpu": NodePool(GPU_NODE, min_nodes=0, max_nodes=2, initial_nodes=0),
            },
            engine=engine,
            policy="hybrid",
            models=sorted(MIX),
            control_interval_s=0.5,
        )
        policy = BaselineBurstPolicy(
            baseline="stepstone",
            burst="gpu",
            baseline_nodes=1,
            baseline_capacity_rps=node_capacity_rps(
                engine, MIX, "hybrid", spec=STEPSTONE_NODE
            ),
            burst_capacity_rps=node_capacity_rps(
                engine, MIX, "hybrid", spec=GPU_NODE
            ),
            target=0.75,
        )
        hstream = mix_requests(
            DiurnalTrace(trough_rps=50.0, peak_rps=300.0, period_s=2.0),
            MIX,
            2.0,
            seed=4,
            slos={m: 1.0 for m in MIX},
        )
        reports["hetero"] = hetero.run(hstream, policy, obs=obs)
        reports["genai"] = GenerativeEngine(max_batch=4).run(
            gen_requests(2.0, 8.0, seed=5), obs=obs
        )

        for name, rep in reports.items():
            assert rep.events_processed > 0, name
        # The one profiler saw every one of those kernel events.
        assert obs.profile.events == sum(
            r.events_processed for r in reports.values()
        )
        assert obs.profile.runs == 5
        # Every loop reported its counts to the one telemetry bus.
        for scope in ("engine", "cluster", "elastic", "hetero", "genai"):
            assert obs.telemetry.counter("served", scope=scope) > 0, scope

        # The shared helper itself: finalizing twice is a no-op (run
        # loops and their callers may both finalize), and finalizing a
        # kernel that still has a pending event is a hard error — the
        # fast path drains the heap itself, so silent under-counting
        # here would be invisible downstream.
        kernel = DiscreteEventKernel()
        kernel.schedule(1.0, EventKind.CONTROL, 0)
        kernel.run({})
        rep = reports["engine"]
        first = rep.events_processed
        kernel.finalize(rep)
        assert rep.events_processed == kernel.processed == 1
        kernel.finalize(rep)  # idempotent: same drained kernel, same count
        assert rep.events_processed == 1
        rep.events_processed = first

        pending = DiscreteEventKernel()
        pending.schedule(2.0, EventKind.FINISH, 0)
        with pytest.raises(RuntimeError, match="still pending"):
            pending.finalize(rep)
        assert rep.events_processed == first  # a failed finalize wrote nothing

    def test_run_observer_factories(self):
        t = RunObserver.tracing(cap=8)
        assert t.spans.cap == 8 and t.profile is None and t.telemetry is None
        p = RunObserver.profiling(sample_every=10)
        assert p.spans is None and p.profile.sample_every == 10
        f = RunObserver.full(cap=9)
        assert f.spans.cap == 9 and f.profile is not None
        assert f.telemetry.enabled
