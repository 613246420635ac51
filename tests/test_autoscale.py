"""Tests for the elastic-fleet layer (`repro.autoscale`)."""

import math

import pytest

from repro.autoscale import (
    ConstantTrace,
    ControlObservation,
    DiurnalTrace,
    ElasticCluster,
    FleetPowerModel,
    OnOffTrace,
    PredictiveTracePolicy,
    RampTrace,
    ReplayTrace,
    SLOFeedbackPolicy,
    SpikeTrace,
    StaticPolicy,
    TargetUtilizationPolicy,
    mix_requests,
    nhpp_requests,
    node_capacity_rps,
)
from repro.cluster import CapacityPlanner, Cluster, ModelPlacement
from repro.serving import OnlineServingEngine, poisson_requests
from repro.sim import window_latencies


@pytest.fixture(scope="module")
def eng():
    return OnlineServingEngine()


MIX = {"BERT": 0.9, "DLRM": 0.1}


def obs(
    t=1.0,
    interval_s=1.0,
    active=2,
    provisioning=0,
    draining=0,
    arrivals=0,
    completions=0,
    rejections=0,
    window_p99_s=math.nan,
    utilization=0.0,
    backlog=0,
):
    return ControlObservation(
        t=t,
        interval_s=interval_s,
        active=active,
        provisioning=provisioning,
        draining=draining,
        arrivals=arrivals,
        completions=completions,
        rejections=rejections,
        window_p99_s=window_p99_s,
        utilization=utilization,
        backlog=backlog,
    )


class TestTraces:
    def test_constant_and_ramp_shapes(self):
        c = ConstantTrace(100.0)
        assert c.rate_at(0) == c.rate_at(17.3) == 100.0
        r = RampTrace(start_rps=100.0, end_rps=300.0, ramp_s=10.0)
        assert r.rate_at(0.0) == 100.0
        assert r.rate_at(5.0) == pytest.approx(200.0)
        assert r.rate_at(25.0) == 300.0

    def test_diurnal_trough_and_peak(self):
        d = DiurnalTrace(trough_rps=50.0, peak_rps=450.0, period_s=10.0)
        assert d.rate_at(0.0) == pytest.approx(50.0)
        assert d.rate_at(5.0) == pytest.approx(450.0)
        assert d.rate_at(10.0) == pytest.approx(50.0)

    def test_diurnal_windowed_peak(self):
        d = DiurnalTrace(trough_rps=50.0, peak_rps=450.0, period_s=10.0)
        # window holding the summit -> global peak
        assert d.peak_rate(4.0, 6.0) == pytest.approx(450.0)
        # rising window without the summit -> right endpoint
        assert d.peak_rate(0.0, 2.0) == pytest.approx(d.rate_at(2.0))
        # window across a trough but no summit -> an endpoint wins
        assert d.peak_rate(8.0, 12.0) == pytest.approx(
            max(d.rate_at(8.0), d.rate_at(12.0))
        )

    def test_spike_shape_and_windowed_peak(self):
        s = SpikeTrace(base_rps=100.0, spike_rps=500.0, spike_at_s=5.0, rise_s=1.0)
        assert s.rate_at(4.9) == 100.0
        assert s.rate_at(6.0) == pytest.approx(500.0)
        assert s.rate_at(20.0) < 500.0
        assert s.peak_rate(0.0, 4.0) == pytest.approx(100.0)
        assert s.peak_rate(0.0, 20.0) == pytest.approx(500.0)
        # after the summit the decay is monotone down
        assert s.peak_rate(7.0, 9.0) == pytest.approx(s.rate_at(7.0))

    def test_onoff_is_two_valued_and_windowed_peak_is_exact(self):
        t = OnOffTrace(
            base_rps=50.0,
            burst_rps=400.0,
            mean_base_s=1.0,
            mean_burst_s=0.5,
            horizon_s=20.0,
            seed=3,
        )
        rates = {t.rate_at(x / 10) for x in range(200)}
        assert rates <= {50.0, 400.0}
        assert 400.0 in rates  # bursts do happen over 20 s
        first = t._switches[0]
        assert t.peak_rate(0.0, first / 2) == 50.0
        assert t.peak_rate(0.0, first + 0.01) == 400.0

    def test_onoff_same_seed_same_switches(self):
        a = OnOffTrace(50, 400, 1.0, 0.5, horizon_s=20.0, seed=9)
        b = OnOffTrace(50, 400, 1.0, 0.5, horizon_s=20.0, seed=9)
        assert a._switches == b._switches

    def test_replay_interpolation_and_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text(
            "# time  rate\n"
            "0.0, 100\n"
            "10.0  300\n"
            "\n"
            "20.0\t100\n"
        )
        tr = ReplayTrace.load(path)
        assert tr.rate_at(-1.0) == 100.0
        assert tr.rate_at(5.0) == pytest.approx(200.0)
        assert tr.rate_at(15.0) == pytest.approx(200.0)
        assert tr.rate_at(99.0) == 100.0
        assert tr.peak_rate(0.0, 20.0) == 300.0
        assert tr.peak_rate(0.0, 5.0) == pytest.approx(200.0)

    def test_replay_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            ReplayTrace(points=())
        with pytest.raises(ValueError, match="strictly increasing"):
            ReplayTrace(points=((0.0, 1.0), (0.0, 2.0)))
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="expected 't rate'"):
            ReplayTrace.load(bad)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrace(trough_rps=100.0, peak_rps=50.0, period_s=10.0)
        with pytest.raises(ValueError):
            SpikeTrace(base_rps=100.0, spike_rps=50.0, spike_at_s=1.0)
        with pytest.raises(ValueError):
            ConstantTrace(-1.0)


class TestStreamGeneration:
    def test_nhpp_deterministic_per_seed(self):
        tr = DiurnalTrace(trough_rps=40.0, peak_rps=300.0, period_s=8.0)
        a = nhpp_requests(tr, "BERT", 16.0, seed=5)
        b = nhpp_requests(tr, "BERT", 16.0, seed=5)
        assert [(r.req_id, r.arrival_s) for r in a] == [
            (r.req_id, r.arrival_s) for r in b
        ]
        c = nhpp_requests(tr, "BERT", 16.0, seed=6)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in c]

    def test_nhpp_mean_rate_tracks_trace(self):
        tr = DiurnalTrace(trough_rps=50.0, peak_rps=350.0, period_s=10.0)
        reqs = nhpp_requests(tr, "BERT", 40.0, seed=1)
        expect = tr.mean_rate(0.0, 40.0) * 40.0
        assert expect * 0.9 < len(reqs) < expect * 1.1

    def test_nhpp_constant_matches_poisson_intensity(self):
        reqs = nhpp_requests(ConstantTrace(200.0), "BERT", 10.0, seed=2)
        assert 200 * 10 * 0.85 < len(reqs) < 200 * 10 * 1.15
        assert all(0 <= r.arrival_s < 10.0 for r in reqs)
        assert [r.req_id for r in reqs] == list(range(len(reqs)))

    def test_nhpp_zero_rate_and_validation(self):
        assert nhpp_requests(ConstantTrace(0.0), "BERT", 5.0) == []
        with pytest.raises(ValueError, match="duration"):
            nhpp_requests(ConstantTrace(10.0), "BERT", 0.0)

    def test_mix_requests_shares_and_slos(self):
        stream = mix_requests(
            ConstantTrace(400.0),
            MIX,
            10.0,
            seed=4,
            slos={"BERT": 0.8, "DLRM": 0.2},
        )
        models = [r.model for r in stream]
        assert 0.8 < models.count("BERT") / len(models) < 0.97
        slos = {r.model: r.slo_s for r in stream}
        assert slos == {"BERT": 0.8, "DLRM": 0.2}
        assert stream == sorted(stream, key=lambda r: (r.arrival_s, r.req_id))

    def test_mix_requests_validation(self):
        with pytest.raises(ValueError):
            mix_requests(ConstantTrace(10.0), {}, 1.0)
        with pytest.raises(ValueError):
            mix_requests(ConstantTrace(10.0), {"BERT": -1.0}, 1.0)


class TestPolicies:
    def test_static_policy(self):
        p = StaticPolicy(3)
        assert p.desired_nodes(obs(active=1)) == 3
        with pytest.raises(ValueError):
            StaticPolicy(0)

    def test_target_util_sizes_from_demand(self):
        p = TargetUtilizationPolicy(capacity_rps=100.0, target=0.5, patience=2)
        # 300 req/s at 50 rps effective per node -> 6 nodes, immediately.
        assert p.desired_nodes(obs(active=2, arrivals=300)) == 6
        # downward takes `patience` consecutive under-sized windows
        p.reset()
        assert p.desired_nodes(obs(active=6, arrivals=100)) == 6
        assert p.desired_nodes(obs(active=6, arrivals=100)) == 5
        # an up-sized window resets the streak
        p.reset()
        assert p.desired_nodes(obs(active=6, arrivals=100)) == 6
        assert p.desired_nodes(obs(active=6, arrivals=700)) == 14

    def test_slo_feedback_up_on_violation_down_on_comfort(self):
        p = SLOFeedbackPolicy(1.0, down_margin=0.5, patience=2, settle_s=0.0)
        assert p.desired_nodes(obs(t=1.0, active=2, window_p99_s=1.5)) == 3
        p.reset()
        assert p.desired_nodes(obs(t=1.0, active=2, window_p99_s=0.2)) == 2
        assert p.desired_nodes(obs(t=2.0, active=2, window_p99_s=0.2)) == 1

    def test_slo_feedback_floor_memory_blocks_failed_count(self):
        p = SLOFeedbackPolicy(1.0, down_margin=0.5, patience=1, settle_s=0.0)
        # probing 1 node fails -> floor remembers, 2 is never left again
        assert p.desired_nodes(obs(t=1.0, active=2, window_p99_s=0.1)) == 1
        assert p.desired_nodes(obs(t=2.0, active=1, window_p99_s=2.0)) == 2
        for k in range(3, 9):
            assert p.desired_nodes(obs(t=float(k), active=2, window_p99_s=0.1)) == 2

    def test_slo_feedback_floor_ttl_allows_retry(self):
        p = SLOFeedbackPolicy(
            1.0, down_margin=0.5, patience=1, settle_s=0.0, floor_ttl_s=5.0
        )
        assert p.desired_nodes(obs(t=1.0, active=2, window_p99_s=0.1)) == 1
        assert p.desired_nodes(obs(t=2.0, active=1, window_p99_s=2.0)) == 2
        # memory expired -> the probe is allowed again
        assert p.desired_nodes(obs(t=9.0, active=2, window_p99_s=0.1)) == 1

    def test_slo_feedback_settle_holds_after_upscale(self):
        p = SLOFeedbackPolicy(1.0, down_margin=0.5, patience=1, settle_s=2.0)
        assert p.desired_nodes(obs(t=1.0, active=1, window_p99_s=3.0)) == 2
        # still violating while the backlog drains: hold, don't mark
        assert p.desired_nodes(obs(t=1.5, active=2, window_p99_s=3.0)) == 2
        assert 2 not in p._violated_at

    def test_predictive_reads_the_trace_ahead(self):
        tr = RampTrace(start_rps=100.0, end_rps=400.0, ramp_s=10.0)
        p = PredictiveTracePolicy(tr, capacity_rps=100.0, lookahead_s=2.0, headroom=1.0)
        assert p.desired_nodes(obs(t=0.0, active=1)) == 2  # rate_at(2) = 160
        assert p.desired_nodes(obs(t=10.0, active=1)) == 4

    def test_node_capacity_mix_harmonic(self, eng):
        cap_bert = node_capacity_rps(eng, {"BERT": 1.0}, "hybrid")
        cap_mix = node_capacity_rps(eng, MIX, "hybrid")
        cap_dlrm = node_capacity_rps(eng, {"DLRM": 1.0}, "hybrid")
        assert cap_bert < cap_mix < cap_dlrm
        b = eng.max_batch
        assert cap_bert == pytest.approx(b / eng.batch_latency("BERT", "hybrid", b))


class TestElasticCluster:
    def test_static_policy_matches_static_cluster(self, eng):
        """An elastic fleet that never scales is the static fleet, exactly."""
        slo = 20 * eng.min_latency("BERT", "cpu")
        reqs = poisson_requests("BERT", 300, 2.0, seed=3, slo_s=slo)
        placement = ModelPlacement(replicas={"BERT": [0, 1]}, used_bytes={})
        ref = Cluster(2, policy="hybrid", engine=eng, placement=placement).run(reqs)
        elastic = ElasticCluster(
            engine=eng,
            policy="hybrid",
            models=["BERT"],
            initial_nodes=2,
            control_interval_s=0.5,
        )
        rep = elastic.run(reqs, StaticPolicy(2))
        assert sorted(
            (c.request.req_id, c.dispatch_s, c.finish_s, c.batch)
            for c in ref.completed
        ) == sorted(
            (c.request.req_id, c.dispatch_s, c.finish_s, c.batch)
            for c in rep.completed
        )
        assert rep.sim_end_s == ref.sim_end_s
        assert rep.node_seconds == pytest.approx(2 * ref.sim_end_s)

    def test_scale_up_waits_for_provisioning(self, eng):
        elastic = ElasticCluster(
            engine=eng,
            policy="hybrid",
            models=["BERT"],
            initial_nodes=1,
            control_interval_s=0.5,
            provision_base_s=0.3,
            copy_gbps=10.0,
        )
        delay = elastic.provision_delay_s
        reqs = poisson_requests("BERT", 400, 3.0, seed=1, slo_s=1.0)
        rep = elastic.run(reqs, StaticPolicy(3))
        lives = [life for life in rep.lifetimes.values() if life.ordered_s > 0]
        assert len(lives) == 2  # grown at the first control tick
        for life in lives:
            assert life.ordered_s == 0.5
            assert life.ready_s == pytest.approx(0.5 + delay)
        # provisioning time is paid for
        assert rep.node_seconds > rep.sim_end_s  # more than one node's worth

    def test_provision_delay_scales_with_weights(self, eng):
        small = ElasticCluster(engine=eng, models=["DLRM"], copy_gbps=10.0)
        big = ElasticCluster(engine=eng, models=["BERT", "DLRM"], copy_gbps=10.0)
        assert big.provision_delay_s > small.provision_delay_s
        expect = big.provision_base_s + big.weight_bytes / 10e9
        assert big.provision_delay_s == pytest.approx(expect)

    def test_drained_node_finishes_backlog_then_retires(self, eng):
        elastic = ElasticCluster(
            engine=eng,
            policy="hybrid",
            models=["BERT"],
            initial_nodes=3,
            control_interval_s=0.5,
        )
        reqs = poisson_requests("BERT", 500, 4.0, seed=2, slo_s=2.0)
        rep = elastic.run(reqs, StaticPolicy(1))
        # two nodes drained at the first tick; every request is accounted
        assert rep.served + len(rep.rejected) == len(reqs)
        retired = [
            life
            for life in rep.lifetimes.values()
            if life.drain_s is not None and life.retired_s is not None
        ]
        assert len(retired) == 2
        for life in retired:
            assert life.retired_s >= life.drain_s
            # no completion on a drained node after it retired
            node_rep = rep.node_reports[life.node_id]
            assert all(c.finish_s <= life.retired_s for c in node_rep.completed)

    def test_min_and_max_nodes_clamp_the_policy(self, eng):
        elastic = ElasticCluster(
            engine=eng,
            policy="hybrid",
            models=["BERT"],
            initial_nodes=2,
            min_nodes=2,
            max_nodes=3,
            control_interval_s=0.5,
        )
        reqs = poisson_requests("BERT", 200, 3.0, seed=4, slo_s=1.0)
        rep = elastic.run(reqs, StaticPolicy(1))  # wants 1 < min_nodes
        assert all(s.active + s.provisioning >= 2 for s in rep.samples)
        rep2 = elastic.run(reqs, StaticPolicy(12))  # wants 12 > max_nodes
        assert all(s.active + s.provisioning <= 3 for s in rep2.samples)

    def test_empty_stream(self, eng):
        elastic = ElasticCluster(engine=eng, models=["BERT"], initial_nodes=1)
        rep = elastic.run([], StaticPolicy(1))
        assert rep.served == 0 and rep.offered == 0
        assert rep.node_seconds == 0.0
        assert math.isnan(rep.p99_s)
        assert rep.samples == []

    def test_constructor_validation(self, eng):
        with pytest.raises(ValueError, match="unknown policy"):
            ElasticCluster(engine=eng, policy="tpu")
        with pytest.raises(ValueError):
            ElasticCluster(engine=eng, initial_nodes=0)
        with pytest.raises(ValueError):
            ElasticCluster(engine=eng, min_nodes=4, max_nodes=2)
        with pytest.raises(ValueError):
            ElasticCluster(engine=eng, initial_nodes=9, max_nodes=4)
        with pytest.raises(ValueError):
            ElasticCluster(engine=eng, control_interval_s=0.0)
        with pytest.raises(KeyError, match="unknown to the engine"):
            ElasticCluster(engine=eng, models=["LLAMA"])

    def test_deterministic_runs(self, eng):
        trace = DiurnalTrace(trough_rps=50.0, peak_rps=400.0, period_s=6.0)
        stream = mix_requests(trace, MIX, 6.0, seed=8, slos={m: 1.0 for m in MIX})
        cap = node_capacity_rps(eng, MIX, "hybrid")

        def once():
            elastic = ElasticCluster(
                engine=eng,
                policy="hybrid",
                models=sorted(MIX),
                initial_nodes=1,
                control_interval_s=0.5,
            )
            return elastic.run(stream, TargetUtilizationPolicy(cap, target=0.7))

        a, b = once(), once()
        assert a.served == b.served
        assert a.node_seconds == b.node_seconds
        assert [(s.t, s.active, s.desired) for s in a.samples] == [
            (s.t, s.active, s.desired) for s in b.samples
        ]

    def test_windowed_observation_consistency(self, eng):
        """Control samples partition completions/arrivals without loss."""
        trace = DiurnalTrace(trough_rps=50.0, peak_rps=400.0, period_s=6.0)
        stream = mix_requests(trace, MIX, 6.0, seed=8, slos={m: 1.0 for m in MIX})
        cap = node_capacity_rps(eng, MIX, "hybrid")
        elastic = ElasticCluster(
            engine=eng,
            policy="hybrid",
            models=sorted(MIX),
            initial_nodes=1,
            control_interval_s=0.5,
        )
        rep = elastic.run(stream, TargetUtilizationPolicy(cap, target=0.7))
        assert sum(s.arrivals for s in rep.samples) == len(stream)
        # completions observed at ticks never exceed the total served (the
        # tail after the last tick is drained outside any window)
        assert sum(s.completions for s in rep.samples) <= rep.served
        assert all(0.0 <= s.utilization <= 1.0 for s in rep.samples)


class TestPlannerAnchor:
    def test_constant_trace_converges_to_capacity_planner(self, eng):
        """Satellite anchor: elastic convergence == static binary search."""
        rate, slo = 300.0, 1.0
        planner = CapacityPlanner(MIX, engine=eng, n_requests=150, seed=11)
        plan = planner.min_nodes("hybrid", target_rps=rate, p99_slo_s=slo, max_nodes=16)
        stream = mix_requests(ConstantTrace(rate), MIX, 16.0, seed=11)
        elastic = ElasticCluster(
            engine=eng,
            policy="hybrid",
            models=sorted(MIX),
            initial_nodes=plan.nodes + 2,
            control_interval_s=0.5,
            provision_base_s=0.15,
            copy_gbps=10.0,
        )
        rep = elastic.run(
            stream, SLOFeedbackPolicy(slo, down_margin=0.6, patience=2, settle_s=3.0)
        )
        assert rep.converged_nodes() == plan.nodes


class TestAutoscaleReport:
    def _report(self, eng):
        trace = SpikeTrace(base_rps=80.0, spike_rps=400.0, spike_at_s=2.0)
        stream = mix_requests(trace, MIX, 6.0, seed=5, slos={m: 1.0 for m in MIX})
        cap = node_capacity_rps(eng, MIX, "hybrid")
        elastic = ElasticCluster(
            engine=eng,
            policy="hybrid",
            models=sorted(MIX),
            initial_nodes=1,
            control_interval_s=0.5,
        )
        return elastic.run(stream, TargetUtilizationPolicy(cap, target=0.7))

    def test_accounting_identities(self, eng):
        rep = self._report(eng)
        assert rep.offered == rep.served + len(rep.rejected)
        assert 0.0 <= rep.shed_fraction < 1.0
        assert rep.busy_seconds <= rep.node_seconds + 1e-9
        assert rep.mean_fleet_size == pytest.approx(
            rep.node_seconds / rep.sim_end_s
        )
        assert rep.peak_fleet_size >= 1

    def test_energy_model_grounded_in_table2(self, eng):
        power = FleetPowerModel()
        # 38.4 GB/s at 25.7 pJ/bit ~ 7.9 W of DRAM streaming
        assert power.dram_stream_w == pytest.approx(7.895, rel=1e-3)
        assert power.busy_w > power.idle_w
        rep = self._report(eng)
        joules = rep.energy_j(power)
        assert joules >= rep.node_seconds * power.idle_w
        assert joules <= rep.node_seconds * power.busy_w + 1e-9

    def test_timeline_and_violations(self, eng):
        rep = self._report(eng)
        rows = rep.timeline_rows()
        assert len(rows) == len(rep.samples)
        assert {"t_s", "nodes", "offered_rps", "goodput_rps", "p99_ms"} <= set(rows[0])
        assert 0.0 <= rep.violation_fraction(1.0) <= 1.0
        # with per-request SLOs, completions can never exceed the SLO
        assert rep.violation_fraction(10.0) == 0.0

    def test_window_percentile_reuses_shared_helper(self, eng):
        rep = self._report(eng)
        assert math.isnan(rep.window_percentile(99, -5.0, 0.0))
        full = rep.window_percentile(99, 0.0, rep.sim_end_s + 1.0)
        assert full == pytest.approx(rep.p99_s)

    def test_converged_nodes_validation(self, eng):
        rep = self._report(eng)
        with pytest.raises(ValueError):
            rep.converged_nodes(tail_fraction=0.0)
        assert rep.converged_nodes(tail_fraction=1.0) >= 1


class TestStreamingTraces:
    """The lazy generator variants must reproduce their list counterparts
    request-for-request (same seeds, same ids, same merge order)."""

    def test_nhpp_stream_matches_list(self):
        from repro.autoscale import nhpp_stream

        tr = DiurnalTrace(trough_rps=30.0, peak_rps=200.0, period_s=20.0)
        eager = nhpp_requests(tr, "BERT", 40.0, seed=5, slo_s=1.0, start_id=3)
        lazy = list(nhpp_stream(tr, "BERT", 40.0, seed=5, slo_s=1.0, start_id=3))
        assert lazy == eager

    def test_mix_request_stream_matches_list(self):
        from repro.autoscale import mix_request_stream

        tr = DiurnalTrace(trough_rps=30.0, peak_rps=200.0, period_s=20.0)
        eager = mix_requests(tr, MIX, 40.0, seed=11, slos={"BERT": 1.0})
        lazy = list(mix_request_stream(tr, MIX, 40.0, seed=11, slos={"BERT": 1.0}))
        assert lazy == eager

    def test_stream_validation_matches_list(self):
        from repro.autoscale import mix_request_stream, nhpp_stream

        with pytest.raises(ValueError):
            list(nhpp_stream(ConstantTrace(10.0), "BERT", 0.0))
        with pytest.raises(ValueError):
            mix_request_stream(ConstantTrace(10.0), {}, 5.0)
        assert list(nhpp_stream(ConstantTrace(0.0), "BERT", 5.0)) == []


class TestStreamingRecord:
    """record="streaming" must be observationally equivalent to the
    pre-refactor full mode everywhere the controller looks, while
    refusing per-request access."""

    @staticmethod
    def _cluster(eng, record):
        return ElasticCluster(
            engine=eng,
            policy="hybrid",
            models=sorted(MIX),
            initial_nodes=1,
            min_nodes=1,
            max_nodes=8,
            control_interval_s=0.5,
            record=record,
        )

    @staticmethod
    def _stream(horizon=20.0):
        tr = DiurnalTrace(trough_rps=50.0, peak_rps=300.0, period_s=20.0)
        return mix_requests(tr, MIX, horizon, seed=9, slos={m: 1.0 for m in MIX})

    def test_unknown_record_mode_raises(self, eng):
        with pytest.raises(ValueError, match="unknown record mode"):
            self._cluster(eng, "ledger")

    def test_streaming_run_matches_full_run(self, eng):
        reqs = self._stream()
        cap = node_capacity_rps(eng, MIX, "hybrid")
        full = self._cluster(eng, "full").run(
            reqs, TargetUtilizationPolicy(cap, target=0.7)
        )
        stream = self._cluster(eng, "streaming").run(
            reqs, TargetUtilizationPolicy(cap, target=0.7)
        )
        assert stream.served == full.served
        assert stream.rejected_count == full.rejected_count
        assert stream.failed_count == full.failed_count
        assert stream.node_seconds == pytest.approx(full.node_seconds)
        # Control equivalence: every tick sees the same signals, so the
        # fleet makes the same decisions at the same instants.
        assert [(s.t, s.desired, s.completions, s.rejections) for s in stream.samples] == [
            (s.t, s.desired, s.completions, s.rejections) for s in full.samples
        ]
        # Sketch tolerance on the overall tail: the documented 2% holds
        # for 50k-sample streams (tests/test_stats.py); this short run
        # spills the reservoir with only ~5k samples, so allow 5%.
        assert stream.latency_percentile(99) == pytest.approx(
            full.latency_percentile(99), rel=0.05
        )

    def test_node_window_query_honors_its_range(self, eng):
        """Node rings roll at every control tick like the pool ring, so a
        control-aligned node window still in its exact reservoir answers
        what full mode answers, bit for bit (not the node's whole run)."""
        interval, horizon = 5.0, 120.0

        def run(record):
            cluster = ElasticCluster(
                engine=eng,
                policy="hybrid",
                models=["BERT"],
                initial_nodes=1,
                min_nodes=1,
                max_nodes=4,
                control_interval_s=interval,
                record=record,
            )
            tr = DiurnalTrace(trough_rps=10.0, peak_rps=60.0, period_s=horizon)
            reqs = mix_requests(tr, {"BERT": 1.0}, horizon, seed=3, slos={"BERT": 1.0})
            cap = node_capacity_rps(eng, {"BERT": 1.0}, "hybrid")
            # A low target spreads the load over four nodes, so most node
            # windows stay under the 128-sample exact reservoir.
            return cluster.run(reqs, TargetUtilizationPolicy(cap, target=0.1))

        full, stream = run("full"), run("streaming")
        assert sorted(stream.node_reports) == sorted(full.node_reports)
        checked = 0
        for nid, full_node in full.node_reports.items():
            node = stream.node_reports[nid]
            for k in range(int(horizon / interval)):
                start, end = k * interval, (k + 1) * interval
                lats = window_latencies(full_node.completed, start, end)
                if not lats or len(lats) >= 128:
                    continue
                for q in (50, 99):
                    assert node.window_percentile(q, start, end) == full_node.window_percentile(
                        q, start, end
                    ), (nid, start, q)
                checked += 1
        assert checked >= 40

    def test_streaming_refuses_per_request_access(self, eng):
        from repro.sim import RecordingModeError

        cap = node_capacity_rps(eng, MIX, "hybrid")
        rep = self._cluster(eng, "streaming").run(
            self._stream(8.0), TargetUtilizationPolicy(cap, target=0.7)
        )
        for attr in ("completed", "rejected", "dropped_list", "latencies_s"):
            if attr == "dropped_list":
                continue  # dropped stays a (bounded) list field
            with pytest.raises(RecordingModeError):
                getattr(rep, attr)
        assert rep.record == "streaming"

    def test_lazy_presorted_run_matches_eager(self, eng):
        from repro.autoscale import mix_request_stream

        tr = DiurnalTrace(trough_rps=50.0, peak_rps=300.0, period_s=20.0)
        horizon = 20.0
        cap = node_capacity_rps(eng, MIX, "hybrid")
        eager = self._cluster(eng, "streaming").run(
            self._stream(horizon), TargetUtilizationPolicy(cap, target=0.7)
        )
        lazy = self._cluster(eng, "streaming").run(
            mix_request_stream(tr, MIX, horizon, seed=9, slos={m: 1.0 for m in MIX}),
            TargetUtilizationPolicy(cap, target=0.7),
            presorted=True,
            horizon_s=horizon,
        )
        assert lazy.served == eager.served
        assert lazy.rejected_count == eager.rejected_count
        # The lazy run schedules ticks through the declared horizon, so
        # it may carry trailing ticks past the last arrival: the eager
        # decision sequence must be a prefix of the lazy one.
        n = len(eager.samples)
        assert len(lazy.samples) >= n
        assert [s.desired for s in lazy.samples[:n]] == [
            s.desired for s in eager.samples
        ]

    def test_presorted_requires_horizon(self, eng):
        with pytest.raises(ValueError, match="horizon"):
            self._cluster(eng, "streaming").run(
                iter([]), StaticPolicy(1), presorted=True
            )
