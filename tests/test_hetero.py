"""Tests for the heterogeneous fleet stack (NodeSpec through autoscale)."""

import math

import pytest

from repro.autoscale import (
    BaselineBurstPolicy,
    HeteroElasticCluster,
    NodePool,
    PerPoolPolicy,
    StaticMixPolicy,
    StaticPolicy,
)
from repro.autoscale.policies import node_capacity_rps
from repro.baselines.gpu import GpuConfig
from repro.cluster import (
    BackendAffinityRouter,
    Cluster,
    ClusterNode,
    HeteroCapacityPlanner,
    ModelPlacement,
    PlacementError,
    make_router,
)
from repro.serving import (
    CPU_NODE,
    GPU_NODE,
    STEPSTONE_NODE,
    NodeSpec,
    OnlineServingEngine,
    Request,
    merge_streams,
    poisson_requests,
)


@pytest.fixture(scope="module")
def eng():
    return OnlineServingEngine()


def _mix_stream(duration_s=1.0, slo_s=1.0, rate=300.0):
    return merge_streams(
        poisson_requests("BERT", 0.9 * rate, duration_s, seed=3, slo_s=slo_s),
        poisson_requests(
            "DLRM", 0.1 * rate, duration_s, seed=4, slo_s=slo_s, start_id=1_000_000
        ),
    )


_EVERYWHERE = ModelPlacement(
    replicas={"BERT": [0, 1, 2], "DLRM": [0, 1, 2]}, used_bytes={}
)


class TestNodeSpec:
    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            NodeSpec(backend="tpu")

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(backend="cpu", memory_bytes=0)
        with pytest.raises(ValueError):
            NodeSpec(backend="cpu", hourly_cost=-1)
        with pytest.raises(ValueError):
            NodeSpec(backend="cpu", idle_w=100.0, busy_w=50.0)

    def test_name_defaults_to_backend(self):
        assert NodeSpec(backend="gpu").name == "gpu"

    def test_effective_policy(self):
        assert STEPSTONE_NODE.effective_policy("hybrid") == "hybrid"
        assert CPU_NODE.effective_policy("hybrid") == "cpu"
        assert GPU_NODE.effective_policy("pim") == "gpu"

    def test_energy_split(self):
        spec = NodeSpec(backend="cpu", idle_w=100.0, busy_w=300.0)
        # 10 s alive, 4 busy: 6*100 + 4*300
        assert spec.energy_j(10.0, 4.0) == pytest.approx(1800.0)

    def test_fits(self):
        assert GPU_NODE.fits(1e9)
        assert not GPU_NODE.fits(47e9)  # GPT2-sized weights


class TestSpecAwareLatencyCache:
    def test_stepstone_spec_shares_legacy_cache_line(self, eng):
        legacy = eng.batch_latency("BERT", "hybrid", 4)
        before = len(eng._latency_cache)
        via_spec = eng.batch_latency("BERT", "hybrid", 4, spec=STEPSTONE_NODE)
        assert via_spec == legacy
        assert len(eng._latency_cache) == before  # same hardware, same line

    def test_different_hardware_never_shares(self, eng):
        """The satellite fix: the cache key carries hardware identity."""
        ss = eng.batch_latency("BERT", "hybrid", 4)
        gpu = eng.batch_latency("BERT", "hybrid", 4, spec=GPU_NODE)
        slow_gpu = NodeSpec(
            backend="gpu", name="gpu-slow", gpu=GpuConfig(device_bw_gbps=50.0)
        )
        slow = eng.batch_latency("BERT", "hybrid", 4, spec=slow_gpu)
        assert ss != gpu
        assert gpu < slow  # distinct GpuConfigs get distinct cache entries

    def test_cpu_spec_matches_cpu_policy(self, eng):
        assert eng.batch_latency("BERT", "hybrid", 8, spec=CPU_NODE) == (
            eng.batch_latency("BERT", "cpu", 8)
        )

    def test_cpu_override_charges_its_own_host_ops(self, eng):
        """A weak-CPU spec pays its own (slower) CPU for the non-GEMM
        host ops too, not the engine's shared 28-core Xeon."""
        from repro.baselines.cpu import CpuConfig

        weak = NodeSpec(
            backend="cpu",
            name="cpu-weak",
            cpu=CpuConfig(name="small-host", cores=4, eff_bw_small_batch_gbps=4.0),
        )
        assert eng.batch_latency("BERT", "cpu", 8, spec=weak) > eng.batch_latency(
            "BERT", "cpu", 8, spec=CPU_NODE
        )

    def test_unknown_policy_still_raises(self, eng):
        with pytest.raises(ValueError, match="unknown policy"):
            eng.batch_latency("BERT", "tpu", 1, spec=GPU_NODE)

    def test_substrate_crossover(self, eng):
        """Fig. 7 shape: StepStone wins batch 1, the GPU wins batch 64."""
        ss1 = eng.batch_latency("BERT", "hybrid", 1, spec=STEPSTONE_NODE)
        gpu1 = eng.batch_latency("BERT", "hybrid", 1, spec=GPU_NODE)
        ss64 = eng.batch_latency("BERT", "hybrid", 64, spec=STEPSTONE_NODE)
        gpu64 = eng.batch_latency("BERT", "hybrid", 64, spec=GPU_NODE)
        assert ss1 < gpu1
        assert gpu64 < ss64


class TestHeteroPlacement:
    def test_per_node_capacities(self):
        # 60 GB + 20 GB nodes: GPT2 (~47 GB) can only land on node 0.
        p = ModelPlacement.plan(
            n_nodes=2, replication=1, capacity_bytes=[60e9, 20e9]
        )
        assert p.replicas["GPT2"] == [0]
        assert p.node_capacity_bytes == {0: 60e9, 1: 20e9}

    def test_capacity_count_mismatch_raises(self):
        with pytest.raises(PlacementError, match="capacities for"):
            ModelPlacement.plan(n_nodes=3, capacity_bytes=[128e9, 128e9])

    def test_plan_for_specs_uses_spec_memory(self, eng):
        models = {m: eng.models[m] for m in ("BERT", "DLRM")}
        p = ModelPlacement.plan_for_specs(
            models, specs=[STEPSTONE_NODE, GPU_NODE], replication=2
        )
        assert p.replicas["BERT"] and p.replicas["DLRM"]

    def test_saturate_skips_oversized_models(self, eng):
        models = {m: eng.models[m] for m in ("BERT", "DLRM", "XLM")}
        p = ModelPlacement.saturate(models, specs=[STEPSTONE_NODE, GPU_NODE])
        assert p.replicas["XLM"] == [0]  # 19 GB cannot fit the 12 GB GPU
        assert p.replicas["BERT"] == [0, 1]

    def test_saturate_unhosted_model_raises(self, eng):
        models = {m: eng.models[m] for m in ("XLM",)}
        with pytest.raises(PlacementError, match="no node can host"):
            ModelPlacement.saturate(models, specs=[GPU_NODE])


class TestBackendAffinityRouter:
    def _nodes(self, eng):
        return [
            ClusterNode(0, eng, "hybrid", spec=GPU_NODE),
            ClusterNode(1, eng, "hybrid", spec=STEPSTONE_NODE),
        ]

    def test_prefers_cheapest_feasible(self, eng):
        nodes = self._nodes(eng)
        r = BackendAffinityRouter()
        r.reset(lambda model: nodes)
        req = Request(0, "BERT", 0.0, slo_s=5.0)
        assert r.route(req, 0.0).node_id == 1  # stepstone is cheaper

    def test_spills_to_faster_backend_when_busy(self, eng):
        nodes = self._nodes(eng)
        # the cheap node is busy past the SLO horizon
        nodes[1].in_flight = [Request(9, "BERT", 0.0)]
        nodes[1].busy_until = 10.0
        r = BackendAffinityRouter()
        r.reset(lambda model: nodes)
        req = Request(0, "BERT", 0.0, slo_s=0.5)
        assert r.route(req, 0.0).node_id == 0

    def test_no_slo_falls_back_to_jsq(self, eng):
        nodes = self._nodes(eng)
        nodes[1].enqueue(Request(5, "BERT", 0.0))
        r = BackendAffinityRouter()
        r.reset(lambda model: nodes)
        assert r.route(Request(0, "BERT", 0.0), 0.0).node_id == 0

    def test_registered_in_make_router(self):
        assert make_router("backend-affinity").name == "backend-affinity"


class TestNodeCapacity:
    def test_spec_capacity_skips_unhostable_models(self, eng):
        """`node_capacity_rps` with a spec covers only the hosted share —
        the GPU's capacity on a BERT+XLM mix equals its pure-BERT one."""
        mix = {"BERT": 0.5, "XLM": 0.5}
        assert node_capacity_rps(eng, mix, "hybrid", spec=GPU_NODE) == (
            pytest.approx(node_capacity_rps(eng, {"BERT": 1.0}, "hybrid", spec=GPU_NODE))
        )

    def test_nothing_fits_raises(self, eng):
        with pytest.raises(ValueError, match="no mix model fits"):
            node_capacity_rps(eng, {"XLM": 1.0}, "hybrid", spec=GPU_NODE)


class TestHeteroClusterAnchors:
    def test_stepstone_spec_fleet_matches_legacy(self, eng):
        """The regression anchor: a fleet of stepstone NodeSpecs is the
        existing Cluster, request for request."""
        stream = _mix_stream()
        legacy = Cluster(3, engine=eng, placement=_EVERYWHERE).run(stream)
        hetero = Cluster(
            engine=eng, placement=_EVERYWHERE, specs=[STEPSTONE_NODE] * 3
        ).run(stream)
        assert [
            (c.request.req_id, c.dispatch_s, c.finish_s, c.batch)
            for c in legacy.completed
        ] == [
            (c.request.req_id, c.dispatch_s, c.finish_s, c.batch)
            for c in hetero.completed
        ]
        assert [r.request.req_id for r in legacy.rejected] == [
            r.request.req_id for r in hetero.rejected
        ]
        assert legacy.sim_end_s == hetero.sim_end_s

    def test_specs_count_mismatch_raises(self, eng):
        with pytest.raises(ValueError, match="disagrees"):
            Cluster(2, engine=eng, specs=[STEPSTONE_NODE] * 3)
        with pytest.raises(ValueError, match="n_nodes or specs"):
            Cluster(engine=eng)

    def test_mixed_fleet_report_cost_energy(self, eng):
        stream = _mix_stream()
        rep = Cluster(
            engine=eng,
            placement=_EVERYWHERE,
            specs=[STEPSTONE_NODE, CPU_NODE, GPU_NODE],
        ).run(stream)
        assert rep.hourly_cost == pytest.approx(
            STEPSTONE_NODE.hourly_cost + CPU_NODE.hourly_cost + GPU_NODE.hourly_cost
        )
        assert rep.energy_j() > 0
        assert rep.joules_per_request > 0
        # nodes report their *effective* policy
        assert [r.policy for r in rep.node_reports] == ["hybrid", "cpu", "gpu"]

    def test_handbuilt_report_cost_is_nan(self, eng):
        from repro.cluster import ClusterReport

        rep = ClusterReport(policy="hybrid", router="least-loaded", node_reports=[])
        assert math.isnan(rep.hourly_cost)
        assert math.isnan(rep.joules_per_request)


class TestHeteroCapacityPlanner:
    def test_duplicate_catalog_names_raise(self, eng):
        with pytest.raises(ValueError, match="duplicate"):
            HeteroCapacityPlanner(
                {"BERT": 1.0}, catalog=(STEPSTONE_NODE, STEPSTONE_NODE), engine=eng
            )

    def test_unknown_spec_in_counts_raises(self, eng):
        p = HeteroCapacityPlanner(
            {"BERT": 1.0}, catalog=(STEPSTONE_NODE,), engine=eng, n_requests=50
        )
        with pytest.raises(KeyError, match="not in the catalog"):
            p.fleet({"tpu": 1}, "hybrid")

    def test_capacity_estimate_orders_substrates(self, eng):
        p = HeteroCapacityPlanner(
            {"BERT": 0.9, "DLRM": 0.1},
            catalog=(STEPSTONE_NODE, CPU_NODE, GPU_NODE),
            engine=eng,
        )
        caps = {s.name: p.capacity_rps(s, "hybrid") for s in p.catalog.values()}
        assert caps["gpu"] > caps["stepstone"] > caps["cpu"] > 0

    def test_mixed_never_costs_more_than_best_homogeneous(self, eng):
        """The planner anchor: the winner's $/hr is bounded by every
        feasible homogeneous fleet's."""
        p = HeteroCapacityPlanner(
            {"BERT": 0.9, "DLRM": 0.1},
            catalog=(STEPSTONE_NODE, GPU_NODE),
            engine=eng,
            n_requests=120,
            window_slos=2.0,
            seed=5,
        )
        plan = p.min_cost_fleet("hybrid", target_rps=300, p99_slo_s=1.0)
        best_homo = min(plan.homogeneous_cost(n) for n in plan.specs)
        assert plan.hourly_cost <= best_homo + 1e-9
        assert plan.report.p99_s <= 1.0

    def test_capacity_estimate_counts_only_hosted_share(self, eng):
        """A node's capacity bound covers only the traffic it can host:
        the GPU (no room for XLM) has the same request capacity on a
        BERT+XLM mix as on pure BERT — not less (the old double-share
        bug under-estimated and could prune the true cheapest mix)."""
        mixed = HeteroCapacityPlanner(
            {"BERT": 0.5, "XLM": 0.5}, catalog=(STEPSTONE_NODE, GPU_NODE), engine=eng
        )
        pure = HeteroCapacityPlanner(
            {"BERT": 1.0}, catalog=(STEPSTONE_NODE, GPU_NODE), engine=eng
        )
        assert mixed.capacity_rps(GPU_NODE, "hybrid") == pytest.approx(
            pure.capacity_rps(GPU_NODE, "hybrid")
        )

    def test_unhostable_mixed_candidate_is_skipped_not_fatal(self, eng):
        """A mixed composition where some model fits no node must be
        treated as infeasible, not crash the search."""
        gpu_a = NodeSpec(
            backend="gpu", name="gpu-a", hourly_cost=0.5, memory_bytes=12e9
        )
        gpu_b = NodeSpec(
            backend="gpu", name="gpu-b", hourly_cost=0.6, memory_bytes=12e9
        )
        p = HeteroCapacityPlanner(
            {"BERT": 0.5, "XLM": 0.5},
            catalog=(STEPSTONE_NODE, gpu_a, gpu_b),
            engine=eng,
            n_requests=60,
            window_slos=1.0,
            seed=5,
        )
        # {gpu-a: 1, gpu-b: 1} is cheaper than the stepstone fleet and
        # passes the capacity prune on its BERT share, but cannot host
        # XLM at all — the search must skip it and land on a fleet that
        # hosts everything.
        plan = p.min_cost_fleet("hybrid", target_rps=20, p99_slo_s=5.0)
        assert plan.counts.get("stepstone", 0) >= 1
        skipped = [
            counts
            for counts, simulated, ok, _, _ in plan.probes
            if set(counts) == {"gpu-a", "gpu-b"} and not ok
        ]
        assert skipped  # the unhostable candidates were probed and rejected

    def test_infeasible_everywhere_raises(self, eng):
        p = HeteroCapacityPlanner(
            {"BERT": 1.0},
            catalog=(CPU_NODE,),
            engine=eng,
            n_requests=40,
            window_slos=1.0,
        )
        # CPU batch-1 BERT (~102 ms) alone busts a 50 ms p99 SLO.
        with pytest.raises(ValueError, match="no homogeneous fleet"):
            p.min_cost_fleet("hybrid", target_rps=50, p99_slo_s=0.05)


def _pools():
    return {
        "stepstone": NodePool(
            spec=STEPSTONE_NODE, min_nodes=1, max_nodes=4, initial_nodes=2
        ),
        "gpu": NodePool(spec=GPU_NODE, min_nodes=0, max_nodes=2, initial_nodes=0),
    }


class TestHeteroElastic:
    def test_pool_validation(self):
        with pytest.raises(ValueError):
            NodePool(spec=GPU_NODE, min_nodes=3, max_nodes=2)
        with pytest.raises(ValueError):
            NodePool(spec=GPU_NODE, min_nodes=0, max_nodes=2, initial_nodes=3)

    def test_unanchored_model_raises(self, eng):
        # XLM (19 GB) only fits the stepstone pool; with min_nodes=0
        # there routing could go dark.
        pools = {
            "stepstone": NodePool(spec=STEPSTONE_NODE, min_nodes=0, initial_nodes=1),
            "gpu": NodePool(spec=GPU_NODE, min_nodes=1, initial_nodes=1),
        }
        with pytest.raises(ValueError, match="routing could go dark"):
            HeteroElasticCluster(pools, engine=eng, models=["XLM"])

    def test_policy_with_unknown_pool_name_raises(self, eng):
        """A typo'd pool name in a policy fails loudly at the first tick
        instead of silently never scaling that pool."""
        cluster = HeteroElasticCluster(
            _pools(), engine=eng, models=["BERT", "DLRM"], control_interval_s=0.5
        )
        with pytest.raises(ValueError, match="unknown pools"):
            cluster.run(
                _mix_stream(rate=100.0),
                StaticMixPolicy({"stepstone": 2, "gpu-burst": 1}),
            )

    def test_static_mix_matches_static_cluster_quality(self, eng):
        """A static all-stepstone mix serves the stream exactly like the
        static fleet (same engine, same event ordering)."""
        from repro.autoscale import ElasticCluster

        stream = _mix_stream(rate=200.0)
        pools = {
            "stepstone": NodePool(
                spec=STEPSTONE_NODE, min_nodes=2, max_nodes=2, initial_nodes=2
            )
        }
        hetero = HeteroElasticCluster(
            pools, engine=eng, models=["BERT", "DLRM"], control_interval_s=0.5
        ).run(stream, StaticMixPolicy({"stepstone": 2}))
        homo = ElasticCluster(
            engine=eng,
            models=["BERT", "DLRM"],
            initial_nodes=2,
            min_nodes=2,
            max_nodes=2,
            control_interval_s=0.5,
        ).run(stream, StaticPolicy(2))
        assert hetero.served == homo.served
        assert hetero.p99_s == homo.p99_s
        assert hetero.sim_end_s == homo.sim_end_s

    def test_baseline_burst_rents_gpu_for_spike(self, eng):
        from repro.autoscale.traces import SpikeTrace, mix_requests

        mix = {"BERT": 0.9, "DLRM": 0.1}
        trace = SpikeTrace(
            base_rps=150.0, spike_rps=1200.0, spike_at_s=2.0, rise_s=0.5,
            decay_s=1.5,
        )
        reqs = mix_requests(trace, mix, duration_s=6.0, seed=9,
                            slos={m: 1.0 for m in mix})
        cluster = HeteroElasticCluster(
            _pools(), engine=eng, models=list(mix), control_interval_s=0.5
        )
        rep = cluster.run(
            reqs,
            BaselineBurstPolicy(
                "stepstone",
                "gpu",
                baseline_nodes=2,
                baseline_capacity_rps=node_capacity_rps(
                    eng, mix, "hybrid", spec=STEPSTONE_NODE
                ),
                burst_capacity_rps=node_capacity_rps(
                    eng, mix, "hybrid", spec=GPU_NODE
                ),
                target=0.85,
            ),
        )
        gpu_counts = [row["gpu_nodes"] for row in rep.pool_timeline]
        assert max(gpu_counts) >= 1  # the spike rented GPU capacity
        assert gpu_counts[0] == 0  # none before the spike
        assert rep.cost_usd > 0
        by_pool = rep.node_seconds_by_pool()
        assert by_pool["gpu"] < by_pool["stepstone"]
        assert rep.node_seconds == pytest.approx(sum(by_pool.values()))

    def test_per_pool_policy_wraps_homogeneous_policies(self, eng):
        from repro.autoscale import TargetUtilizationPolicy

        mix = {"BERT": 0.9, "DLRM": 0.1}
        stream = _mix_stream(rate=250.0, duration_s=2.0)
        cluster = HeteroElasticCluster(
            _pools(), engine=eng, models=list(mix), control_interval_s=0.5
        )
        cap = node_capacity_rps(eng, mix, "hybrid", spec=STEPSTONE_NODE)
        rep = cluster.run(
            stream,
            PerPoolPolicy(
                {"stepstone": TargetUtilizationPolicy(capacity_rps=cap)}
            ),
        )
        assert rep.served + len(rep.rejected) == len(stream)
        # the unmanaged gpu pool held its (empty) size
        assert all(row["gpu_nodes"] == 0 for row in rep.pool_timeline)

    def test_hetero_report_energy_uses_specs(self, eng):
        stream = _mix_stream(rate=150.0)
        pools = {
            "stepstone": NodePool(
                spec=STEPSTONE_NODE, min_nodes=1, max_nodes=1, initial_nodes=1
            )
        }
        rep = HeteroElasticCluster(
            pools, engine=eng, models=["BERT", "DLRM"], control_interval_s=0.5
        ).run(stream, StaticMixPolicy({"stepstone": 1}))
        expect = STEPSTONE_NODE.energy_j(rep.node_seconds, rep.busy_seconds)
        assert rep.energy_j() == pytest.approx(expect)
        assert rep.mean_hourly_cost == pytest.approx(STEPSTONE_NODE.hourly_cost)


class TestHeteroStreamingRecord:
    """Streaming recording on the heterogeneous fleet: run-level and
    per-pool recorder chains must reproduce the full-mode run."""

    @staticmethod
    def _pools():
        return {
            "stepstone": NodePool(
                spec=STEPSTONE_NODE, min_nodes=1, max_nodes=6, initial_nodes=2
            ),
            "gpu": NodePool(spec=GPU_NODE, min_nodes=0, max_nodes=2, initial_nodes=0),
        }

    @staticmethod
    def _policy(eng):
        from repro.autoscale import TargetUtilizationPolicy

        mix = {"BERT": 0.9, "DLRM": 0.1}
        return PerPoolPolicy(
            {
                "stepstone": TargetUtilizationPolicy(
                    node_capacity_rps(eng, mix, "hybrid", spec=STEPSTONE_NODE)
                ),
                "gpu": TargetUtilizationPolicy(
                    node_capacity_rps(eng, mix, "hybrid", spec=GPU_NODE)
                ),
            }
        )

    def test_streaming_matches_full(self, eng):
        reqs = _mix_stream(duration_s=10.0, rate=300.0)
        runs = {}
        for mode in ("full", "streaming"):
            cluster = HeteroElasticCluster(
                self._pools(),
                engine=eng,
                models=["BERT", "DLRM"],
                control_interval_s=0.5,
                record=mode,
            )
            runs[mode] = cluster.run(reqs, self._policy(eng))
        full, stream = runs["full"], runs["streaming"]
        assert stream.served == full.served
        assert stream.rejected_count == full.rejected_count
        assert stream.dropped_count == full.dropped_count
        assert stream.cost_usd == pytest.approx(full.cost_usd)
        assert stream.pool_timeline == full.pool_timeline
        assert [(s.t, s.desired) for s in stream.samples] == [
            (s.t, s.desired) for s in full.samples
        ]
        assert sorted(stream.pool_stats) == ["gpu", "stepstone"]
        assert (
            sum(r.completed_count for r in stream.pool_stats.values())
            == stream.served
        )

    def test_streaming_refuses_per_request_access(self, eng):
        from repro.sim import RecordingModeError

        cluster = HeteroElasticCluster(
            self._pools(),
            engine=eng,
            models=["BERT", "DLRM"],
            control_interval_s=0.5,
            record="streaming",
        )
        rep = cluster.run(_mix_stream(duration_s=3.0, rate=200.0), self._policy(eng))
        with pytest.raises(RecordingModeError):
            rep.latencies_s
        assert rep.record == "streaming"
        assert rep.served > 0
