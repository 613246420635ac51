"""Tests for the multi-node fleet layer (`repro.cluster`)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AffinityRouter,
    CapacityPlanner,
    Cluster,
    ClusterNode,
    LeastLoadedRouter,
    ModelPlacement,
    PlacementError,
    ROUTER_POLICIES,
    RoundRobinRouter,
    make_router,
)
from repro.cluster.planner import _frontier
from repro.experiments.serve_cluster import skew_placement, skew_stream
from repro.serving import (
    OnlineServingEngine,
    Request,
    poisson_requests,
    uniform_requests,
)


@pytest.fixture(scope="module")
def eng():
    return OnlineServingEngine()


def _skew(eng, duration_s=1.0):
    """The canonical BERT-heavy mix over the overlapping 3-node placement."""
    return skew_stream(eng, duration_s)


class TestPlacement:
    def test_replication_and_no_duplicate_homes(self):
        p = ModelPlacement.plan(n_nodes=4, replication=2)
        for model, homes in p.replicas.items():
            assert len(homes) == 2, model
            assert len(set(homes)) == 2, model

    def test_capacity_respected(self):
        p = ModelPlacement.plan(n_nodes=4, replication=2, capacity_bytes=128e9)
        for nid, used in p.used_bytes.items():
            assert used <= 128e9

    def test_infeasible_capacity_raises(self):
        # GPT2 weighs ~47 GB; a 10 GB node can never host it.
        with pytest.raises(PlacementError, match="cannot place"):
            ModelPlacement.plan(n_nodes=8, replication=1, capacity_bytes=10e9)

    def test_replication_beyond_nodes_raises(self):
        with pytest.raises(PlacementError, match="replication"):
            ModelPlacement.plan(n_nodes=2, replication=3)

    def test_invalid_counts_raise(self):
        with pytest.raises(PlacementError):
            ModelPlacement.plan(n_nodes=0)
        with pytest.raises(PlacementError):
            ModelPlacement.plan(n_nodes=2, replication=0)

    def test_deterministic_plan(self):
        a = ModelPlacement.plan(n_nodes=5, replication=2)
        b = ModelPlacement.plan(n_nodes=5, replication=2)
        assert a.replicas == b.replicas

    def test_largest_first_spreads_heavy_models(self):
        # GPT2 (~47 GB) and XLM (~19 GB) land on different nodes before
        # the small models fill in.
        p = ModelPlacement.plan(n_nodes=2, replication=1, capacity_bytes=60e9)
        assert p.replicas["GPT2"][0] != p.replicas["XLM"][0]

    def test_models_on_and_unknown_model(self):
        p = ModelPlacement.plan(n_nodes=2, replication=2)
        assert "BERT" in p.models_on(0)
        with pytest.raises(KeyError, match="no placed replica"):
            p.nodes_for("LLAMA")


class TestRouters:
    def _nodes(self, eng, n=3):
        return [ClusterNode(i, eng, "cpu") for i in range(n)]

    @staticmethod
    def _router(r, nodes):
        r.reset(lambda model: nodes)
        return r

    def test_round_robin_cycles(self, eng):
        nodes = self._nodes(eng)
        r = self._router(RoundRobinRouter(), nodes)
        req = Request(0, "BERT", 0.0)
        picks = [r.route(req, 0.0).node_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_counters_are_per_model(self, eng):
        nodes = self._nodes(eng)
        r = self._router(RoundRobinRouter(), nodes)
        assert r.route(Request(0, "BERT", 0.0), 0.0).node_id == 0
        assert r.route(Request(1, "DLRM", 0.0), 0.0).node_id == 0
        assert r.route(Request(2, "BERT", 0.0), 0.0).node_id == 1

    def test_least_loaded_picks_min_backlog(self, eng):
        nodes = self._nodes(eng)
        nodes[0].enqueue(Request(0, "BERT", 0.0))
        nodes[0].enqueue(Request(1, "BERT", 0.0))
        nodes[1].enqueue(Request(2, "BERT", 0.0))
        r = self._router(LeastLoadedRouter(), nodes)
        assert r.route(Request(3, "BERT", 0.0), 0.0).node_id == 2

    def test_least_loaded_ties_break_low_id(self, eng):
        nodes = self._nodes(eng)
        r = self._router(LeastLoadedRouter(), nodes)
        assert r.route(Request(0, "BERT", 0.0), 0.0).node_id == 0

    def test_affinity_prefers_primary_then_spills(self, eng):
        nodes = self._nodes(eng)
        r = self._router(AffinityRouter(spill_backlog=2), nodes)
        req = Request(0, "BERT", 0.0)
        assert r.route(req, 0.0).node_id == 0
        nodes[0].enqueue(Request(1, "BERT", 0.0))
        nodes[0].enqueue(Request(2, "BERT", 0.0))
        # The queues changed outside the router's own picks.
        r.invalidate_backlogs()
        # primary at the spill threshold -> shortest queue wins
        assert r.route(req, 0.0).node_id == 1

    def test_no_replica_routes_to_none(self, eng):
        for name in ROUTER_POLICIES:
            r = make_router(name)
            r.reset(lambda model: [])
            assert r.route(Request(0, "BERT", 0.0, slo_s=1.0), 0.0) is None

    def test_make_router_and_unknown_policy(self):
        for name in ROUTER_POLICIES:
            assert make_router(name).name == name
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random")


class TestClusterNode:
    def test_rejects_unhosted_model(self, eng):
        node = ClusterNode(0, eng, "cpu", models={"BERT"})
        with pytest.raises(ValueError, match="does not host"):
            node.enqueue(Request(0, "DLRM", 0.0))

    def test_dispatch_batches_head_model_only(self, eng):
        node = ClusterNode(0, eng, "cpu")
        node.enqueue(Request(0, "BERT", 0.0))
        node.enqueue(Request(1, "DLRM", 0.0))
        node.enqueue(Request(2, "BERT", 0.0))
        finish = node.try_dispatch(0.0)
        assert finish == pytest.approx(eng.batch_latency("BERT", "cpu", 2))
        assert [r.model for r in node.in_flight] == ["BERT", "BERT"]
        assert [r.model for r in node.queue] == ["DLRM"]

    def test_fully_rejected_batch_moves_to_next_model(self, eng):
        node = ClusterNode(0, eng, "cpu")
        # an impossible SLO: service alone exceeds it at any batch size
        node.enqueue(Request(0, "BERT", 0.0, slo_s=1e-9))
        node.enqueue(Request(1, "DLRM", 0.0))
        finish = node.try_dispatch(0.0)
        assert len(node.report.rejected) == 1
        assert [r.model for r in node.in_flight] == ["DLRM"]
        assert finish is not None


class TestClusterRuns:
    def test_single_node_matches_engine(self, eng):
        """A 1-node fleet is exactly the single-node serving engine."""
        slo = 20 * eng.min_latency("BERT", "cpu")
        reqs = poisson_requests("BERT", 200, 1.0, seed=3, slo_s=slo)
        ref = eng.run(reqs, "hybrid")
        rep = Cluster(1, policy="hybrid", engine=eng).run(reqs)
        assert [c.request.req_id for c in ref.completed] == [
            c.request.req_id for c in rep.completed
        ]
        assert [(c.dispatch_s, c.finish_s, c.batch) for c in ref.completed] == [
            (c.dispatch_s, c.finish_s, c.batch) for c in rep.completed
        ]
        assert [r.request.req_id for r in ref.rejected] == [
            r.request.req_id for r in rep.rejected
        ]
        assert rep.sim_end_s == ref.sim_end_s

    def test_deterministic_under_fixed_seed(self, eng):
        stream = _skew(eng)
        a = Cluster(3, engine=eng, placement=skew_placement()).run(stream)
        b = Cluster(3, engine=eng, placement=skew_placement()).run(_skew(eng))
        assert a.served == b.served
        assert len(a.rejected) == len(b.rejected)
        assert (a.p50_s, a.p99_s, a.goodput_rps) == (b.p50_s, b.p99_s, b.goodput_rps)
        assert a.served_per_node() == b.served_per_node()

    def test_jsq_beats_round_robin_under_skew(self, eng):
        """Load-aware routing sheds less of the skewed traffic."""
        stream = _skew(eng)
        reports = {
            router: Cluster(
                3,
                policy="hybrid",
                router=router,
                engine=eng,
                placement=skew_placement(),
            ).run(stream)
            for router in ("round-robin", "least-loaded")
        }
        assert (
            reports["least-loaded"].goodput_rps
            >= reports["round-robin"].goodput_rps - 1e-9
        )
        assert reports["least-loaded"].served >= reports["round-robin"].served

    def test_hybrid_fleet_beats_cpu_fleet(self, eng):
        stream = _skew(eng)
        reports = {
            policy: Cluster(
                3, policy=policy, engine=eng, placement=skew_placement()
            ).run(stream)
            for policy in ("cpu", "hybrid")
        }
        assert reports["hybrid"].goodput_rps >= reports["cpu"].goodput_rps - 1e-9

    def test_requests_only_served_by_replica_nodes(self, eng):
        stream = _skew(eng)
        rep = Cluster(3, engine=eng, placement=skew_placement()).run(stream)
        placement = skew_placement()
        for nid, node_report in enumerate(rep.node_reports):
            hosted = set(placement.models_on(nid))
            for c in node_report.completed:
                assert c.request.model in hosted

    def test_all_offered_accounted_for(self, eng):
        stream = _skew(eng)
        rep = Cluster(3, engine=eng, placement=skew_placement()).run(stream)
        assert rep.offered == len(stream)
        assert rep.served + len(rep.rejected) == len(stream)

    def test_empty_stream(self, eng):
        rep = Cluster(2, engine=eng, replication=2).run([])
        assert rep.served == 0 and rep.offered == 0
        assert math.isnan(rep.p50_s)
        assert rep.throughput_rps == 0.0 and rep.goodput_rps == 0.0

    def test_invalid_configs(self, eng):
        with pytest.raises(ValueError):
            Cluster(0, engine=eng)
        with pytest.raises(ValueError, match="unknown policy"):
            Cluster(1, policy="tpu", engine=eng)
        with pytest.raises(ValueError, match="unknown router"):
            Cluster(1, router="random", engine=eng)

    def test_two_replicas_split_uniform_load(self, eng):
        """JSQ over two identical replicas serves both nodes evenly."""
        placement = ModelPlacement(replicas={"BERT": [0, 1]}, used_bytes={})
        reqs = uniform_requests("BERT", rate_rps=100, duration_s=1.0)
        rep = Cluster(2, engine=eng, placement=placement).run(reqs)
        a, b = rep.served_per_node()
        assert a + b == len(reqs)
        assert abs(a - b) <= rep.node_reports[0].mean_batch * 2

    def test_report_percentile_validation(self, eng):
        rep = Cluster(1, engine=eng).run([])
        with pytest.raises(ValueError):
            rep.latency_percentile(0)
        with pytest.raises(ValueError):
            rep.latency_percentile(101)
        with pytest.raises(ValueError):
            rep.window_percentile(0, 0.0, 1.0)

    def test_window_percentile_edge_cases(self, eng):
        """Empty window, single-completion window, and all-rejected window
        on the fleet report (the helpers AutoscaleReport reuses)."""
        stream = _skew(eng)
        rep = Cluster(3, engine=eng, placement=skew_placement()).run(stream)
        # a window before any finish has no signal
        assert math.isnan(rep.window_percentile(99, -1.0, 0.0))
        # the full window reproduces the run-wide percentile
        assert rep.window_percentile(99, 0.0, rep.sim_end_s + 1.0) == rep.p99_s
        # a window holding exactly the earliest completion
        first = min(c.finish_s for c in rep.completed)
        only = [c.latency_s for c in rep.completed if c.finish_s == first]
        got = rep.window_percentile(99, first, first + 1e-12)
        assert got in only

    def test_all_rejected_window_is_nan(self, eng):
        """A fleet that sheds everything reports NaN, not a number."""
        floor = eng.min_latency("BERT", "pim")
        reqs = [Request(i, "BERT", 0.0, slo_s=floor / 10) for i in range(6)]
        placement = ModelPlacement(replicas={"BERT": [0, 1]}, used_bytes={})
        rep = Cluster(2, policy="pim", engine=eng, placement=placement).run(reqs)
        assert rep.served == 0 and len(rep.rejected) == 6
        assert math.isnan(rep.window_percentile(99, 0.0, 100.0))
        assert math.isnan(rep.p99_s)


class TestCapacityPlanner:
    def test_invalid_mix(self, eng):
        with pytest.raises(ValueError):
            CapacityPlanner({})
        with pytest.raises(ValueError):
            CapacityPlanner({"BERT": -1.0, "DLRM": 2.0}, engine=eng)
        with pytest.raises(KeyError, match="unknown to the engine"):
            CapacityPlanner({"LLAMA": 1.0}, engine=eng)

    def test_mix_normalized(self, eng):
        p = CapacityPlanner({"BERT": 3.0, "DLRM": 1.0}, engine=eng)
        assert p.mix == {"BERT": 0.75, "DLRM": 0.25}

    def test_stream_rate_and_determinism(self, eng):
        p = CapacityPlanner({"BERT": 0.9, "DLRM": 0.1}, engine=eng, n_requests=300)
        a = p.stream(300.0)
        b = p.stream(300.0)
        assert [r.req_id for r in a] == [r.req_id for r in b]
        assert 150 < len(a) < 600  # ~300 expected
        models = {r.model for r in a}
        assert models == {"BERT", "DLRM"}

    def test_min_nodes_monotone_probes(self, eng):
        p = CapacityPlanner(
            {"BERT": 0.9, "DLRM": 0.1},
            engine=eng,
            n_requests=150,
            window_slos=2.0,
            seed=5,
        )
        plan = p.min_nodes("hybrid", target_rps=300, p99_slo_s=1.0, max_nodes=16)
        assert plan.nodes >= 1
        # the found count is feasible and one fewer is not (when probed)
        assert any(n == plan.nodes and ok for n, ok, _ in plan.probes)
        below = [ok for n, ok, _ in plan.probes if n < plan.nodes]
        assert not any(below)

    def test_min_nodes_raises_when_impossible(self, eng):
        p = CapacityPlanner(
            {"XLM": 1.0}, engine=eng, n_requests=60, window_slos=1.0, seed=5
        )
        # XLM batch-1 cpu latency (~1.6 s) alone exceeds a 50 ms SLO.
        with pytest.raises(ValueError, match="miss the"):
            p.min_nodes("cpu", target_rps=20, p99_slo_s=0.05, max_nodes=2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), max_nodes=st.integers(1, 200))
    def test_frontier_finds_threshold_in_log_probes(self, data, max_nodes):
        """Both planners' search: the smallest feasible count of a
        monotone predicate (``None`` when there is none), in at most
        ``2 * ceil(log2(max_nodes)) + 1`` probes."""
        threshold = data.draw(st.one_of(st.none(), st.integers(1, max_nodes)))
        probes = []

        def feasible(n):
            probes.append(n)
            return threshold is not None and n >= threshold

        assert _frontier(feasible, max_nodes) == threshold
        assert all(1 <= n <= max_nodes for n in probes)
        assert len(probes) <= 2 * math.ceil(math.log2(max_nodes)) + 1

    def test_throughput_curve_shapes(self, eng):
        p = CapacityPlanner(
            {"BERT": 0.9, "DLRM": 0.1}, engine=eng, n_requests=200, seed=5
        )
        curve = p.throughput_curve([1, 2], "hybrid", offered_rps=600, slo_s=1.0)
        assert [n for n, _ in curve] == [1, 2]
        assert curve[1][1].goodput_rps >= curve[0][1].goodput_rps - 1e-9
