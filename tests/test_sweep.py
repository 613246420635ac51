"""Tests for the multiprocess sweep runner (``repro.sim.sweep``): results
must be a pure function of (fn, configs) — identical to serial execution
for any worker count — and unpicklable inputs must fail fast."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import Request
from repro.sim import SweepResult, run_sweep
from repro.sim.sweep import default_workers


def _square(cfg):
    return cfg * cfg


def _seeded_run(cfg):
    """A tiny seeded simulation: one engine run keyed off the config."""
    from repro.serving import OnlineServingEngine, poisson_requests

    eng = OnlineServingEngine()
    rep = eng.run(
        poisson_requests("BERT", rate_rps=cfg["rate"], duration_s=0.5,
                         seed=cfg["seed"]),
        policy="hybrid",
    )
    return (rep.served, round(rep.p99_s, 9), round(rep.throughput_rps, 6))


def _planner_probe(cfg):
    """One CapacityPlanner sizing probe — the sweep's intended workload."""
    from repro.cluster import CapacityPlanner

    planner = CapacityPlanner(
        {"BERT": 0.9, "DLRM": 0.1}, n_requests=60, seed=cfg["seed"]
    )
    plan = planner.min_nodes(
        "hybrid", target_rps=cfg["rate"], p99_slo_s=1.0, max_nodes=8
    )
    return (plan.nodes, len(plan.probes))


def _serve_requests(cfg):
    """Serve a config's own ``Request`` list; return every outcome record
    (requests included, so they cross the process boundary both ways)."""
    from repro.serving import OnlineServingEngine

    rep = OnlineServingEngine(max_batch=cfg["max_batch"]).run(cfg["requests"], "hybrid")
    served = [(c.request, c.dispatch_s, c.finish_s, c.batch) for c in rep.completed]
    return served, [(x.request, x.rejected_at_s) for x in rep.rejected], rep.sim_end_s


_request_lists = st.lists(
    st.tuples(
        st.sampled_from(["BERT", "DLRM"]),
        st.floats(0.0, 0.05),
        st.sampled_from([None, 0.01, 0.05, 1.0]),
    ),
    max_size=24,
).map(lambda rows: [Request(i, m, t, slo) for i, (m, t, slo) in enumerate(rows)])


CONFIGS = [{"rate": 150.0 + 50.0 * i, "seed": i} for i in range(4)]


class TestRunSweep:
    def test_serial_matches_plain_loop(self):
        out = run_sweep(_square, [1, 2, 3], workers=1)
        assert out.results == [1, 4, 9]
        assert out.workers == 1

    def test_parallel_identical_to_serial(self):
        serial = run_sweep(_seeded_run, CONFIGS, workers=1)
        pooled = run_sweep(_seeded_run, CONFIGS, workers=2)
        assert pooled.results == serial.results
        assert pooled.workers == 2

    @settings(max_examples=8, deadline=None)
    @given(
        lists=st.lists(_request_lists, min_size=2, max_size=3),
        max_batch=st.integers(1, 8),
    )
    def test_request_configs_independent_of_worker_count(self, lists, max_batch):
        """Configs that carry ``Request`` lists pickle to the workers and
        back: one worker and two give the same records."""
        configs = [{"requests": reqs, "max_batch": max_batch} for reqs in lists]
        serial = run_sweep(_serve_requests, configs, workers=1)
        pooled = run_sweep(_serve_requests, configs, workers=2)
        assert pooled.workers == 2
        assert pooled.results == serial.results

    def test_worker_count_independence(self):
        """The determinism contract: any worker count, same answer."""
        outs = [run_sweep(_square, list(range(16)), workers=w).results
                for w in (1, 2, 3, 5)]
        assert all(o == outs[0] for o in outs)

    def test_planner_probe_grid(self):
        """A capacity-plan probe ladder fans out with identical results."""
        serial = run_sweep(_planner_probe, CONFIGS, workers=1)
        pooled = run_sweep(_planner_probe, CONFIGS, workers=3)
        assert pooled.results == serial.results
        nodes = [n for n, _ in pooled.results]
        assert nodes == sorted(nodes)  # higher load never needs fewer nodes

    def test_workers_clamped_to_config_count(self):
        out = run_sweep(_square, [7], workers=8)
        assert out.workers == 1  # one config runs serially

    def test_unpicklable_fn_fails_fast(self):
        with pytest.raises(TypeError, match="not picklable"):
            run_sweep(lambda c: c, [1, 2], workers=2)

    def test_unpicklable_config_fails_fast(self):
        with pytest.raises(TypeError, match="config #1"):
            run_sweep(_square, [1, lambda: None], workers=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(_square, [1, 2], workers=0)
        with pytest.raises(ValueError):
            run_sweep(_square, [1, 2], workers=2, chunksize=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestSweepResult:
    def test_len_and_pair_iteration(self):
        out = run_sweep(_square, [2, 3], workers=1)
        assert len(out) == 2
        assert list(out) == [(2, 4), (3, 9)]

    def test_is_frozen(self):
        out = SweepResult(results=[1], configs=[1])
        with pytest.raises(AttributeError):
            out.results = []
