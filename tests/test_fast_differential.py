"""Differential harness pinning the fleet loop's drain to the oracle.

Every fleet run takes :func:`repro.sim.fast.drain`, which replays the
serving hot loop as batched struct-of-arrays epochs; this file is the
contract that makes that loop safe.  Every seeded scenario below runs
the *same* request stream twice — once through the heap-per-event
oracle loop (``tests/fleet_oracle.py``), once through the drain — and
asserts the two reports agree
request-for-request: same completions in the same order with the same
dispatch/finish instants, same rejections, same failure drops, same
``events_processed``, same ``sim_end_s``.  Anything weaker (aggregate
counts, percentile bands) would let reordering or tie-break bugs slip
through; exact equality is cheap because both paths are deterministic.

Scenarios are generated from small integer seeds so CI can throw fresh
ones at the harness on every push (``FAST_DIFF_SEEDS=a,b,c``, see the
``fast-differential`` job in ``.github/workflows/ci.yml``).  The
default matrix — seeds 0..4 across all four serving loops, plus the
router sweep — already exercises >20 distinct scenarios: every router,
SLO and no-SLO mixes, scripted outages, elastic scale events, and
hetero pool churn.

The analytic M/G/k model (``repro.sim.analytic``) is cross-checked at
the bottom: it is an *approximation*, so those tests assert tolerance
bands (the module docstring's "within roughly a factor of two below
rho ~0.85"), not equality.
"""

import math
import os
import random

import pytest

from repro.autoscale import (
    BaselineBurstPolicy,
    DiurnalTrace,
    ElasticCluster,
    HeteroElasticCluster,
    NodePool,
    mix_requests,
)
from repro.autoscale.policies import TargetUtilizationPolicy, node_capacity_rps
from repro.cluster import Cluster
from repro.serving import (
    GPU_NODE,
    STEPSTONE_NODE,
    OnlineServingEngine,
    poisson_requests,
)
from repro.sim import FailureTrace
from repro.sim import fast as fastmod
from repro.sim.analytic import AnalyticCapacityModel

from fleet_oracle import oracle_drain, oracle_run

ROUTERS = ("round-robin", "least-loaded", "affinity", "backend-affinity")
POLICIES = ("cpu", "pim", "hybrid")


def _seeds():
    """Default seed matrix, plus any fresh ones injected by CI."""
    seeds = [0, 1, 2, 3, 4]
    extra = os.environ.get("FAST_DIFF_SEEDS", "")
    for tok in extra.replace(",", " ").split():
        s = int(tok)
        if s not in seeds:
            seeds.append(s)
    return seeds


SEEDS = _seeds()


class Scenario:
    """One seeded random serving scenario, shared by all four loops.

    Everything the fast path could get wrong is a dimension here:
    router choice (four structurally different amortized routers), execution
    policy, per-model SLOs (including models with *no* SLO, which take
    the fallback admission path), scripted mid-run outages, and a
    diurnal arrival trace whose rate crosses node capacity so queues
    build and drain within the run.
    """

    def __init__(self, seed):
        rng = random.Random(f"fast-diff-{seed}")
        self.seed = seed
        self.router = ROUTERS[seed % len(ROUTERS)]
        self.policy = rng.choice(POLICIES)
        shares = rng.choice([(0.9, 0.1), (0.5, 0.5), (0.2, 0.8)])
        self.mix = {"BERT": shares[0], "DLRM": shares[1]}
        self.duration_s = rng.uniform(6.0, 10.0)
        trough = rng.uniform(100.0, 300.0)
        self.trace = DiurnalTrace(
            trough_rps=trough,
            peak_rps=trough * rng.uniform(1.5, 3.0),
            period_s=rng.uniform(3.0, 8.0),
        )
        # Some models get a tight SLO, some a loose one, some none at
        # all (None = best effort, a separate admission code path).
        self.slos = {
            m: rng.choice([None, 0.6, 1.0, 1.5]) for m in self.mix
        }
        if all(v is None for v in self.slos.values()):
            self.slos["BERT"] = 1.0
        # Zero, one, or two scripted outages inside the run window.
        self.outages = []
        for node in range(rng.randint(0, 2)):
            start = rng.uniform(0.5, self.duration_s * 0.6)
            self.outages.append(
                (node, start, start + rng.uniform(0.5, self.duration_s * 0.3))
            )

    def stream(self):
        return mix_requests(
            self.trace,
            self.mix,
            self.duration_s,
            seed=self.seed,
            slos=self.slos,
        )

    def failures(self):
        return FailureTrace.scripted(self.outages) if self.outages else None


@pytest.fixture(scope="module")
def engine():
    return OnlineServingEngine()


# --------------------------------------------------------------------------
# Exact comparators.  Identity keys include every user-visible field; a
# fast path that reorders ties or shifts a dispatch by one float ULP
# fails here, not in some downstream percentile.
# --------------------------------------------------------------------------


def req_key(r):
    return (r.req_id, r.model, r.arrival_s, r.slo_s)


def comp_key(c):
    return (req_key(c.request), c.dispatch_s, c.finish_s, c.batch)


def rej_key(r):
    return (req_key(r.request), r.rejected_at_s)


def fail_key(f):
    return (req_key(f.request), f.failed_at_s, f.node_id, f.reason)


def assert_reports_identical(slow, fast, label):
    assert slow.served == fast.served, (label, slow.served, fast.served)
    assert [comp_key(c) for c in slow.completed] == [
        comp_key(c) for c in fast.completed
    ], label
    assert [rej_key(r) for r in slow.rejected] == [
        rej_key(r) for r in fast.rejected
    ], label
    assert [fail_key(f) for f in slow.failed] == [
        fail_key(f) for f in fast.failed
    ], label
    assert slow.sim_end_s == fast.sim_end_s, label


def assert_cluster_identical(slow, fast):
    assert len(slow.node_reports) == len(fast.node_reports)
    for i, (ra, rb) in enumerate(zip(slow.node_reports, fast.node_reports)):
        assert_reports_identical(ra, rb, f"node{i}")
    assert [fail_key(f) for f in slow.dropped] == [
        fail_key(f) for f in fast.dropped
    ]
    assert slow.node_busy_s == fast.node_busy_s
    assert slow.sim_end_s == fast.sim_end_s
    assert slow.events_processed == fast.events_processed


def assert_elastic_identical(slow, fast):
    assert set(slow.node_reports) == set(fast.node_reports)
    for nid in slow.node_reports:
        assert_reports_identical(
            slow.node_reports[nid], fast.node_reports[nid], f"node{nid}"
        )
    assert slow.samples == fast.samples
    assert {
        k: (v.ordered_s, v.ready_s, v.drain_s, v.retired_s)
        for k, v in slow.lifetimes.items()
    } == {
        k: (v.ordered_s, v.ready_s, v.drain_s, v.retired_s)
        for k, v in fast.lifetimes.items()
    }
    assert slow.node_busy_s == fast.node_busy_s
    assert [fail_key(f) for f in slow.dropped] == [
        fail_key(f) for f in fast.dropped
    ]
    assert slow.events_processed == fast.events_processed
    assert slow.sim_end_s == fast.sim_end_s


def run_both(loop, scenario):
    """Run ``loop`` on the oracle, then on the drain, on the same
    scenario; each run must take its loop exactly once (the oracle
    counts its drains, the drain bumps FAST_RUNS)."""
    slow = oracle_run(loop)
    before = fastmod.FAST_RUNS
    fast = loop()
    assert fastmod.FAST_RUNS == before + 1, (
        "the run did not take the drain",
        scenario.seed,
        scenario.router,
    )
    return slow, fast


# --------------------------------------------------------------------------
# The four serving loops x the seed matrix.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_fast_matches_slow(engine, seed):
    sc = Scenario(seed)
    stream = sc.stream()
    slow, fast = run_both(
        lambda: engine.run(stream, sc.policy), sc
    )
    assert_reports_identical(slow, fast, f"engine-{seed}")
    assert slow.events_processed == fast.events_processed


@pytest.mark.parametrize("seed", SEEDS)
def test_cluster_fast_matches_slow(engine, seed):
    sc = Scenario(seed)
    stream = sc.stream()
    cl = Cluster(
        n_nodes=2 + seed % 3,
        engine=engine,
        policy=sc.policy,
        router=sc.router,
        replication=1 + seed % 2,
    )
    slow, fast = run_both(
        lambda: cl.run(stream, failures=sc.failures()), sc
    )
    assert_cluster_identical(slow, fast)


@pytest.mark.parametrize("seed", SEEDS)
def test_elastic_fast_matches_slow(engine, seed):
    sc = Scenario(seed)
    stream = sc.stream()
    el = ElasticCluster(
        engine=engine,
        policy=sc.policy,
        router=sc.router,
        models=sorted(sc.mix),
        initial_nodes=1 + seed % 3,
        max_nodes=6,
        control_interval_s=0.5,
    )
    pol = TargetUtilizationPolicy(
        capacity_rps=node_capacity_rps(engine, sc.mix, sc.policy),
        target=0.7,
    )
    slow, fast = run_both(
        lambda: el.run(stream, pol, failures=sc.failures()),
        sc,
    )
    assert_elastic_identical(slow, fast)


@pytest.mark.parametrize("seed", SEEDS)
def test_hetero_fast_matches_slow(engine, seed):
    sc = Scenario(seed)
    stream = sc.stream()
    hc = HeteroElasticCluster(
        pools={
            "stepstone": NodePool(
                STEPSTONE_NODE,
                min_nodes=1,
                max_nodes=5,
                initial_nodes=2 + seed % 2,
            ),
            "gpu": NodePool(GPU_NODE, min_nodes=0, max_nodes=2, initial_nodes=0),
        },
        engine=engine,
        policy=sc.policy,
        router=sc.router,
        models=sorted(sc.mix),
        control_interval_s=0.5,
    )
    pol = BaselineBurstPolicy(
        baseline="stepstone",
        burst="gpu",
        baseline_nodes=2,
        baseline_capacity_rps=node_capacity_rps(
            engine, sc.mix, sc.policy, spec=STEPSTONE_NODE
        ),
        burst_capacity_rps=node_capacity_rps(
            engine, sc.mix, sc.policy, spec=GPU_NODE
        ),
    )
    slow, fast = run_both(
        lambda: hc.run(stream, pol, failures=sc.failures()),
        sc,
    )
    assert_elastic_identical(slow, fast)
    assert slow.pool_timeline == fast.pool_timeline
    assert slow.node_pool == fast.node_pool


# --------------------------------------------------------------------------
# Streaming recording and presorted (lazily read) streams.  Streaming
# reports keep no per-request records, so the comparison is over every
# answer they give: counts, the run's percentiles over a q grid, window
# percentiles over every control window, each node's percentiles and
# means, the control samples and the timeline — all bitwise (floats by
# repr, so NaN answers compare too).  A sketch fed one value out of
# order, or a sum accumulated in another order, shows up here.
# --------------------------------------------------------------------------

QS = (1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100)


def _windows(rep):
    """Control windows of an elastic run, else a 1 s grid over the run."""
    ticks = [s.t for s in getattr(rep, "samples", [])]
    if not ticks:
        ticks = [float(i) for i in range(1, int(rep.sim_end_s) + 2)]
    return list(zip([0.0] + ticks[:-1], ticks))


def _node_view(rep, windows):
    """Everything one node report answers in either record mode."""
    return (
        rep.served,
        rep.rejected_count,
        rep.failed_count,
        rep.sim_end_s,
        [rep.latency_percentile(q) for q in QS],
        [rep.window_percentile(q, a, b) for a, b in windows for q in (50, 99)],
        rep.stats.mean_latency_s,
        rep.mean_queue_s,
        rep.mean_service_s,
        rep.mean_batch,
    )


def _fleet_view(rep):
    """Everything a fleet (or engine) report answers in either mode."""
    windows = _windows(rep)
    nodes = rep.node_reports
    if isinstance(nodes, dict):
        nodes = [nodes[nid] for nid in sorted(nodes)]
    view = [
        rep.served,
        rep.rejected_count,
        rep.failed_count,
        rep.dropped_count,
        rep.events_processed,
        rep.sim_end_s,
        rep.last_arrival_s,
        [rep.latency_percentile(q) for q in QS],
        [rep.window_percentile(q, a, b) for a, b in windows for q in (50, 99)],
        [_node_view(n, windows) for n in nodes],
    ]
    if hasattr(rep, "samples"):
        view += [rep.samples, rep.timeline_rows()]
    for name, rec in sorted(getattr(rep, "pool_stats", {}).items()):
        view.append(
            (
                name,
                rec.completed_count,
                [rec.percentile(q) for q in QS],
                [rec.window_percentile(99, a, b) for a, b in windows],
                rec.mean_queue_s,
                rec.mean_service_s,
                rec.mean_batch,
            )
        )
    return view


def assert_views_identical(slow, fast, label):
    assert repr(_fleet_view(slow)) == repr(_fleet_view(fast)), label


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_streaming_fast_matches_slow(engine, seed):
    sc = Scenario(seed)
    stream = sc.stream()
    slow, fast = run_both(
        lambda: engine.run(stream, sc.policy, record="streaming"),
        sc,
    )
    assert fast.record == "streaming"
    windows = _windows(slow)
    assert repr(_node_view(slow, windows)) == repr(_node_view(fast, windows))
    assert slow.events_processed == fast.events_processed


@pytest.mark.parametrize("seed", SEEDS)
def test_cluster_streaming_fast_matches_slow(engine, seed):
    sc = Scenario(seed)
    stream = sc.stream()
    cl = Cluster(
        n_nodes=2 + seed % 3,
        engine=engine,
        policy=sc.policy,
        router=sc.router,
        replication=1 + seed % 2,
        record="streaming",
        # Half the seeds auto-roll the window rings (one roll check per
        # recorded batch).
        window_s=0.5 if seed % 2 else None,
    )
    slow, fast = run_both(
        lambda: cl.run(stream, failures=sc.failures()), sc
    )
    assert fast.record == "streaming"
    assert_views_identical(slow, fast, f"cluster-streaming-{seed}")
    assert slow.node_busy_s == fast.node_busy_s


def _elastic_run(engine, sc, record, presorted):
    el = ElasticCluster(
        engine=engine,
        policy=sc.policy,
        router=sc.router,
        models=sorted(sc.mix),
        initial_nodes=1 + sc.seed % 3,
        max_nodes=6,
        control_interval_s=0.5,
        record=record,
    )
    pol = TargetUtilizationPolicy(
        capacity_rps=node_capacity_rps(engine, sc.mix, sc.policy),
        target=0.7,
    )
    stream = sc.stream()
    if presorted:
        # A fresh iterator per run: the loop must read it lazily.
        return lambda: el.run(
            iter(stream),
            pol,
            failures=sc.failures(),
            presorted=True,
            horizon_s=sc.duration_s,
        )
    return lambda: el.run(stream, pol, failures=sc.failures())


@pytest.mark.parametrize(
    "record, presorted",
    [("streaming", False), ("streaming", True), ("full", True)],
)
@pytest.mark.parametrize("seed", SEEDS)
def test_elastic_streaming_and_presorted_fast_matches_slow(
    engine, seed, record, presorted
):
    sc = Scenario(seed)
    slow, fast = run_both(_elastic_run(engine, sc, record, presorted), sc)
    assert fast.record == record
    assert_views_identical(slow, fast, f"elastic-{record}-{presorted}-{seed}")
    if record == "full":
        assert_elastic_identical(slow, fast)
    assert slow.node_busy_s == fast.node_busy_s


@pytest.mark.parametrize("seed", SEEDS)
def test_hetero_streaming_fast_matches_slow(engine, seed):
    """Two pools: node -> pool -> run, the three-level recorder chain."""
    sc = Scenario(seed)
    stream = sc.stream()
    hc = HeteroElasticCluster(
        pools={
            "stepstone": NodePool(
                STEPSTONE_NODE,
                min_nodes=1,
                max_nodes=5,
                initial_nodes=2 + seed % 2,
            ),
            "gpu": NodePool(GPU_NODE, min_nodes=0, max_nodes=2, initial_nodes=0),
        },
        engine=engine,
        policy=sc.policy,
        router=sc.router,
        models=sorted(sc.mix),
        control_interval_s=0.5,
        record="streaming",
    )
    pol = BaselineBurstPolicy(
        baseline="stepstone",
        burst="gpu",
        baseline_nodes=2,
        baseline_capacity_rps=node_capacity_rps(
            engine, sc.mix, sc.policy, spec=STEPSTONE_NODE
        ),
        burst_capacity_rps=node_capacity_rps(
            engine, sc.mix, sc.policy, spec=GPU_NODE
        ),
    )
    slow, fast = run_both(
        lambda: hc.run(stream, pol, failures=sc.failures()),
        sc,
    )
    assert fast.record == "streaming"
    assert set(fast.pool_stats) == {"stepstone", "gpu"}
    assert fast.pool_stats["stepstone"].parent is fast.stats
    assert_views_identical(slow, fast, f"hetero-streaming-{seed}")
    assert slow.pool_timeline == fast.pool_timeline
    assert slow.node_pool == fast.node_pool


@pytest.mark.parametrize(
    "bad, match", [("backward", "out of order"), ("nan", "finite")]
)
def test_bad_presorted_stream_raises_on_fast_path(engine, bad, match):
    """A presorted stream that steps back in time or carries a NaN
    arrival raises the kernel's ``ValueError`` on the oracle and the
    drain alike."""
    sc = Scenario(0)
    stream = sc.stream()
    assert len(stream) > 10
    if bad == "backward":
        # Swap two arrivals with distinct times mid-stream.
        i = next(
            i for i in range(len(stream) // 2, len(stream) - 1)
            if stream[i].arrival_s < stream[i + 1].arrival_s
        )
        stream[i], stream[i + 1] = stream[i + 1], stream[i]
    else:
        object.__setattr__(stream[len(stream) // 2], "arrival_s", math.nan)
    el = ElasticCluster(
        engine=engine, models=sorted(sc.mix), initial_nodes=1, max_nodes=2
    )
    pol = TargetUtilizationPolicy(
        capacity_rps=node_capacity_rps(engine, sc.mix, "hybrid"), target=0.7
    )
    def run():
        el.run(iter(stream), pol, presorted=True, horizon_s=sc.duration_s)

    with pytest.raises(ValueError, match=match):
        with oracle_drain() as calls:
            run()
    assert len(calls) == 1
    with pytest.raises(ValueError, match=match):
        run()


def test_every_router_covered_by_default_matrix():
    """Seeds 0..3 map onto the four routers, so even the minimal matrix
    exercises all four builtin routers; fresh CI seeds extend it."""
    covered = {Scenario(s).router for s in SEEDS}
    assert covered == set(ROUTERS)


# --------------------------------------------------------------------------
# Analytic cross-check: the M/G/k fluid model is an approximation, so
# these are tolerance bands, not equality.  The scenarios keep the
# equilibrium batch at 1 and utilization below ~0.85, the regime where
# the module docstring promises factor-of-two accuracy.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("rate_rps", [10.0, 20.0])
def test_analytic_tracks_single_node_des(engine, rate_rps):
    """M/G/1 regime: a single node at moderate load.  Analytic mean
    latency must land within 2x of the simulated mean; the p99 bound
    is one-sided — at least the simulated p99 (the planner relies on
    that conservatism) and no more than 4x it."""
    duration_s = 120.0
    stream = poisson_requests("BERT", rate_rps, duration_s, seed=11)
    rep = engine.run(stream, "hybrid")
    assert rep.rejected_count == 0

    model = AnalyticCapacityModel(engine, {"BERT": 1.0}, "hybrid")
    est = model.estimate(1, rate_rps)
    assert not est.clamped
    assert est.rho < 0.85

    des_mean = sum(rep.latencies_s) / len(rep.latencies_s)
    assert est.mean_latency_s <= 2.0 * des_mean
    assert est.mean_latency_s >= 0.5 * des_mean
    assert rep.p99_s <= est.p99_s <= 4.0 * rep.p99_s


def test_analytic_tracks_cluster_des(engine):
    """M/G/k regime: k nodes behind a least-loaded router approximate
    the shared-queue M/G/k the analytic model assumes."""
    k, rate_rps, duration_s = 3, 120.0, 90.0
    stream = poisson_requests("BERT", rate_rps, duration_s, seed=13)
    cl = Cluster(
        n_nodes=k,
        engine=engine,
        policy="hybrid",
        router="least-loaded",
        replication=k,
    )
    rep = cl.run(stream)

    model = AnalyticCapacityModel(engine, {"BERT": 1.0}, "hybrid")
    est = model.estimate(k, rate_rps)
    assert not est.clamped
    assert est.rho < 0.85

    lats = [lat for nr in rep.node_reports for lat in nr.latencies_s]
    des_mean = sum(lats) / len(lats)
    assert est.mean_latency_s <= 2.0 * des_mean
    assert est.mean_latency_s >= 0.5 * des_mean
    des_p99 = sorted(lats)[max(0, math.ceil(0.99 * len(lats)) - 1)]
    assert des_p99 <= est.p99_s <= 4.0 * des_p99


def test_fast_path_does_not_perturb_goldens():
    """The golden traces were produced by the event-at-a-time loop; the
    drain must leave them untouched.  tests/test_golden_traces.py pins
    the bytes — here we just confirm drained runs never mutate the
    shared engine caches in a way a subsequent oracle run would
    observe."""
    eng = OnlineServingEngine()
    stream = poisson_requests("BERT", 150.0, 2.0, seed=3)
    before = oracle_run(eng.run, stream, "hybrid")
    eng.run(stream, "hybrid")
    after = oracle_run(eng.run, stream, "hybrid")
    assert_reports_identical(before, after, "golden-stability")
