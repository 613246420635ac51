"""The three benchmark workloads: seeded inputs, one timed run, output checks.

Each workload is a class whose constructor is the set-up (input
generation, construction and any declared warm-up), whose ``run()`` is
the timed call into the public API, whose ``read()`` pulls the report's
headline statistics (also timed) and whose ``check()`` validates the
outputs afterwards.  Inputs come from this module's own seeded generators,
so the library under test receives only the generated requests.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
from array import array
from itertools import repeat
from typing import Dict, List

from repro.autoscale import ElasticCluster, TargetUtilizationPolicy, node_capacity_rps
from repro.cluster import Cluster, ClusterNode
from repro.genai import ContinuousBatcher, GenerativeEngine, GenRequest
from repro.serving import OnlineServingEngine, Request

#: Seed whose first instance has its simulated statistics pinned in
#: :data:`FINGERPRINTS`.
DEFAULT_SEED = 0

# Relative slack for comparing a served latency with its SLO: the finish
# time is ``dispatch + service`` in floating point.
_SLO_RTOL = 1e-12


def fingerprint(stats: Dict) -> str:
    """Short digest of a run's simulated statistics (floats by repr)."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def uniform_arrivals(rng: random.Random, n: int, duration_s: float) -> List[float]:
    """``n`` arrival instants of a Poisson stream conditioned on its count."""
    return sorted(rng.uniform(0.0, duration_s) for _ in range(n))


def stratified(rng: random.Random, lo: int, hi: int, n: int) -> List[int]:
    """``n`` seeded integers spread evenly over ``[lo, hi]``, shuffled:
    one uniform draw from each of ``n`` equal strata."""
    out = [lo + int((hi - lo + 1) * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(out)
    return out


def diurnal_arrivals(
    rng: random.Random, trough_rps: float, peak_rps: float, horizon_s: float
) -> List[float]:
    """One raised-cosine day/night swing over ``[0, horizon_s)`` (trough at
    both ends), by thinning a Poisson stream at the peak rate."""
    out = []
    t = rng.expovariate(peak_rps)
    while t < horizon_s:
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / horizon_s))
        if rng.random() * peak_rps < trough_rps + (peak_rps - trough_rps) * swing:
            out.append(t)
        t += rng.expovariate(peak_rps)
    return out


def model_mix(arrivals: Dict[str, List[float]], slos: Dict[str, float]) -> List[Request]:
    """Merge per-model arrival lists into one time-ordered request list."""
    tagged = sorted((t, m) for m, ts in arrivals.items() for t in ts)
    return [Request(i, m, t, slos[m]) for i, (t, m) in enumerate(tagged)]


class FleetCold:
    """Cold 4-node StepStone fleet on the serve-cluster skewed mix plus GPT2
    (fast path).

    First-touch GEMM pricing at small activation widths: every new
    (model, batch) pair the fleet dispatches is priced by the timing model.
    The traffic is the serve-cluster experiment's canonical skewed stream
    (its ``SKEW_RPS`` rates and ``SLO_X_CPU_BATCH1`` SLO rule), with GPT2
    added as a fourth model on a fourth node.
    """

    root = "cluster.run"
    #: Offered req/s per model: serve-cluster's ``SKEW_RPS``.
    SKEW_RPS = {"BERT": 450.0, "XLM": 18.0, "DLRM": 100.0}
    #: The added model and the serve-cluster model whose load it copies:
    #: GPT2 offers as many batch-1 CPU seconds per second as XLM does.
    ADDED = ("GPT2", "XLM")
    #: serve-cluster's SLO rule: 4x the batch-1 CPU latency, except DLRM,
    #: which gets an absolute 0.5 s.
    SLO_X_CPU_BATCH1 = 4.0
    ABSOLUTE_SLOS = {"DLRM": 0.5}
    #: serve-cluster's skew window in its ``--fast`` mode.
    DURATION_S = 1.2

    def __init__(self, seed: str) -> None:
        rng = random.Random(seed)
        added, like = self.ADDED
        # Batch-1 CPU latencies priced on a separate engine, so the fleet's
        # own memo stays cold.
        probe = OnlineServingEngine()
        cpu_b1 = {m: probe.min_latency(m, "cpu") for m in (*self.SKEW_RPS, added)}
        rps = dict(self.SKEW_RPS)
        rps[added] = rps[like] * cpu_b1[like] / cpu_b1[added]
        slos = {m: self.ABSOLUTE_SLOS.get(m, self.SLO_X_CPU_BATCH1 * cpu_b1[m]) for m in rps}
        # Each model's count is fixed at rate x window, so every seed
        # offers the same load; only the arrival instants vary.
        self.requests = model_mix(
            {
                m: uniform_arrivals(rng, round(r * self.DURATION_S), self.DURATION_S)
                for m, r in sorted(rps.items())
            },
            slos,
        )
        self.cluster = Cluster(
            4,
            policy="hybrid",
            router="least-loaded",
            replication=2,
            record="full",
        )

    def run(self):
        return self.cluster.run(self.requests, fast=True)

    def read(self, rep) -> Dict:
        return {
            "served": rep.served,
            "rejected": rep.rejected_count,
            "failed": rep.failed_count - rep.dropped_count,
            "dropped": rep.dropped_count,
            "p50_s": rep.p50_s,
            "p99_s": rep.p99_s,
            "events_processed": rep.events_processed,
            "sim_end_s": rep.sim_end_s,
        }

    def work(self, stats: Dict) -> int:
        return len(self.requests)

    def check(self, rep, stats: Dict) -> List[str]:
        bad = _conservation(len(self.requests), stats)
        late = [
            c.request.req_id
            for c in rep.completed
            if c.latency_s > c.request.slo_s * (1 + _SLO_RTOL)
        ]
        if late:
            bad.append(f"{len(late)} served requests missed their SLO, e.g. {late[:3]}")
        return bad


class GenaiCold:
    """Cold GPT2-XL generative engine under a tight KV budget (fast path).

    The same pricing layer at large prefill widths, plus the generative
    loop, the KV budget and run-length inter-token ingestion.  Arrivals,
    scheduler and slot count are serve-genai's mixed stream; the lengths
    are widened to reach large prefill widths.
    """

    root = "genai.run"
    #: serve-genai's mixed stream: 0.6 req/s, continuous batching, 8 slots.
    RATE_RPS = 0.6
    MAX_BATCH = 8
    #: Sequences per run; the window is the time they take to arrive at
    #: ``RATE_RPS``, so every seed offers the same load.
    N_REQUESTS = 16
    PROMPTS = (16, 512)
    PROMPT_QUANTUM = 16
    OUTPUTS = (8, 256)
    #: serve-genai's KV-pressure section gives 200 tokens to sequences of
    #: 64: room for 3.125 of the longest sequence.  The same share of the
    #: longest sequence here (512 + 256 tokens) forces preemptions.
    KV_CAPACITY_TOKENS = round(200 / 64 * (PROMPTS[1] + OUTPUTS[1]))

    def __init__(self, seed: str) -> None:
        rng = random.Random(seed)
        q = self.PROMPT_QUANTUM
        prompts = stratified(rng, self.PROMPTS[0] // q, self.PROMPTS[1] // q, self.N_REQUESTS)
        outputs = stratified(rng, *self.OUTPUTS, self.N_REQUESTS)
        window_s = self.N_REQUESTS / self.RATE_RPS
        self.requests = [
            GenRequest(i, t, q * p, o)
            for i, (t, p, o) in enumerate(
                zip(uniform_arrivals(rng, self.N_REQUESTS, window_s), prompts, outputs)
            )
        ]
        self.engine = GenerativeEngine(
            scheduler=ContinuousBatcher(),
            policy="hybrid",
            max_batch=self.MAX_BATCH,
            engine=OnlineServingEngine(),
            kv_capacity_tokens=self.KV_CAPACITY_TOKENS,
        )

    def run(self):
        return self.engine.run(self.requests, record="full", fast=True)

    def read(self, rep) -> Dict:
        return {
            "served": rep.served,
            "rejected": rep.rejected_count,
            "failed": 0,
            "dropped": 0,
            "tokens_out": rep.tokens_out,
            "preemptions": rep.preemptions,
            "ttft_p50_s": rep.ttft_percentile(50),
            "ttft_p99_s": rep.ttft_percentile(99),
            "mean_itl_s": rep.mean_itl_s,
            "kv_high_water_tokens": rep.kv_high_water_tokens,
            "events_processed": rep.events_processed,
            "sim_end_s": rep.sim_end_s,
        }

    def work(self, stats: Dict) -> int:
        return stats["tokens_out"]

    def check(self, rep, stats: Dict) -> List[str]:
        bad = _conservation(len(self.requests), stats)
        want = sum(c.request.max_new_tokens for c in rep.completions)
        if stats["tokens_out"] != want:
            bad.append(f"tokens_out {stats['tokens_out']} != sum of max_new_tokens {want}")
        if stats["kv_high_water_tokens"] > rep.kv_capacity_tokens:
            bad.append(
                f"KV high-water {stats['kv_high_water_tokens']} exceeds "
                f"capacity {rep.kv_capacity_tokens}"
            )
        return bad


class FleetDay:
    """A diurnal slice served lazily by the elastic scale fleet (streaming).

    All pricing is warmed in set-up through the nodes' own spec, so the
    timed window exercises the streaming metrics stack and the event loop.
    """

    root = "autoscale.run"
    #: serve-scale's day: its mix, SLO, ``scale_trace`` rates and
    #: ``make_scale_cluster`` fleet, with one swing compressed into
    #: ``HORIZON_S``.
    MIX = {"BERT": 0.9, "DLRM": 0.1}
    SLO_S = 1.0
    TROUGH_RPS, PEAK_RPS = 40.0, 192.0
    HORIZON_S = 420.0

    def __init__(self, seed: str) -> None:
        rng = random.Random(seed)
        # Arrivals are kept compact (times plus model indices) and turned
        # into requests lazily in run(), so peak RSS reflects the library's
        # streaming path rather than a prebuilt request list.
        self.models = sorted(self.MIX)
        streams = [
            array(
                "d",
                diurnal_arrivals(
                    rng, self.TROUGH_RPS * self.MIX[m], self.PEAK_RPS * self.MIX[m], self.HORIZON_S
                ),
            )
            for m in self.models
        ]
        self.times, self.model_ids = array("d"), array("b")
        for t, k in heapq.merge(*(zip(ts, repeat(k)) for k, ts in enumerate(streams))):
            self.times.append(t)
            self.model_ids.append(k)
        engine = OnlineServingEngine()
        self.cluster = ElasticCluster(
            engine=engine,
            policy="hybrid",
            models=self.models,
            initial_nodes=1,
            min_nodes=1,
            max_nodes=12,
            control_interval_s=5.0,
            record="streaming",
        )
        # Warm-up: price every batch a node can dispatch, keyed exactly as
        # the fleet's nodes will key it (their spec and effective policy).
        probe = ClusterNode(0, engine, self.cluster.policy, models=set(self.MIX))
        for model in self.MIX:
            for b in range(1, probe.max_batch + 1):
                engine.batch_latency(model, probe.policy, b, spec=probe.spec)
        self.policy = TargetUtilizationPolicy(
            node_capacity_rps(engine, self.MIX, "hybrid"), target=0.7
        )

    def requests(self):
        """The arrivals as a lazy, time-ordered request stream."""
        models, slo = self.models, self.SLO_S
        for i, (t, k) in enumerate(zip(self.times, self.model_ids)):
            yield Request(i, models[k], t, slo)

    def run(self):
        return self.cluster.run(
            self.requests(),
            self.policy,
            presorted=True,
            horizon_s=self.HORIZON_S,
            fast=True,
        )

    def read(self, rep) -> Dict:
        return {
            "served": rep.served,
            "rejected": rep.rejected_count,
            "failed": rep.failed_count - rep.dropped_count,
            "dropped": rep.dropped_count,
            "p50_s": rep.latency_percentile(50),
            "p99_s": rep.latency_percentile(99),
            "peak_nodes": rep.peak_fleet_size,
            "events_processed": rep.events_processed,
            "sim_end_s": rep.sim_end_s,
        }

    def work(self, stats: Dict) -> int:
        return len(self.times)

    def check(self, rep, stats: Dict) -> List[str]:
        return _conservation(len(self.times), stats)


def _conservation(offered: int, stats: Dict) -> List[str]:
    total = stats["served"] + stats["rejected"] + stats["failed"] + stats["dropped"]
    if total != offered:
        return [f"conservation: offered {offered} != served+rejected+failed+dropped {total}"]
    return []


WORKLOADS = {"fleet-cold": FleetCold, "genai-cold": GenaiCold, "fleet-day": FleetDay}

#: :func:`fingerprint` of each workload's statistics at :data:`DEFAULT_SEED`.
#: A change that only makes the simulator faster leaves these bit-identical.
FINGERPRINTS = {
    "fleet-cold": "90d851980be6e921",
    "genai-cold": "641fe08f64b36707",
    "fleet-day": "675bb9c638437095",
}
