"""Observability: span accounting ties out exactly, profiling explains cost.

Tracing that *approximately* matches the reports it shadows is worse than
no tracing — every disagreement becomes a debugging session about the
debugger.  This experiment holds ``repro.obs`` to the exact standard:

* **genai-trace** — a generative continuous-batching run under KV
  pressure, traced end to end: the engine-level phase spans
  (``prefill-pass`` + ``decode-step``) sum to ``GenReport.busy_s`` with
  ``==`` (the recorder accumulates the *same floats* in the *same
  order*), per-sequence span counts equal the report's served/rejected
  counts, the Chrome ``trace_event`` export validates against the
  schema, and the traced report is identical to an untraced one (tracing
  observes, never perturbs).
* **serving-tie** — the single-node engine: summed ``serve``/``queued``
  span durations equal the report's summed service/queue seconds
  bit-for-bit.
* **cluster-tie** — a failure-free fleet: each node's ``batch`` spans
  sum to that node's ``busy_s`` exactly (per-node emission order matches
  per-node accumulation order; cross-node sums are *not* compared —
  float addition is not associative).
* **profile** — the kernel self-profile on a chaos run (all six event
  kinds live): per-:class:`~repro.sim.kernel.EventKind` counts and
  handler wall-shares, handler-time share of total run wall — the
  measurement behind ROADMAP's "per-event Python churn" claim — and the
  heap-vs-stream delivery split.
* **telemetry** — the :class:`~repro.obs.Telemetry` counters the run
  loops publish agree with the reports they summarize.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.experiments.common import ExperimentResult
from repro.genai import ContinuousBatcher, GenerativeEngine, gen_requests
from repro.obs import RunObserver
from repro.obs.trace import validate_chrome_trace
from repro.serving import OnlineServingEngine
from repro.serving.engine import poisson_requests
from repro.sim import FailureTrace

__all__ = ["run"]

SEED = 7


def run(fast: bool = False, obs: RunObserver = None) -> ExperimentResult:
    """Run the observability experiment.

    Args:
        fast: Shrink traces for smoke runs.
        obs: An externally built observer to trace the headline genai
            section into (the CLI passes one to export ``--trace-out``
            / print ``--profile``); one is built internally when omitted.
    """
    res = ExperimentResult(
        experiment_id="serve-observe",
        title="Span tracing ties out exactly; the kernel profiles itself",
        paper_reference="infrastructure (no paper figure): repro.obs",
        timing_columns=("handler_ms", "share_pct"),
    )

    # -------------------------------------------------------------- #
    # 1. Generative trace: exact busy tie-out + Chrome export
    # -------------------------------------------------------------- #
    if obs is None:
        obs = RunObserver.full(cap=200_000)
    if obs.telemetry is not None:
        obs.telemetry.enable()
    duration = 40.0 if fast else 120.0
    reqs = gen_requests(
        rate_rps=0.8,
        duration_s=duration,
        prompt_range=(16, 48),
        output_range=(8, 64),
        seed=SEED,
    )
    shared = OnlineServingEngine()

    def mk() -> GenerativeEngine:
        # A tight KV budget so preemption spans appear in the trace.
        return GenerativeEngine(
            engine=shared,
            scheduler=ContinuousBatcher(),
            max_batch=4,
            kv_capacity_tokens=700,
        )
    prof_before = obs.profile.events if obs.profile is not None else 0
    rep = mk().run(reqs, obs=obs)
    plain = mk().run(reqs)
    sp = obs.spans
    engine_busy = sp.total_s("prefill-pass") + sp.total_s("decode-step")
    for phase in sp.phases():
        res.add(
            section="genai-trace",
            phase=phase,
            count=sp.count(phase),
            total_s=sp.total_s(phase),
        )
    res.check(
        "engine phase spans sum to GenReport.busy_s with == (not approx)",
        sp.total_s("prefill-pass") == rep.busy_prefill_s
        and sp.total_s("decode-step") == rep.busy_decode_s
        and engine_busy == rep.busy_s,
    )
    res.check(
        "span counts == report counts (sequence/served, rejected, preempted)",
        sp.count("sequence") == rep.served
        and sp.count("rejected") == rep.rejected_count
        and sp.count("preempted") == rep.preemptions,
    )
    res.check(
        "tracing observes, never perturbs: traced report == untraced report",
        (rep.served, rep.tokens_out, rep.sim_end_s, rep.busy_s, rep.events_processed)
        == (
            plain.served,
            plain.tokens_out,
            plain.sim_end_s,
            plain.busy_s,
            plain.events_processed,
        ),
    )
    n_events = validate_chrome_trace(sp.chrome_trace())
    res.check(
        "Chrome trace_event export validates (ph/ts/dur/pid/tid, monotonic ts)",
        n_events == len(sp.spans) and n_events > 0,
    )
    if obs.profile is not None:
        res.check(
            "the profiler accounted every kernel event of the traced run",
            obs.profile.events - prof_before == rep.events_processed,
        )
    res.note(
        f"genai trace: {sp.n_emitted} spans ({rep.served} seqs, "
        f"{rep.preemptions} preemptions), engine busy {engine_busy:.3f}s "
        f"== report.busy_s exactly; {n_events} Chrome events validate"
    )
    for line in sp.waterfall(n=5).splitlines():
        res.note(line)

    # -------------------------------------------------------------- #
    # 2. Single-node serving: service/queue seconds tie bit-for-bit
    # -------------------------------------------------------------- #
    serve_obs = RunObserver.tracing(cap=200_000)
    engine = OnlineServingEngine()
    stream = poisson_requests(
        "BERT",
        rate_rps=150.0,
        duration_s=2.0 if fast else 6.0,
        seed=SEED,
        slo_s=engine.min_latency("BERT", "cpu") * 20.0,
    )
    srep = engine.run(stream, "hybrid", obs=serve_obs)
    ssp = serve_obs.spans
    serve_sum = sum(c.service_s for c in srep.completed)
    queue_sum = sum(c.queue_s for c in srep.completed)
    res.add(
        section="serving-tie",
        served=srep.served,
        serve_span_s=ssp.total_s("serve"),
        report_service_s=serve_sum,
        queued_span_s=ssp.total_s("queued"),
        report_queue_s=queue_sum,
    )
    res.check(
        "serve spans == summed service_s and queued spans == summed queue_s (==)",
        ssp.total_s("serve") == serve_sum and ssp.total_s("queued") == queue_sum,
    )
    res.check(
        "span count == completed + rejected (every request left a span)",
        ssp.count("serve") == srep.served
        and ssp.count("rejected") == srep.rejected_count,
    )

    # -------------------------------------------------------------- #
    # 3. Cluster: per-node batch spans reproduce per-node busy_s
    # -------------------------------------------------------------- #
    cl_obs = RunObserver.tracing(cap=200_000)
    cluster = Cluster(n_nodes=3, replication=3)
    cstream = poisson_requests(
        "BERT", rate_rps=300.0, duration_s=2.0 if fast else 5.0, seed=SEED + 1
    )
    crep = cluster.run(cstream, obs=cl_obs)
    per_node_ok = True
    for node in cluster.nodes:
        batch_sum = sum(
            s.dur_s
            for s in cl_obs.spans.spans
            if s.phase == "batch" and s.node == node.node_id
        )
        res.add(
            section="cluster-tie",
            node=node.node_id,
            batch_span_s=batch_sum,
            node_busy_s=node.busy_s,
        )
        per_node_ok = per_node_ok and batch_sum == node.busy_s
    res.check(
        "per-node batch spans == per-node busy_s with == (failure-free fleet)",
        per_node_ok and crep.served > 0,
    )

    # -------------------------------------------------------------- #
    # 4. Kernel self-profile on a chaos run (all event kinds live)
    # -------------------------------------------------------------- #
    prof_obs = RunObserver.profiling()
    horizon = 20.0 if fast else 60.0
    chaos = Cluster(n_nodes=4, replication=4)
    chaos_stream = poisson_requests(
        "BERT", rate_rps=200.0, duration_s=horizon, seed=SEED + 2
    )
    chaos_failures = FailureTrace.poisson(
        n_nodes=4, mtbf_s=horizon / 3.0, mttr_s=2.0, horizon_s=horizon, seed=SEED
    )
    chaos_rep = chaos.run(chaos_stream, failures=chaos_failures, obs=prof_obs)
    profile = prof_obs.profile.profile()
    for row in profile.rows():
        res.add(section="profile", **row)
    res.check(
        "the profile accounts every kernel event exactly",
        profile.events == chaos_rep.events_processed,
    )
    res.check(
        "chaos run exercises failure kinds (FAIL/RECOVER counted)",
        profile.counts.get("FAIL", 0) > 0 and profile.counts.get("RECOVER", 0) > 0,
    )
    res.note(
        f"kernel profile: {profile.events} events at "
        f"{profile.events_per_s:,.0f} events/s; handler share "
        f"{profile.handler_share * 100:.1f}% of run wall (ROADMAP's "
        f"'per-event Python churn' claim, measured), "
        f"{profile.stream_share * 100:.1f}% stream-delivered"
    )

    # -------------------------------------------------------------- #
    # 5. Telemetry counters agree with the reports
    # -------------------------------------------------------------- #
    if obs.telemetry is not None:
        bus = obs.telemetry
        res.add(
            section="telemetry",
            served=bus.counter("served", scope="genai"),
            rejected=bus.counter("rejected", scope="genai"),
            tokens=bus.counter("tokens", scope="genai"),
        )
        res.check(
            "telemetry counters == report aggregates",
            bus.counter("served", scope="genai") == float(rep.served)
            and bus.counter("tokens", scope="genai") == float(rep.tokens_out),
        )

    res.chart = {
        "kind": "phases",
        "rows": [r for r in res.rows if r["section"] == "genai-trace"],
        "phase_key": "phase",
        "count_key": "count",
        "total_key": "total_s",
    }
    return res
