"""Flat-memory fleet serving at datacenter scale.

The elastic-fleet experiments so far materialize every request and every
completion record in memory — fine for the seconds-long traces the other
``serve-*`` experiments replay, hopeless for the day-long, ~10M-request
traces real datacenter provisioning studies need (§I: inference queries
at internet-service scale).  This experiment proves the streaming
metrics refactor end to end:

* **Exactness cross-check** — the same diurnal prefix served three
  ways: eager ``record="full"`` (per-request records, the pre-refactor
  behavior), eager ``record="streaming"`` (P² sketches + windowed
  sub-sketches), and lazy ``record="streaming"`` with generator
  arrivals.  All three must agree on every count and every control
  decision; streaming percentiles must sit within the documented sketch
  tolerance of the exact ranks.
* **Memory contract** — a streaming report holds *no* per-request list:
  accessing ``latencies_s`` raises :class:`RecordingModeError` instead
  of silently re-materializing, while counts and percentiles keep
  working.
* **The scale run** — a full 24-hour diurnal day (~10M requests at a
  ~116 req/s mean; a 5-minute slice in fast mode) served lazily with
  streaming stats: arrivals are generated one at a time, completions
  fold into O(1) sketches, and the run completes with bounded memory no
  matter the trace length.

Everything is seeded: same seed, same traces, same report.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.autoscale import (
    AutoscaleReport,
    DiurnalTrace,
    ElasticCluster,
    TargetUtilizationPolicy,
    mix_request_stream,
    mix_requests,
    node_capacity_rps,
)
from repro.experiments.common import ExperimentResult
from repro.serving.engine import OnlineServingEngine
from repro.sim import RecordingModeError

__all__ = [
    "run",
    "MIX",
    "SLO_S",
    "DISPATCH",
    "DAY_S",
    "scale_trace",
    "make_scale_cluster",
    "run_streaming_day",
]

SEED = 42
#: Traffic mix every scenario serves (the serve-cluster planner mix).
MIX: Dict[str, float] = {"BERT": 0.9, "DLRM": 0.1}
#: Fleet-wide p99 latency SLO (seconds).
SLO_S = 1.0
#: Per-node dispatch policy (the paper's concurrent CPU+PIM split).
DISPATCH = "hybrid"
#: One simulated day — the scale run's horizon (~10M requests).
DAY_S = 86_400.0
#: Control tick spacing for day-long runs (coarser than the seconds-long
#: experiments so a day is ~17k ticks, not ~173k).
CONTROL_INTERVAL_S = 5.0
#: Relative tolerance for sketch percentiles against exact ranks (the
#: measured P² error on these latency distributions is well under this).
SKETCH_RTOL = 0.05


def scale_trace(period_s: float = DAY_S) -> DiurnalTrace:
    """The day/night swing sized so one :data:`DAY_S` period carries
    ~10M requests (mean (40+192)/2 = 116 req/s)."""
    return DiurnalTrace(trough_rps=40.0, peak_rps=192.0, period_s=period_s)


def make_scale_cluster(
    engine: OnlineServingEngine,
    record: str = "streaming",
    control_interval_s: float = CONTROL_INTERVAL_S,
) -> ElasticCluster:
    """The canonical scale fleet (shared with tests/benchmarks)."""
    return ElasticCluster(
        engine=engine,
        policy=DISPATCH,
        models=sorted(MIX),
        initial_nodes=1,
        min_nodes=1,
        max_nodes=12,
        control_interval_s=control_interval_s,
        provision_base_s=0.15,
        copy_gbps=10.0,
        record=record,
    )


def run_streaming_day(
    horizon_s: float,
    engine: Optional[OnlineServingEngine] = None,
    record: str = "streaming",
    seed: int = SEED,
    period_s: Optional[float] = None,
) -> AutoscaleReport:
    """One lazy streaming diurnal run over ``[0, horizon_s)``.

    The single entry point the experiment, the scale benchmark, and the
    CI smoke all share: generator arrivals (read lazily, a small chunk
    at a time) into an elastic fleet under the reactive policy, with the
    requested recording mode, on the fleet loop's drain.
    ``period_s`` defaults to :data:`DAY_S`; benchmarks pass
    ``period_s=horizon_s`` so a sliced run still sweeps one full
    day/night swing (and so carries the trace's ~116 req/s mean rather
    than a trough-only prefix).
    """
    engine = engine or OnlineServingEngine()
    capacity = node_capacity_rps(engine, MIX, DISPATCH)
    cluster = make_scale_cluster(engine, record=record)
    stream = mix_request_stream(
        scale_trace(period_s or DAY_S),
        MIX,
        horizon_s,
        seed=seed,
        slos={m: SLO_S for m in MIX},
    )
    return cluster.run(
        stream,
        TargetUtilizationPolicy(capacity, target=0.7),
        presorted=True,
        horizon_s=horizon_s,
    )


def run(fast: bool = False) -> ExperimentResult:
    res = ExperimentResult(
        experiment_id="serve-scale",
        title="Flat-memory streaming fleet runs at datacenter scale",
        paper_reference="§I/§VII day-long datacenter traces (~10M queries/day)",
    )
    engine = OnlineServingEngine()
    capacity = node_capacity_rps(engine, MIX, DISPATCH)
    slos = {m: SLO_S for m in MIX}

    # ---- Exactness: full vs streaming vs lazy on one prefix ----------- #
    cross_h = 60.0 if fast else 240.0
    # A short period so the cross-check prefix still sees a full swing.
    cross = scale_trace(period_s=cross_h)
    stream = mix_requests(cross, MIX, cross_h, seed=SEED, slos=slos)
    policy = TargetUtilizationPolicy(capacity, target=0.7)
    runs: Dict[str, AutoscaleReport] = {}
    for mode in ("full", "streaming"):
        cluster = make_scale_cluster(engine, record=mode)
        runs[mode] = cluster.run(stream, policy)
    lazy_cluster = make_scale_cluster(engine, record="streaming")
    runs["lazy"] = lazy_cluster.run(
        mix_request_stream(cross, MIX, cross_h, seed=SEED, slos=slos),
        policy,
        presorted=True,
        horizon_s=cross_h,
    )
    full, streaming, lazy = runs["full"], runs["streaming"], runs["lazy"]
    for name, rep in runs.items():
        res.add(
            section="cross-check",
            case=name,
            served=rep.served,
            rejected=rep.rejected_count,
            p99_ms=rep.latency_percentile(99) * 1e3,
            peak_nodes=rep.peak_fleet_size,
            node_s=rep.node_seconds,
        )
    res.check(
        "streaming and full runs agree on every count",
        (streaming.served, streaming.rejected_count, streaming.failed_count)
        == (full.served, full.rejected_count, full.failed_count),
    )
    res.check(
        "streaming and full runs make identical control decisions",
        [s.desired for s in streaming.samples] == [s.desired for s in full.samples],
    )
    # The lazy run schedules control ticks through the declared horizon,
    # so it may carry a trailing tick or two past the eager run's last
    # arrival — the decision *prefix* must match exactly.
    n = len(streaming.samples)
    res.check(
        "lazy generator arrivals reproduce the eager run exactly",
        lazy.served == streaming.served
        and [s.desired for s in lazy.samples[:n]]
        == [s.desired for s in streaming.samples],
    )
    p99_exact = full.latency_percentile(99)
    p99_sketch = streaming.latency_percentile(99)
    rel = abs(p99_sketch - p99_exact) / p99_exact if p99_exact else 0.0
    res.check(
        f"sketch p99 within {SKETCH_RTOL:.0%} of the exact rank",
        rel <= SKETCH_RTOL,
    )
    res.note(
        f"cross-check over {cross_h:.0f} s ({full.served} served): exact "
        f"p99 {p99_exact * 1e3:.2f} ms vs sketch {p99_sketch * 1e3:.2f} ms "
        f"({rel * 100:.2f}% off), identical counts and control decisions"
    )

    # ---- Memory contract: streaming keeps no per-request list --------- #
    try:
        streaming.latencies_s
        raised = False
    except RecordingModeError:
        raised = True
    res.check(
        "streaming report refuses per-request access instead of "
        "re-materializing",
        raised,
    )
    res.check(
        "full report still exposes the per-request records",
        len(full.latencies_s) == full.served,
    )

    # ---- The scale run: a (fast: sliced) day, lazily, streaming ------- #
    scale_h = 300.0 if fast else DAY_S
    t0 = time.perf_counter()
    day = run_streaming_day(scale_h, engine=engine)
    wall_s = time.perf_counter() - t0
    offered = day.served + day.rejected_count + day.failed_count
    res.add(
        section="scale",
        case="streaming-day" if not fast else "streaming-slice",
        horizon_s=scale_h,
        offered=offered,
        served=day.served,
        shed=day.shed_fraction,
        p99_ms=day.latency_percentile(99) * 1e3,
        peak_nodes=day.peak_fleet_size,
        mean_nodes=day.mean_fleet_size,
        events=day.events_processed,
        wall_s=round(wall_s, 2),
        events_per_s=round(day.events_processed / wall_s) if wall_s else 0,
    )
    res.check("scale run serves the whole horizon", day.sim_end_s >= scale_h)
    res.check("scale run sheds under 2% of offered load", day.shed_fraction < 0.02)
    res.check(
        "scale run holds the p99 SLO", day.latency_percentile(99) <= SLO_S
    )
    res.check(
        "scale report is streaming (no per-request storage)",
        day.record == "streaming",
    )
    res.note(
        f"{scale_h / 3600:.2f} h diurnal day: {offered} offered, "
        f"{day.served} served in {wall_s:.1f} s wall "
        f"({day.events_processed / wall_s:,.0f} events/s), p99 "
        f"{day.latency_percentile(99) * 1e3:.1f} ms, fleet "
        f"{day.mean_fleet_size:.2f} nodes mean / {day.peak_fleet_size} peak "
        "— memory stays flat because arrivals are generated lazily and "
        "completions fold into fixed-size sketches "
        "(see benchmarks/BENCH_scale.json for the measured RSS curve)"
    )

    res.chart = {
        "kind": "timeline",
        "rows": day.timeline_rows()[:: max(1, len(day.samples) // 288)],
        "x_key": "t_s",
        "y_keys": ["nodes", "offered_rps", "p99_ms"],
    }
    return res
