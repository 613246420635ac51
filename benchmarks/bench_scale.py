"""Scale harness: flat-memory streaming runs versus full recording.

Each row replays the ``serve-scale`` diurnal day (or a slice of it) in a
**fresh subprocess** and reads the child's own peak RSS, ``VmHWM`` in
``/proc/self/status`` — the only honest per-run memory number, since an
in-process run would inherit the parent interpreter's high-water mark.
``ru_maxrss`` is only the fallback where that file is absent: Linux
carries the spawning process's high-water mark into it across ``exec``,
so under a large pytest process every row would read the parent's peak.

The matrix crosses run length (~100k, ~1M, and — behind
``REPRO_SCALE_FULL=1`` — the full ~10M-request day) with recording mode:

* ``streaming`` rows use lazy generator arrivals plus the P² sketch
  recorder: peak RSS must stay flat as the trace grows 10x (and 100x);
* ``full`` rows materialize the request list and every per-request
  record — the pre-refactor behavior — so RSS grows linearly, which is
  exactly the contrast ``BENCH_scale.json`` exists to document.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import record_perf
from repro.experiments.serve_scale import DAY_S

ROOT = Path(__file__).resolve().parent.parent

#: Mean offered rate of the serve-scale diurnal trace (req/s); horizons
#: below are request targets divided by this.
_MEAN_RPS = 116.0

_CHILD = """
import json, resource, sys, time


def peak_rss_mb():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


horizon = float(sys.argv[1])
record = sys.argv[2]

from repro.autoscale import TargetUtilizationPolicy, mix_requests, node_capacity_rps
from repro.experiments.serve_scale import (
    DISPATCH, MIX, SLO_S, make_scale_cluster, run_streaming_day, scale_trace,
)
from repro.serving.engine import OnlineServingEngine
from repro.sim import fast as sim_fast

runs0 = sim_fast.FAST_RUNS
t0 = time.perf_counter()
if record == "streaming":
    rep = run_streaming_day(horizon, period_s=horizon)
else:
    engine = OnlineServingEngine()
    stream = mix_requests(
        scale_trace(period_s=horizon),
        MIX,
        horizon,
        seed=42,
        slos={m: SLO_S for m in MIX},
    )
    cluster = make_scale_cluster(engine, record="full")
    rep = cluster.run(
        stream,
        TargetUtilizationPolicy(
            node_capacity_rps(engine, MIX, DISPATCH), target=0.7
        ),
    )
wall = time.perf_counter() - t0
print(json.dumps({
    "fast_path": sim_fast.FAST_RUNS > runs0,
    "served": rep.served,
    "events": rep.events_processed,
    "wall_s": round(wall, 3),
    "events_per_s": round(rep.events_processed / wall) if wall else 0,
    "peak_rss_mb": round(peak_rss_mb(), 1),
}))
"""


def _measure(horizon_s: float, record: str) -> dict:
    """Run one diurnal serving run in a child process; return its stats."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(horizon_s), record],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _row(entry: str, horizon_s: float, record: str) -> dict:
    stats = _measure(horizon_s, record)
    record_perf(
        "scale",
        entry,
        stats["wall_s"],
        served=stats["served"],
        events_per_s=stats["events_per_s"],
        fast_path=stats["fast_path"],
        peak_rss_mb=stats["peak_rss_mb"],
        record=record,
        horizon_s=horizon_s,
    )
    return stats


def test_streaming_rss_stays_flat_100k_to_1m():
    """10x the requests, (near-)constant memory: the tentpole claim."""
    small = _row("streaming_100k", DAY_S / 100, "streaming")
    big = _row("streaming_1m", DAY_S / 10, "streaming")
    assert small["fast_path"] and big["fast_path"], (small, big)
    assert big["served"] > 8 * small["served"]
    # Flat means bounded by structure size, not trace length: allow the
    # interpreter some slack but nothing resembling 10x growth.
    assert big["peak_rss_mb"] < small["peak_rss_mb"] * 1.5, (small, big)


def test_full_recording_grows_linearly():
    """The pre-refactor mode keeps every record; its RSS curve is the
    contrast that makes the flat streaming curve meaningful."""
    small = _row("full_100k", DAY_S / 100, "full")
    big = _row("full_1m", DAY_S / 10, "full")
    assert big["served"] > 8 * small["served"]
    assert big["peak_rss_mb"] > small["peak_rss_mb"] * 2.0, (small, big)


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_FULL") != "1",
    reason="~10 min; set REPRO_SCALE_FULL=1 to (re)measure the 10M row",
)
def test_streaming_full_day_10m():
    """The headline: one 24 h diurnal day, ~10M requests, flat RSS."""
    base = _row("streaming_1m_anchor", DAY_S / 10, "streaming")
    day = _row("streaming_10m", DAY_S, "streaming")
    assert day["served"] > 9_000_000
    assert day["peak_rss_mb"] < base["peak_rss_mb"] * 1.5, (base, day)
