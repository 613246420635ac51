"""Cold-start, layer-attributed benchmark of the serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload genai-cold --seed 0 --seconds 36 --trace 0

Runs one workload again and again, each run a fresh child interpreter in
a fresh temporary directory, one at a time.  Child *i* serves input
instance *i* of the seed.  Children start while another one still fits
in ``--seconds``, at least two of them.  Every child's outputs are
checked; a child that crashes, times out or fails its check counts as
failed and its timings are dropped.  Each child samples the host's
speed with a fixed reference loop (calib.py) while it works, and its
timings are scaled to the reference host speed.
The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of traced children
with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, TARGETS, aggregate  # noqa: E402

WORKLOADS = ("genai-cold", "fleet-day", "fleet-cold")
#: Seconds per unit of calib.py's reference loop on the reference host
#: (the 2-vCPU Xeon VM the benchmark was tuned on, when quiet).  See
#: :func:`at_reference_speed`.
UNIT_REF_S = 0.002
#: Whole-invocation ceiling: no child starts that could end past it.
HARD_LIMIT_S = 170.0
MIN_CHILDREN = 2
SPAN_SUFFIXES = (("calls", "count"), ("s", "s"), ("self_s", "s"))

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "items/s"),
)
#: Reported as the mean over the children; the others as the median.
#: A run has as few as two children, and the scaled run times have no
#: outliers for a median to guard against (see README.md).
MEAN_OVER_CHILDREN = ("run_s", "work_per_s")
#: Printed in the table beside the metrics, for reference only: the
#: measured wall times before scaling and the reference loop's unit time.
UNSCALED = (("run_wall_s", "s"), ("setup_wall_s", "s"), ("unit_ms", "ms"))
PER_LAYER = tuple(
    [
        (f"{name}.{suffix}", unit)
        for name, *_ in TARGETS
        if name != "genai.kv.reserve_run"
        for suffix, unit in SPAN_SUFFIXES
    ]
    + [
        ("genai.kv.reserve_run.calls", "count"),
        ("serving.batch_latency.miss_ratio", "fraction"),
        ("genai.decode_step_seconds.miss_ratio", "fraction"),
        ("sim.events", "count"),
        ("genai.preemptions", "count"),
        ("sim.fast.engaged", "count"),
        ("genai.fast.engaged", "count"),
        ("report.read.s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
)

#: Design guards checked on every traced child: (metric, op, value).
GUARDS = {
    "fleet-cold": (("core.choose_execution.calls", ">", 0), ("sim.fast.engaged", ">", 0)),
    "genai-cold": (("core.choose_execution.calls", ">", 0), ("genai.fast.engaged", ">", 0)),
    "fleet-day": (("core.choose_execution.calls", "==", 0),),
}
OPS = {">": operator.gt, "==": operator.eq}


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        HOME=tmp,
        TMPDIR=tmp,
        XDG_CACHE_HOME=tmp,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def at_reference_speed(samples, t0: float, t1: float) -> float:
    """Seconds the span ``[t0, t1)`` would have taken at reference speed.

    ``samples`` are the child's ``(at, seconds)`` timings of the reference
    unit, taken at even intervals of wall time.  The span's wall time,
    less the sampler's own time inside it, is scaled by the mean of
    ``UNIT_REF_S / seconds`` over the samples inside it: the time
    integral of the host's speed relative to the reference.  A span with
    no sample inside it uses all of the child's samples.
    """
    inside = [dt for at, dt in samples if t0 <= at < t1]
    speed = statistics.mean(UNIT_REF_S / dt for dt in inside or [dt for _, dt in samples])
    return (t1 - t0 - sum(inside)) * speed


def run_child(
    workload: str, seed: int, instance: int, traced: bool, timeout_s: float, scratch: Path
) -> dict:
    """One cold child run; returns its measurements or raises RuntimeError."""
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        out = os.path.join(tmp, "result.json")
        cmd = [
            sys.executable, "-B", str(HERE / "child.py"),
            workload, str(seed), str(instance), str(int(traced)), out,
        ]
        spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=tmp, env=child_env(tmp), timeout=timeout_s, capture_output=True, text=True
            )
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"timed out after {timeout_s:.0f} s")
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(out) as f:
            res = json.load(f)
        if res["violations"]:
            raise RuntimeError("output check failed: " + "; ".join(res["violations"]))
        samples = res["speed_samples"]
        if not samples:
            raise RuntimeError("the child took no host-speed sample")
        run_s = at_reference_speed(samples, res["run_start"], res["run_end"])
        rec = {
            "run_s": run_s,
            "setup_s": at_reference_speed(samples, spawn, res["run_start"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "work_per_s": res["work"] / run_s,
            "run_wall_s": res["run_end"] - res["run_start"],
            "setup_wall_s": res["run_start"] - spawn,
            "unit_ms": 1e3 * statistics.median(dt for _, dt in samples),
            "wall_s": time.perf_counter() - spawn,
            "fingerprint": res.get("fingerprint"),
        }
        if traced:
            # Span times are wall times inside the window: scale them as
            # the window was scaled.
            scale = run_s / rec["run_wall_s"]
            layer = {
                name: value if name.endswith(".calls") else value * scale
                for name, value in aggregate(res["spans"]).items()
            }
            layer.update(res["counts"])
            for name in ("serving.batch_latency", "genai.decode_step_seconds"):
                calls = layer.get(f"{name}.calls", 0)
                layer[f"{name}.miss_ratio"] = res["misses"].get(name, 0) / calls if calls else 0.0
            # A lost entry point would read as zeros, and would pass the
            # fleet-day guard without checking anything.
            if res["missing"]:
                raise RuntimeError("entry points not found: " + ", ".join(res["missing"]))
            broken = [
                f"{metric} {op} {value} is false (got {layer.get(metric, 0)})"
                for metric, op, value in GUARDS[workload]
                if not OPS[op](layer.get(metric, 0), value)
            ]
            if broken:
                raise RuntimeError("workload guard failed: " + "; ".join(broken))
            rec["layer"] = layer
        return rec
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind: subprocess.run then kills and reaps the child,
    # and run_child removes its directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    # A traced run pairs each untraced child with a traced one.
    per_instance = 2 if args.trace else 1
    t0 = time.perf_counter()
    plain, traced, errors = [], [], []
    attempted = 0
    longest = 0.0
    try:
        while True:
            elapsed = time.perf_counter() - t0
            # After the minimum, start no child that would likely end past
            # --seconds, so a run lasts about --seconds.
            done = plain + traced
            if attempted >= MIN_CHILDREN * per_instance and (
                not done or elapsed + statistics.mean(r["wall_s"] for r in done) > args.seconds
            ):
                break
            if attempted and elapsed + 1.5 * longest > HARD_LIMIT_S:
                break
            trace_this = bool(args.trace) and attempted % 2 == 1
            instance = attempted // per_instance
            attempted += 1
            try:
                rec = run_child(
                    args.workload, args.seed, instance, trace_this, HARD_LIMIT_S - elapsed, scratch
                )
            except RuntimeError as exc:
                errors.append(str(exc))
                print(f"# run {attempted} failed: {exc}", file=sys.stderr)
                continue
            longest = max(longest, rec["wall_s"])
            (traced if trace_this else plain).append(rec)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass

    if not plain or (args.trace and not traced):
        print(f"perfbench: no successful run of {args.workload}", file=sys.stderr)
        return 1

    print(
        f"# {args.workload} seed={args.seed}: {attempted} runs, {len(errors)} failed "
        f"(run_error_frac {len(errors) / attempted:g})"
    )
    fps = {r["fingerprint"] for r in plain + traced if r["fingerprint"]}
    if fps:
        print(f"# statistics fingerprint: {', '.join(sorted(fps))}")
    print(f"# {'metric':<44} {'value':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    metrics = {}
    if args.trace:
        untraced_s = statistics.median(r["run_s"] for r in plain)
        for r in traced:
            r["layer"]["trace.overhead_ratio"] = r["run_s"] / untraced_s
        rows = [
            (name, unit, [r["layer"].get(name, 0) for r in traced]) for name, unit in PER_LAYER
        ]
    else:
        rows = [
            (name, unit, [r[name] for r in plain])
            for name, unit in END_TO_END + UNSCALED
        ]
    for name, unit, values in rows:
        q1, q3 = quartiles(values)
        median = statistics.median(values)
        value = statistics.mean(values) if name in MEAN_OVER_CHILDREN else median
        print(
            f"# {name:<44} {value:>12.6g} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{len(values):>3}  {unit}"
        )
        if (name, unit) not in UNSCALED:
            metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
