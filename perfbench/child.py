"""One cold run of one workload, in a fresh interpreter.

Usage: ``python child.py <workload> <seed> <instance> <trace 0|1> <result.json>``

The inputs are generated from ``(seed, instance)``: one invocation of the
benchmark runs a sequence of input instances drawn from its seed.

Set-up (imports, inputs, construction, declared warm-up) runs first; the
timed window then covers the run call and the read of the report's
headline statistics.  The output check runs after the window.  A
:class:`calib.SpeedSampler` times the host's speed from the start of
set-up to the end of the window.  The result file carries
monotonic-clock stamps of the window, the speed samples, the peak RSS,
the simulated statistics and any check violations; a traced run also
writes its spans to ``spans.npz`` beside it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext


def main() -> None:
    workload, seed, instance = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    traced, out_path = sys.argv[4] == "1", sys.argv[5]
    from calib import SpeedSampler

    sampler = SpeedSampler()
    sampler.start()
    import workloads
    import repro.genai.fast as genai_fast
    import repro.sim.fast as sim_fast

    wl = workloads.WORKLOADS[workload](f"{seed}/{instance}")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    span = tracer.span if tracer else (lambda name: nullcontext())
    fast0 = (sim_fast.FAST_RUNS, genai_fast.FAST_RUNS)

    run_start = time.perf_counter()
    with span(wl.root):
        report = wl.run()
    with span("report.read"):
        stats = wl.read(report)
    run_end = time.perf_counter()
    sampler.stop()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "run_start": run_start,
        "run_end": run_end,
        "speed_samples": sampler.samples,
        "peak_rss_mb": rss_kb / 1024.0,
        "work": wl.work(stats),
        "stats": stats,
        "violations": wl.check(report, stats),
        "counts": {
            "sim.fast.engaged": sim_fast.FAST_RUNS - fast0[0],
            "genai.fast.engaged": genai_fast.FAST_RUNS - fast0[1],
            "sim.events": stats["events_processed"],
            "genai.preemptions": stats.get("preemptions", 0),
        },
    }
    if seed == workloads.DEFAULT_SEED and instance == 0:
        got = workloads.fingerprint(stats)
        want = workloads.FINGERPRINTS[workload]
        result["fingerprint"] = got
        if want is not None and got != want:
            result["violations"].append(f"fingerprint {got} != pinned {want}")
    if tracer is not None:
        tracer.active = False
        spans_path = os.path.join(os.path.dirname(out_path), "spans.npz")
        tracer.write(spans_path)
        result["spans"] = spans_path
        result["misses"] = tracer.misses
        result["missing"] = tracer.missing
    with open(out_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
