"""Layer spans recorded from outside the library.

:class:`Tracer` rebinds each public entry point listed in :data:`TARGETS`
(at its class or module attribute, plus every module alias of a
module-level function) with a wrapper that records one span per call:
name, start, end and the enclosing span.  Spans stay in memory while the
window is open and are written out once at the end; :func:`aggregate`
turns a span file into per-function calls, inclusive and self seconds,
and per-layer self seconds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Dict, List, Optional

#: (span name, module, attribute path, memo attribute whose growth
#: during a call marks a memo miss).
TARGETS = (
    ("core.choose_execution", "repro.core.scheduler", "choose_execution", None),
    ("core.plan_gemm", "repro.core.gemm", "plan_gemm", None),
    ("core.execute_plan", "repro.core.executor", "execute_plan", None),
    ("serving.batch_latency", "repro.serving.engine", "OnlineServingEngine.batch_latency", "_latency_cache"),
    ("serving.hybrid_split", "repro.serving.scheduler", "BatchServer.hybrid_split", None),
    ("serving.pim_latency", "repro.serving.scheduler", "BatchServer.pim_latency", None),
    ("serving.cpu_latency", "repro.serving.scheduler", "BatchServer.cpu_latency", None),
    ("sim.stats.record_completion", "repro.sim.stats", "MetricsRecorder.record_completion", None),
    ("sim.stats.window_percentile", "repro.sim.stats", "MetricsRecorder.window_percentile", None),
    ("sim.stats.percentile", "repro.sim.stats", "MetricsRecorder.percentile", None),
    ("sim.kernel.run", "repro.sim.kernel", "DiscreteEventKernel.run", None),
    ("sim.fast.drain", "repro.sim.fast", "drain", None),
    ("cluster.try_dispatch", "repro.cluster.node", "ClusterNode.try_dispatch", None),
    ("autoscale.desired_nodes", "repro.autoscale.policies", "TargetUtilizationPolicy.desired_nodes", None),
    ("genai.prefill_seconds", "repro.genai.engine", "GenerativeEngine.prefill_seconds", None),
    ("genai.decode_step_seconds", "repro.genai.engine", "GenerativeEngine.decode_step_seconds", "_decode_cost"),
    ("genai.fast.plan_segment", "repro.genai.fast", "plan_segment", None),
    ("genai.fast.apply_segment", "repro.genai.fast", "apply_segment", None),
    ("genai.kv.reserve_run", "repro.genai.kvcache", "KVCacheBudget.reserve_run", None),
)

#: Layers in reporting order; a span belongs to the longest prefix of its
#: name found here.
LAYERS = ("core", "serving", "cluster", "autoscale", "sim", "sim.stats", "genai", "report")


def layer_of(name: str) -> str:
    parts = name.split(".")
    for n in range(len(parts), 0, -1):
        prefix = ".".join(parts[:n])
        if prefix in LAYERS:
            return prefix
    raise ValueError(f"span {name!r} belongs to no layer")


class Tracer:
    """Records spans of the wrapped entry points while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.misses: Dict[str, int] = {}
        #: Targets that did not resolve (renamed or removed entry points).
        self.missing: List[str] = []
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        """Wrap every resolvable target; record the ones that are not."""
        for name, module, path, memo in TARGETS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn, memo)
            setattr(owner, attr, wrapped)
            if not outer:  # rebind `from module import fn` aliases too
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro.") and getattr(mod, attr, None) is fn:
                        setattr(mod, attr, wrapped)

    def _wrap(self, name: str, fn, memo: Optional[str]):
        nid = self._id(name)
        self.misses.setdefault(name, 0)
        clock = time.perf_counter
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if memo is not None:
                before = len(getattr(args[0], memo, ()))
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if memo is not None and len(getattr(args[0], memo, ())) > before:
                    self.misses[name] += 1

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (the run call, the report read)."""
        nid = self._id(name)
        i = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        """Write the recorded spans as a NumPy ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def aggregate(path: str) -> Dict[str, float]:
    """Per-function and per-layer figures from one span file.

    ``<name>.calls`` counts spans; ``<name>.s`` sums the spans not nested
    in a span of the same name (so a recorder calling its parent is not
    counted twice); ``<name>.self_s`` sums each span's duration minus the
    time its child spans cover; ``layer.<layer>.self_s`` sums self time by
    layer, so the layers add up to the traced window.
    """
    import numpy as np

    with np.load(path) as f:
        names = [str(n) for n in f["names"]]
        ids, parents = f["name_ids"], f["parents"]
        dur = f["ends"] - f["starts"]
    child = np.zeros_like(dur)
    nested = parents >= 0
    np.add.at(child, parents[nested], dur[nested])
    self_s = dur - child
    # A span is "inner" when any ancestor carries the same name.
    inner = np.zeros(len(dur), dtype=bool)
    anc = parents.copy()
    while (live := anc >= 0).any():
        inner[live] |= ids[anc[live]] == ids[live]
        anc[live] = parents[anc[live]]
    out: Dict[str, float] = {f"layer.{layer}.self_s": 0.0 for layer in LAYERS}
    for nid, name in enumerate(names):
        mine = ids == nid
        out[f"{name}.calls"] = int(mine.sum())
        out[f"{name}.s"] = float(dur[mine & ~inner].sum())
        out[f"{name}.self_s"] = float(self_s[mine].sum())
        out[f"layer.{layer_of(name)}.self_s"] += out[f"{name}.self_s"]
    return out
