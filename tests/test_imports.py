"""Import budget: what a cold start loads, and that no run loads more.

Every check runs in a fresh ``python -B`` interpreter (no bytecode, no
module another test already imported), because a module cached by an
earlier import would hide exactly the edge a check is after.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

PACKAGES = (
    "repro",
    "repro.autoscale",
    "repro.baselines",
    "repro.cluster",
    "repro.colocation",
    "repro.core",
    "repro.dram",
    "repro.energy",
    "repro.experiments",
    "repro.genai",
    "repro.mapping",
    "repro.models",
    "repro.obs",
    "repro.osmem",
    "repro.reporting",
    "repro.roofline",
    "repro.serving",
    "repro.sim",
    "repro.utils",
    "repro.workloads",
)

#: The serving stack's public from-imports, as perfbench makes them.
SERVING_IMPORTS = """
from repro.autoscale import ElasticCluster, TargetUtilizationPolicy, node_capacity_rps
from repro.cluster import Cluster, ClusterNode
from repro.genai import ContinuousBatcher, GenerativeEngine, GenRequest
from repro.serving import OnlineServingEngine, Request
"""

#: Modules the serving stack does not use: optional features (failure
#: injection, heterogeneous pools, traces, tracing and profiling,
#: energy), the planners, the comparison baselines and the command-level
#: DRAM model.  Importing the stack must not load them.
UNUSED_BY_SERVING = (
    "repro.autoscale.hetero",
    "repro.autoscale.traces",
    "repro.baselines.chopim",
    "repro.baselines.pei",
    "repro.cluster.planner",
    "repro.core.functional",
    "repro.dram.bank",
    "repro.dram.commands",
    "repro.dram.controller",
    "repro.energy",
    "repro.energy.model",
    "repro.obs.profile",
    "repro.obs.trace",
    "repro.sim.analytic",
    "repro.sim.failures",
    "repro.sim.sweep",
    "repro.utils.units",
)

#: Modules the first fleet run (repro.sim.fast) and the first genai run
#: (repro.genai.fast) of a process import by design.
FIRST_FAST_RUN = {"repro.sim.fast", "repro.genai.fast"}


def run_fresh(code: str):
    """Run ``code`` in a fresh ``python -B``; return its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-B", "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))"


def test_package_import_loads_no_submodule():
    loaded = run_fresh(
        f"""
        import json, sys
        import repro.cluster, repro.autoscale, repro.genai, repro.serving
        print(json.dumps({LOADED}))
        """
    )
    assert loaded == sorted(
        [
            "repro",
            "repro._exports",
            "repro.autoscale",
            "repro.cluster",
            "repro.genai",
            "repro.serving",
        ]
    )


def test_serving_imports_skip_unused_modules():
    loaded = run_fresh(SERVING_IMPORTS + f"import json, sys\nprint(json.dumps({LOADED}))")
    assert not set(loaded) & set(UNUSED_BY_SERVING)


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve_and_are_listed(package):
    out = run_fresh(
        f"""
        import importlib, json
        pkg = importlib.import_module({package!r})
        listed = dir(pkg)
        lazy = sorted(set(listed) - set(vars(pkg)))
        star = {{}}
        exec("from {package} import *", star)
        star.pop("__builtins__")
        unresolved, uncached = [], []
        for name in pkg.__all__:
            try:
                value = getattr(pkg, name)
            except AttributeError:
                unresolved.append(name)
                continue
            if vars(pkg).get(name) is not value:
                uncached.append(name)
        try:
            getattr(pkg, "no_such_name")
            unknown_raises = False
        except AttributeError:
            unknown_raises = True
        print(json.dumps({{
            "all": sorted(pkg.__all__),
            "listed": listed,
            "lazy": lazy,
            "star": sorted(star),
            "unresolved": unresolved,
            "uncached": uncached,
            "unknown_raises": unknown_raises,
        }}))
        """
    )
    assert out["unresolved"] == []
    # dir() lists every public name before its first access ...
    assert set(out["all"]) <= set(out["listed"])
    # ... and every name the package serves lazily is public.
    assert set(out["lazy"]) <= set(out["all"])
    # The first access caches the value, so later reads skip __getattr__.
    assert out["uncached"] == []
    assert out["star"] == out["all"]
    assert out["unknown_raises"]


def test_core_star_import_includes_fusion():
    out = run_fresh(
        """
        import json
        ns = {}
        exec("from repro.core import *", ns)
        print(json.dumps(sorted(ns)))
        """
    )
    assert {"FusedGemmResult", "fused_execute", "pow2_grid"} <= set(out)


def test_submodule_from_import_still_works():
    out = run_fresh(
        """
        import json
        from repro.sim import sweep
        from repro.core import functional
        print(json.dumps([sweep.__name__, functional.__name__]))
        """
    )
    assert out == ["repro.sim.sweep", "repro.core.functional"]


def test_no_module_is_first_imported_inside_a_run():
    """Import cost belongs to set-up: a run (and the read of its
    report) loads no ``repro`` module but the fast paths' own."""
    code = SERVING_IMPORTS + textwrap.dedent(
        f"""
        import json, random, sys

        def loaded():
            return set({LOADED})

        def first_imports(run):
            before = loaded()
            run()
            return sorted(loaded() - before)

        rng = random.Random(0)
        slos = {{"BERT": 0.05, "DLRM": 0.5}}
        reqs = [
            Request(i, m, t, slos[m])
            for i, (t, m) in enumerate(
                sorted((rng.uniform(0, 0.5), m) for m in ("BERT", "DLRM") for _ in range(40))
            )
        ]
        cluster = Cluster(2, policy="hybrid", router="least-loaded", record="full")

        def cold_cluster():
            rep = cluster.run(reqs)
            rep.p50_s, rep.p99_s, rep.served

        gen_reqs = [GenRequest(i, 2.0 * i, 32, 8) for i in range(6)]
        gen = GenerativeEngine(
            scheduler=ContinuousBatcher(),
            policy="hybrid",
            max_batch=4,
            engine=OnlineServingEngine(),
        )

        def genai():
            rep = gen.run(gen_reqs, record="full")
            rep.ttft_percentile(99), rep.mean_itl_s, rep.tokens_out

        engine = OnlineServingEngine()
        elastic = ElasticCluster(
            engine=engine,
            policy="hybrid",
            models=["BERT"],
            initial_nodes=1,
            max_nodes=3,
            control_interval_s=2.0,
            record="streaming",
        )
        policy = TargetUtilizationPolicy(node_capacity_rps(engine, {{"BERT": 1.0}}, "hybrid"))
        times = sorted(rng.uniform(0, 20.0) for _ in range(400))

        def streaming_fleet():
            rep = elastic.run(
                (Request(i, "BERT", t, 1.0) for i, t in enumerate(times)),
                policy,
                presorted=True,
                horizon_s=20.0,
            )
            rep.latency_percentile(99), rep.peak_fleet_size, rep.served

        print(json.dumps({{
            "cluster": first_imports(cold_cluster),
            "genai": first_imports(genai),
            "elastic": first_imports(streaming_fleet),
        }}))
        """
    )
    out = run_fresh(code)
    for run, modules in out.items():
        assert set(modules) <= FIRST_FAST_RUN, (run, modules)


def serving_closure():
    """``(modules, source lines)`` of the ``repro`` modules the serving
    stack's public imports load."""
    files = run_fresh(
        SERVING_IMPORTS
        + "import json, sys\n"
        + "print(json.dumps(sorted(sys.modules[m].__file__ for m in "
        + LOADED
        + ")))"
    )
    return len(files), sum(len(pathlib.Path(f).read_text().splitlines()) for f in files)


def test_serving_closure_size_is_reported(record_property):
    """Every source line of the closure is compiled at cold start (about
    5.5 us a line under ``-B``).  Reported, not gated: CI prints it in
    the cold-import step (``python tests/test_imports.py``)."""
    modules, lines = serving_closure()
    record_property("serving_closure_modules", modules)
    record_property("serving_closure_lines", lines)
    assert modules > 1 and lines > 0


if __name__ == "__main__":
    print("serving closure: {} repro modules, {} source lines".format(*serving_closure()))
