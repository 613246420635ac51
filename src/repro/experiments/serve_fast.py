"""Analytic capacity planning: arithmetic instead of simulation.

``repro.sim.analytic`` replaces whole simulations with closed-form
M/G/k arithmetic.  It is only usable if it is *boring*: the analytic
planner must never hand back a smaller fleet than the simulation
would.  ``CapacityPlanner(mode="analytic")`` sizes a fleet in
milliseconds of arithmetic instead of seconds of simulation; the
checks are the conservatism contract (never fewer nodes than the DES
answer) plus the probe-cost gap.

(The fleet loop runs on the kernel's one event loop,
:meth:`repro.sim.kernel.DiscreteEventKernel.run`; its exactness against
the event-at-a-time oracle is pinned by
``tests/test_fast_differential.py``.)
"""

from __future__ import annotations

from time import perf_counter

from repro.cluster.planner import CapacityPlanner
from repro.experiments.common import ExperimentResult
from repro.serving import OnlineServingEngine

__all__ = ["run"]

SEED = 42
MIX = {"BERT": 0.9, "DLRM": 0.1}


def _timed(fn):
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


def run(fast: bool = False) -> ExperimentResult:
    """Run the analytic-planning experiment.

    Args:
        fast: Shrink the planner probes for smoke runs.
    """
    res = ExperimentResult(
        experiment_id="serve-fast",
        title="Analytic capacity planning: conservative fleet sizes from "
        "M/G/k arithmetic",
        paper_reference="infrastructure (no paper figure): repro.sim.analytic",
        timing_columns=("sim_plan_s", "analytic_plan_s"),
    )
    engine = OnlineServingEngine()
    target_rps, slo_s = 600.0, 1.0
    kwargs = dict(engine=engine, n_requests=200 if fast else 300, seed=SEED)
    for pol in ("cpu", "hybrid"):
        sim_plan, sim_s = _timed(
            lambda: CapacityPlanner(MIX, **kwargs).min_nodes(
                pol, target_rps, slo_s, max_nodes=32
            )
        )
        an_plan, an_s = _timed(
            lambda: CapacityPlanner(MIX, mode="analytic", **kwargs).min_nodes(
                pol, target_rps, slo_s, max_nodes=32
            )
        )
        res.add(
            section="analytic",
            policy=pol,
            sim_nodes=sim_plan.nodes,
            sim_plan_s=round(sim_s, 3),
            analytic_nodes=an_plan.nodes,
            analytic_plan_s=round(an_s, 4),
            analytic_p99_s=round(an_plan.analytic.p99_s, 4),
            rho=round(an_plan.analytic.rho, 3),
        )
        res.check(
            f"{pol}: analytic plan is never smaller than the DES plan",
            an_plan.nodes >= sim_plan.nodes,
        )
        res.check(
            f"{pol}: analytic planning is cheaper than simulation",
            an_s < sim_s,
        )
    res.note(
        "analytic mode trades nodes for time: conservative fleet sizes "
        "(never below the DES answer) from microsecond M/G/k probes"
    )

    res.chart = {
        "kind": "grouped",
        "rows": [
            {"label": f"{r['policy']} {mode}", "nodes": r[f"{key}_nodes"]}
            for r in res.rows
            for mode, key in (("DES", "sim"), ("analytic", "analytic"))
        ],
        "category_key": "label",
        "value_key": "nodes",
    }
    return res
