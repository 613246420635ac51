"""Cross-engine validation: executor timing vs. the command-level simulator.

The GEMM executor prices each PIM's access stream analytically (cadence +
AGEN bubbles + residual row misses).  This module rebuilds the *actual*
per-PIM DRAM request trace from a plan — the same (PIM, group) walks, in
execution order — and replays it through the command-level FR-FCFS
controller, giving a Ramulator-grade reference for the GEMM phase.  The
test suite asserts agreement within a tolerance band on small matrices;
experiments use the fast analytic path, with this bridge guarding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


from repro.core.config import StepStoneConfig
from repro.core.executor import execute_plan
from repro.core.gemm import GemmShape, plan_gemm
from repro.dram.commands import BankCoord, Request
from repro.dram.controller import ChannelController
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

__all__ = ["GemmPhaseValidation", "build_pim_trace", "validate_gemm_phase"]


@dataclass
class GemmPhaseValidation:
    """Comparison of the analytic GEMM phase against the command-level sim."""

    shape: GemmShape
    level: PimLevel
    pim: int
    executor_cycles: float
    controller_cycles: float
    accesses: int

    @property
    def ratio(self) -> float:
        return self.executor_cycles / self.controller_cycles


def build_pim_trace(
    plan, mapping: XORAddressMapping, pim: int
) -> List[Request]:
    """The critical PIM's demand stream in execution order (group-major,
    row-major within group) as controller requests."""
    fa = plan.analysis
    reqs: List[Request] = []
    rid = 0
    for w in plan.work[pim]:
        addrs = fa.blocks_of(pim, w.group)
        rk = mapping.field_values(addrs, "rank")
        bg = mapping.field_values(addrs, "bankgroup")
        bk = mapping.field_values(addrs, "bank")
        row = mapping.field_values(addrs, "row")
        col = mapping.field_values(addrs, "column")
        for i in range(len(addrs)):
            reqs.append(
                Request(
                    arrival=0,
                    coord=BankCoord(int(rk[i]), int(bg[i]), int(bk[i])),
                    row=int(row[i]),
                    column=int(col[i]),
                    request_id=rid,
                )
            )
            rid += 1
    return reqs


def validate_gemm_phase(
    config: StepStoneConfig,
    mapping: XORAddressMapping,
    shape: GemmShape,
    level: PimLevel,
    queue_depth: int = 16,
) -> GemmPhaseValidation:
    """Replay the critical PIM's trace through the FR-FCFS controller.

    The controller sees only this PIM's requests (a PIM owns its banks
    exclusively during the phase), with the scheduler window standing in
    for the AGEN run-ahead.  Compares against the executor's GEMM-phase
    estimate with refresh normalized out of both sides.
    """
    plan = plan_gemm(config, mapping, shape, level)
    result = execute_plan(config, plan)
    pim = plan.max_blocks_pim
    reqs = build_pim_trace(plan, mapping, pim)
    ctl = ChannelController(
        timing=config.timing,
        ranks=config.geometry.ranks_per_channel,
        bankgroups=config.geometry.bankgroups_per_rank,
        banks=config.geometry.banks_per_bankgroup,
        queue_depth=queue_depth,
        refresh=False,
    )
    stats = ctl.run(reqs)
    # Strip refresh and compute-boundedness from the executor number: the
    # controller models pure streaming.  Use the memory-only estimate.
    exec_cycles = result.breakdown.gemm * (1.0 - config.timing.refresh_overhead)
    # Remove the launch overhead included in the gemm phase.
    exec_cycles -= result.kernel_launches * config.dma.kernel_launch_cycles / config.channels
    return GemmPhaseValidation(
        shape=shape,
        level=level,
        pim=pim,
        executor_cycles=exec_cycles,
        controller_cycles=float(stats.total_cycles),
        accesses=len(reqs),
    )
