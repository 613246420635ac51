"""PIM execution-choice heuristic (§III-E optimizations).

The paper: "a simple heuristic that estimates execution times and overheads
based on available bandwidth and transferred data volumes works well."  Our
estimator *is* the timing model, so the scheduler evaluates the candidate
configurations — bank-group vs. device level, full vs. subset PIM activation
— and picks the fastest.  This implements both §III-E knobs:

* **Choosing the PIM level** (StepStone-BG wins for N <= ~16, StepStone-DV
  beyond — Fig. 6/8 behaviour, e.g. XLM switching levels as its sequence
  grows).
* **Small weight matrices**: activating only half (or a quarter) of the
  PIMs trades arithmetic bandwidth for halved localization/reduction
  overheads (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence

from repro.core.config import StepStoneConfig
from repro.core.executor import GemmResult, _check_modes, execute_gemm
from repro.core.gemm import GemmShape, ScratchpadInfeasible
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

__all__ = ["PimChoice", "choose_execution"]


@dataclass
class PimChoice:
    """The selected execution configuration and its predicted result."""

    level: PimLevel
    pinned_id_bits: int
    result: GemmResult

    @property
    def cycles(self) -> float:
        return self.result.breakdown.total

    @property
    def n_active_pims(self) -> int:
        return self.result.plan.n_active_pims

    def describe(self) -> str:
        sub = f"/2^{self.pinned_id_bits}" if self.pinned_id_bits else ""
        return (
            f"StepStone-{self.level.short}{sub} "
            f"({self.n_active_pims} PIMs, {self.cycles:.3e} cycles)"
        )


def choose_execution(
    config: StepStoneConfig,
    mapping: XORAddressMapping,
    shape: GemmShape,
    levels: Sequence[PimLevel] = (PimLevel.BANKGROUP, PimLevel.DEVICE),
    max_pinned_bits: int = 1,
    agen: str = "stepstone",
    flow: str = "stepstone",
) -> PimChoice:
    """Evaluate candidate (level, subset) configurations and pick the fastest.

    ``max_pinned_bits`` bounds the §III-E subsetting search (0 disables it).
    Candidates that cannot satisfy scratchpad constraints are skipped; at
    least one candidate must be feasible.  Bad arguments (an unknown
    ``agen`` or ``flow``, an empty or non-``PimLevel`` ``levels``, a
    negative or non-integer ``max_pinned_bits``) are named before any
    pricing; any other error (a malformed footprint) propagates unchanged.
    """
    _check_modes(agen, flow)
    levels = tuple(levels)
    if not levels or not all(isinstance(lv, PimLevel) for lv in levels):
        raise ValueError(f"levels must be a non-empty sequence of PimLevel, got {levels!r}")
    if isinstance(max_pinned_bits, bool) or not isinstance(max_pinned_bits, Integral):
        raise ValueError(f"max_pinned_bits must be an integer, got {max_pinned_bits!r}")
    if max_pinned_bits < 0:
        raise ValueError(f"max_pinned_bits must be non-negative, got {max_pinned_bits}")
    best: Optional[PimChoice] = None
    for level in levels:
        n_id_bits = len(mapping.pim_id_masks(level))
        for pinned in range(0, min(max_pinned_bits + 1, n_id_bits)):
            try:
                res = execute_gemm(
                    config,
                    mapping,
                    shape,
                    level,
                    agen=agen,
                    flow=flow,
                    pinned_id_bits=pinned,
                )
            except ScratchpadInfeasible:
                continue  # batch too large for this level's scratchpad
            cand = PimChoice(level=level, pinned_id_bits=pinned, result=res)
            if best is None or cand.cycles < best.cycles:
                best = cand
    if best is None:
        raise ValueError(f"no feasible PIM configuration for {shape}")
    return best
