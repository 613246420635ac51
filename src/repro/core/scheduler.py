"""PIM execution-choice heuristic (§III-E optimizations).

The paper: "a simple heuristic that estimates execution times and overheads
based on available bandwidth and transferred data volumes works well."  Our
estimator *is* the timing model, so the scheduler prices the candidate
configurations — bank-group vs. device level, full vs. subset PIM activation
— and picks the fastest.  That volume estimate is also an exact lower bound
on each candidate's cycles, read from its ``footprint`` memo record with no
per-width trace (:func:`_lower_bound`).  Candidates are priced in bound
order, and the search stops once the next bound exceeds the best price, so
the result is the exhaustive scan's.  This implements both §III-E knobs:

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
from repro.core.executor import GemmResult, _check_modes, _offchip_cycles, execute_gemm
from repro.core.gemm import FootprintWork, GemmShape, ScratchpadInfeasible, _footprint
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping
from repro.obs.telemetry import BUS

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


#: Bounds are shaved by this relative margin.  A bound and its priced total
#: add their terms in different orders (the GEMM term is one product here, a
#: sum over groups there), so each lies a few dozen 2**-53 roundings from its
#: real value; 2**-30 covers that many times over and still prunes as much.
_SHAVE = 1.0 - 2.0**-30


def _lower_bound(config, fp: FootprintWork, padded: GemmShape, level: PimLevel, flow) -> float:
    """A lower bound on ``execute_plan(...).breakdown.total`` for every plan
    of ``fp`` at ``padded`` (the Table II unit, no launch delay).

    Localization and reduction are exact; launches count one kernel per
    active PIM (``n_rparts >= 1``, and eCHO launches at least as many); the
    critical PIM's GEMM phase costs at least ``max(compute, cadence floor)``
    per block before refresh.  Fill, stall and row-miss terms are
    non-negative and left out.
    """
    t, u = config.timing, config.unit(level)
    m, n, n_pims = padded.m, padded.n, len(fp.work)
    localization, reduction, _, _ = _offchip_cycles(
        config, flow, fp.total_cols * 16 * n, m * n * (n_pims + 1)
    )
    launch = n_pims * config.dma.kernel_launch_cycles / max(1, config.channels)
    floor = u.cadence(t) if level is PimLevel.BANKGROUP else min(t.tCCDS, t.tCCDL, t.tBL + t.tRTRS)
    per_block = max(u.compute_cycles_per_block(n), float(floor))
    gemm = fp.blocks_per_pim[fp.critical_pim] * per_block * (1.0 / (1.0 - t.refresh_overhead))
    return (gemm + launch + localization + reduction) * _SHAVE


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
    least one candidate must be feasible.  Candidates are priced in
    ``(lower bound, index)`` order until the next bound exceeds the best
    price; the earliest wins ties.  ``pricing.search.priced`` / ``.pruned``
    count them on the telemetry bus, labeled ``level=<short name>``.  Bad
    arguments (an unknown ``agen`` or ``flow``, an empty or
    non-``PimLevel`` ``levels``, a negative or non-integer
    ``max_pinned_bits``) are named before any pricing; any other error (a
    malformed footprint) propagates unchanged.
    """
    _check_modes(agen, flow)
    levels = tuple(levels)
    if not levels or not all(isinstance(lv, PimLevel) for lv in levels):
        raise ValueError(f"levels must be a non-empty sequence of PimLevel, got {levels!r}")
    if isinstance(max_pinned_bits, bool) or not isinstance(max_pinned_bits, Integral):
        raise ValueError(f"max_pinned_bits must be an integer, got {max_pinned_bits!r}")
    if max_pinned_bits < 0:
        raise ValueError(f"max_pinned_bits must be non-negative, got {max_pinned_bits}")
    candidates = []
    padded = shape.padded(word_bytes=config.word_bytes, block_bytes=mapping.geometry.block_bytes)
    for level in levels:
        n_id_bits = len(mapping.pim_id_masks(level))
        for pinned in range(0, min(max_pinned_bits + 1, n_id_bits)):
            _, fp = _footprint(config, mapping, padded, level, 0, pinned)
            bound = _lower_bound(config, fp, padded, level, flow)
            candidates.append((bound, len(candidates), level, pinned))
    candidates.sort()
    best: Optional[PimChoice] = None
    best_index = n_priced = 0
    for bound, index, level, pinned in candidates:
        if best is not None and bound > best.cycles:
            break  # every later bound is at least as large
        n_priced += 1
        try:
            res = execute_gemm(
                config, mapping, shape, level, agen=agen, flow=flow, pinned_id_bits=pinned
            )
        except ScratchpadInfeasible:
            continue  # batch too large for this level's scratchpad
        if best is None or (res.breakdown.total, index) < (best.cycles, best_index):
            best, best_index = PimChoice(level, pinned, res), index
    if BUS.enabled:
        for i, (_, _, level, _) in enumerate(candidates):
            BUS.inc("pricing.search." + ("priced" if i < n_priced else "pruned"), level=level.short)
    if best is None:
        raise ValueError(f"no feasible PIM configuration for {shape}")
    return best
