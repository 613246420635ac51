"""PIM execution-choice heuristic (§III-E optimizations).

The paper: "a simple heuristic that estimates execution times and overheads
based on available bandwidth and transferred data volumes works well."  Our
estimator *is* the timing model, so the scheduler prices the candidate
configurations — bank-group vs. device level, full vs. subset PIM activation
— and picks the fastest.  The candidates of a weight shape come from the
``candidates`` memo table, each holding every N-independent constant of
its pricing, so a new batch width is arithmetic: each candidate's
scratchpad partitioning, an exact lower bound on its cycles under it (the
volume estimate, :func:`_lower_bound`: every transfer and fill volume and
every launch, with the GEMM phase at its cadence floor), then the
per-width evaluator (:func:`repro.core.executor._price`) in bound order
until the next bound exceeds the best price, so the result is the
exhaustive scan's.  Only the winner gets a plan and a result, and only
when its ``result`` is read.  This implements both §III-E knobs:

* **Choosing the PIM level** (StepStone-BG wins for N <= ~16, StepStone-DV
  beyond — Fig. 6/8 behaviour, e.g. XLM switching levels as its sequence
  grows).
* **Small weight matrices**: activating only half (or a quarter) of the
  PIMs trades arithmetic bandwidth for halved localization/reduction
  overheads (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Sequence, Tuple

from repro.core.config import StepStoneConfig
from repro.core.executor import (
    GemmResult,
    _Candidate,
    _check_modes,
    _fill_cycles,
    _offchip_cycles,
    _price,
    _result,
)
from repro.core.gemm import GemmPlan, GemmShape, Partition
from repro.core.memo import PRICING_MEMO
from repro.mapping.analysis import FootprintAnalysis
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


class _SearchedChoice(PimChoice):
    """:func:`choose_execution`'s choice: the price is known when the search
    ends, and the result (plan, breakdown, energy volumes) is built on its
    first read, so a caller that needs only ``cycles`` builds neither."""

    def __init__(self, level: PimLevel, pinned_id_bits: int, cycles: float, build) -> None:
        self.level, self.pinned_id_bits = level, pinned_id_bits
        self._cycles, self._build = cycles, build

    @cached_property
    def result(self) -> GemmResult:
        return self._build()

    @property
    def cycles(self) -> float:
        return self._cycles

    def __eq__(self, other) -> bool:
        if not isinstance(other, PimChoice):
            return NotImplemented
        return (self.level, self.pinned_id_bits, self.result) == (
            other.level,
            other.pinned_id_bits,
            other.result,
        )

    def __reduce__(self):
        # Pickled and copied as the plain choice, its result built.
        return PimChoice, (self.level, self.pinned_id_bits, self.result)


#: Bounds are shaved by this relative margin.  A bound and its priced total
#: add their terms in different orders (the GEMM term is one product here, a
#: sum over groups there), so each lies a few dozen 2**-53 roundings from its
#: real value; 2**-30 covers that many times over and still prunes as much.
_SHAVE = 1.0 - 2.0**-30


def _lower_bound(cand: _Candidate, n: int, flow: str, part: Partition, fills) -> float:
    """A lower bound on the cycles :func:`_price` gives ``cand`` at batch
    ``n`` under partitioning ``part`` (the Table II unit, no launch delay),
    with ``fills`` its :func:`repro.core.executor._fill_cycles`.

    Localization, reduction and the buffer fill and drain streams
    (:func:`repro.core.executor._fill_cycles`) are exact; launches count
    one kernel per active PIM per row partition (exact for the StepStone
    flow; eCHO launches at least as many); the critical PIM's GEMM phase
    costs at least ``max(compute, cadence floor)`` per block before
    refresh.  The cadence excess over that
    floor, the AGEN stall and row misses are non-negative and left out.
    """
    _, _, n_rparts, _, _ = part
    u = cand.costs
    localization, reduction, _, _ = _offchip_cycles(cand, n, flow)
    per_block = max(u.unit.compute_cycles_per_block(n), u.cadence_floor)
    gemm = cand.crit_blocks * per_block * u.refresh
    launch = cand.n_pims * n_rparts * u.launch_cycles / u.channels
    fill_b, fill_c, _ = fills
    fill = fill_b + 2.0 * fill_c
    return (gemm + launch + fill + localization + reduction) * _SHAVE


def _candidates(config, mapping, m, k, levels, max_pinned_bits) -> Tuple[_Candidate, ...]:
    """The candidates of one search space over a padded M x K footprint, in
    index order, read through the ``candidates`` memo."""

    def build():
        return tuple(
            _Candidate(
                config, config.unit(level),
                FootprintAnalysis(mapping, level, m, k, 0, config.word_bytes, pinned),
            )
            for level in levels
            for pinned in range(min(max_pinned_bits + 1, len(mapping.pim_id_masks(level))))
        )

    key = (config.hardware_key, mapping.hardware_key, m, k, levels, max_pinned_bits)
    return PRICING_MEMO.lookup("candidates", key, build)


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
    Candidates that cannot satisfy scratchpad constraints are never
    priced (they count as pruned); at least one must be feasible.  The
    rest are priced in ``(lower bound, index)`` order until the next
    bound exceeds the best price; the earliest wins ties.  ``pricing.search.priced`` / ``.pruned``
    count them on the telemetry bus, labeled ``level=<short name>``.  Bad
    arguments (an unknown ``agen`` or ``flow``, an empty or
    non-``PimLevel`` ``levels``, a negative or non-integer
    ``max_pinned_bits``) are named before any pricing; any other error (a
    malformed footprint) propagates unchanged.  The winner's plan and
    result are built on the first read of ``result``.
    """
    _check_modes(agen, flow)
    levels = tuple(levels)
    if not levels or not all(isinstance(lv, PimLevel) for lv in levels):
        raise ValueError(f"levels must be a non-empty sequence of PimLevel, got {levels!r}")
    if isinstance(max_pinned_bits, bool) or not isinstance(max_pinned_bits, Integral):
        raise ValueError(f"max_pinned_bits must be an integer, got {max_pinned_bits!r}")
    if max_pinned_bits < 0:
        raise ValueError(f"max_pinned_bits must be non-negative, got {max_pinned_bits}")
    padded = shape.padded(word_bytes=config.word_bytes, block_bytes=mapping.geometry.block_bytes)
    m, n = padded.m, padded.n
    cands = _candidates(config, mapping, m, padded.k, levels, max_pinned_bits)
    order = []
    for index, cand in enumerate(cands):
        part = cand.costs.partition(m, n, cand.max_group_cols)
        if part is None:
            continue  # batch too large for this level's scratchpad
        fills = _fill_cycles(cand, n, part)  # the bound's, handed to _price
        order.append((_lower_bound(cand, n, flow, part, fills), index, part, fills))
    order.sort()  # indices are distinct, so partitions are never compared
    best = None
    best_index = n_priced = 0
    for bound, index, part, fills in order:
        if best is not None and bound > best[0][0]:
            break  # every later bound is at least as large
        n_priced += 1
        cand = cands[index]
        priced = _price(cand, n, part, fills, agen, flow)
        if best is None or (priced[0], index) < (best[0][0], best_index):
            best, best_index = (priced, cand, part), index
    if BUS.enabled:
        priced_ids = {index for _, index, _, _ in order[:n_priced]}
        for index, cand in enumerate(cands):  # infeasible ones count as pruned
            name = "priced" if index in priced_ids else "pruned"
            BUS.inc("pricing.search." + name, level=cand.level.short)
    if best is None:
        raise ValueError(f"no feasible PIM configuration for {shape}")
    priced, cand, part = best

    def build() -> GemmResult:
        rpart, cpart, n_rparts, frac, direct = part
        plan = GemmPlan(
            shape=padded,
            orig_shape=shape,
            level=cand.level,
            unit=cand.costs.unit,
            analysis=cand.footprint(),
            rpart_rows=rpart,
            cpart_blocks=cpart,
            n_rparts=n_rparts,
            scratchpad_c_fraction=frac,
            direct_scratchpad=direct,
            footprint_key=cand.footprint_key,
        )
        return _result(plan, priced, agen, flow)

    return _SearchedChoice(cand.level, cand.pinned, priced[0], build)
