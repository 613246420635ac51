"""StepStone GEMM timing executor.

Turns a :class:`~repro.core.gemm.GemmPlan` into the Fig. 6 latency breakdown:

====================  ======================================================
Phase                 Model
====================  ======================================================
Localization          DMA (or CPU, for eCHO) writes replicating B into
                      per-(PIM, group) regions at channel bandwidth.
Buffer fill (B)       PIM-local sequential reads of the reorganized B tiles,
                      once per row partition.
Buffer fill (C)       PIM-local sequential reads of the C partial tiles.
GEMM                  Per-access max(cadence, AGEN iterations, SIMD time)
                      over the exact per-(PIM, group) access pattern, plus
                      residual row-miss penalties.
Buffer drain (C)      Mirror of fill (C).
Reduction             DMA (or CPU) reads every slice's C partial and writes
                      the final C.
====================  ======================================================

The GEMM phase is evaluated on the makespan-critical PIM (the one owning the
most blocks); phases are serial, as in the paper's stacked bars.

Pricing is split in two.  Everything N-independent is built once per
process: a :class:`_Candidate` per footprint and unit (its analysis,
totals and keys), a :class:`_UnitConstants` per unit (its constants,
partitionings and fill streams, shared by its candidates) and, once a
candidate is priced, the critical PIM's per-group *profile*
(:func:`_gemm_profile`: one cadence histogram and one row-miss count,
the same for every group), each in a table of :mod:`repro.core.memo`.
The per-N *evaluation*, :func:`_price`, is the one home of the
N-dependent cycles arithmetic: for a candidate, a batch width and a
partitioning it combines the profile with the SIMD time in O(groups)
scalar arithmetic, using two exact closed forms (DESIGN.md, "Pricing
once"): the group sum ``n_rows * sum(count * max(value, compute))`` over
the histogram, and a zero AGEN stall whenever ``max(cadence_min,
compute) >= 3``, and adds the fill, drain, off-chip and launch terms.
The configuration search and :func:`execute_plan` both price through it;
:func:`_result` adds the whole-footprint totals (blocks, fill traffic)
in closed form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.core.agen import stepstone_iteration_counts
from repro.core.config import PimUnitConfig, StepStoneConfig
from repro.core.gemm import (
    GemmPlan,
    GemmShape,
    Partition,
    ScratchpadInfeasible,
    _footprint_key,
    _kernel_launches,
    _partition,
    plan_gemm,
)
from repro.core.memo import PRICING_MEMO
from repro.dram.stream import sequential_stream_cycles
from repro.dram.timing import DDR4Timing
from repro.mapping.analysis import FootprintAnalysis
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping
from repro.utils.bits import gf2_coset

__all__ = [
    "LatencyBreakdown",
    "GemmResult",
    "execute_gemm",
    "execute_plan",
]

#: Address generators the timing model knows (§III-D vs. the naive walk).
_AGENS = ("stepstone", "naive")
#: Execution flows: StepStone's DMA + long-running kernel, or eCHO.
_FLOWS = ("stepstone", "echo")


def _check_modes(agen: str, flow: str) -> None:
    """Raise ``ValueError`` unless ``agen`` and ``flow`` are known modes."""
    if agen not in _AGENS:
        raise ValueError(f"unknown agen {agen!r}; choose from {_AGENS}")
    if flow not in _FLOWS:
        raise ValueError(f"unknown flow {flow!r}; choose from {_FLOWS}")


@dataclass
class LatencyBreakdown:
    """Per-phase DRAM-clock cycles (Fig. 6 components)."""

    gemm: float = 0.0
    fill_b: float = 0.0
    fill_c: float = 0.0
    drain_c: float = 0.0
    localization: float = 0.0
    reduction: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.gemm
            + self.fill_b
            + self.fill_c
            + self.drain_c
            + self.localization
            + self.reduction
        )

    @property
    def overhead(self) -> float:
        """Everything that is not the GEMM arithmetic/stream itself."""
        return self.total - self.gemm

    def as_dict(self) -> Dict[str, float]:
        return {
            "gemm": self.gemm,
            "fill_b": self.fill_b,
            "fill_c": self.fill_c,
            "drain_c": self.drain_c,
            "localization": self.localization,
            "reduction": self.reduction,
            "total": self.total,
        }

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            self.gemm + other.gemm,
            self.fill_b + other.fill_b,
            self.fill_c + other.fill_c,
            self.drain_c + other.drain_c,
            self.localization + other.localization,
            self.reduction + other.reduction,
        )

    def scaled(self, s: float) -> "LatencyBreakdown":
        return LatencyBreakdown(
            self.gemm * s,
            self.fill_b * s,
            self.fill_c * s,
            self.drain_c * s,
            self.localization * s,
            self.reduction * s,
        )


@dataclass
class GemmResult:
    """Execution result: latency breakdown plus energy-relevant volumes."""

    plan: GemmPlan
    breakdown: LatencyBreakdown
    agen: str
    flow: str
    bubble_stall_cycles: float
    kernel_launches: int
    # Energy accounting (whole GEMM, all PIMs):
    pim_dram_blocks: float = 0.0  # blocks moved inside DRAM by PIMs
    offchip_blocks: float = 0.0  # blocks crossing the channel (loc/red)
    simd_mac_ops: float = 0.0
    scratchpad_accesses: float = 0.0

    @property
    def cycles(self) -> float:
        return self.breakdown.total

    def seconds(self, clock_hz: float = 1.2e9) -> float:
        return self.breakdown.total / clock_hz


def _row_misses(warm: List[int], walk: List[int], bank: int, row: int) -> int:
    """Row-buffer misses of ``walk`` (access codes in program order) run
    right after ``warm``: an access misses on its bank's first visit, or
    when the bank's previous access had another row open.  ``bank`` and
    ``row`` are the code bits of those fields."""
    open_rows = {x & bank: x & row for x in warm}
    misses = 0
    for x in walk:
        b, r = x & bank, x & row
        if open_rows.get(b) != r:
            misses += 1
            open_rows[b] = r
    return misses


class _GroupProfile:
    """N-independent pricing of one group walk on the critical PIM.

    Its scalars are every group's (see :func:`_gemm_profile`) and all the
    StepStone AGEN's closed forms read: ``cadence_hist`` ((value, count),
    ascending), its ``cadence_min``, ``cadence_max``, ``cadence_den``
    (power-of-two denominator) and ``cadence_sum`` (``sum(count *
    value)``, in order), ``n_cols``, ``n_rows``, ``n_blk`` (``n_cols *
    n_rows``) and ``crossings`` (steady-state row misses per row walk,
    times ``n_rows``).  The per-access tuples of one row walk, read only
    by the naive AGEN and the array fallbacks, are built on first read.
    """

    def __init__(self, shared: Dict, fa: FootprintAnalysis, group: int) -> None:
        self.__dict__.update(shared)
        self._fa, self._group = fa, group

    @cached_property
    def cadence(self) -> Tuple[float, ...]:
        """The CAS spacing before each access."""
        steps, gap = self._steps, self._gap
        return (self._first_gap, *(gap(a ^ b) for a, b in zip(steps, steps[1:])))

    @cached_property
    def naive_within(self) -> Tuple[float, ...]:
        """The naive generator's probes: one per gap block."""
        cols = self._fa.local_cols(self._fa.critical_pim, self._group)
        return (1.0, *(float(b - a) for a, b in zip(cols, cols[1:])))

    @cached_property
    def naive_row_gap(self) -> float:
        """The true block gap from the last block of one group row to the
        first of the next."""
        fa, grp, n_rows = self._fa, self._group, self.n_rows
        if n_rows == 1:
            return 2.0
        cols = fa.local_cols(fa.critical_pim, grp)
        gap = (fa.group_row(grp, n_rows - 1) - fa.group_row(grp, 0)) / (n_rows - 1)
        return max(1.0, gap * fa.blocks_per_row - cols[-1] + cols[0])


def _gemm_profile(
    t: DDR4Timing, fa: FootprintAnalysis, unit: PimUnitConfig
) -> Tuple[_GroupProfile, ...]:
    """Per-group profiles of the footprint's critical PIM (Algorithm 1 walks).

    A group's row walk visits one coset of ker C in ascending order, so
    step ``i`` of every group's walk XORs the same vector into the column:
    the echelon basis vectors up to ``i``'s lowest set bit.  The cadence,
    which compares the rank and bank group of consecutive accesses, is
    therefore one histogram for every group, with ``n_cols >> (j + 1)``
    steps through basis vector ``j``.  A group's second row walk is its
    first XOR the code of the row kernel's first vector, and XOR-ing every
    code by one constant moves no row miss, so the steady-state row misses
    of the shared steps are every group's.
    """
    mapping = fa.mapping
    bb = mapping.geometry.block_bytes
    kernel = [mapping.code(b * bb) for b in fa.col_kernel]
    rank, rank_bg = mapping.code_mask("rank"), mapping.code_mask("rank", "bankgroup")
    if unit.level is PimLevel.BANKGROUP:  # confined to one bank group
        ccdl = first_gap = switch = float(unit.cadence(t))
    else:  # tCCD_L within a bank group, tCCD_S across, rank switch across ranks
        ccdl, first_gap, switch = float(t.tCCDL), float(t.tCCDS), float(t.tBL + t.tRTRS)

    def gap(d: int) -> float:
        return switch if d & rank else first_gap if d & rank_bg else ccdl

    n_cols, n_rows = 1 << len(kernel), fa.group_size
    counts, d = Counter({first_gap: 1}), 0
    for j, b in enumerate(kernel):
        d ^= b
        counts[gap(d)] += n_cols >> (j + 1)
    h = tuple(sorted(counts.items()))
    # Column-code offsets of one walk from its first access.
    steps = gf2_coset(0, kernel)
    bank, row = mapping.code_mask("rank", "bankgroup", "bank"), mapping.code_mask("row")
    if n_rows > 1:
        # Steady state: the second row's walk, after the first.
        second = mapping.code(fa.row_kernel[0] * fa.row_bytes)
        misses = _row_misses(steps, [second ^ d for d in steps], bank, row)
    else:
        misses = _row_misses([], steps, bank, row)
    shared = dict(
        cadence_hist=h, cadence_min=h[0][0], cadence_max=h[-1][0],
        cadence_den=max(v.as_integer_ratio()[1] for v, _ in h),
        cadence_sum=sum(k * v for v, k in h), n_cols=n_cols, n_rows=n_rows,
        n_blk=n_cols * n_rows, crossings=float(misses) * n_rows,
        _steps=steps, _gap=gap, _first_gap=first_gap,
    )
    return tuple(_GroupProfile(shared, fa, grp) for grp in fa.groups_of(fa.critical_pim))


class _UnitConstants:
    """Every constant of pricing on one PIM unit of one configuration (the
    unit, DMA, launch and refresh constants, and the cadence floor of
    :func:`repro.core.scheduler._lower_bound`), and every partitioning and
    fill stream on the unit, each evaluated once: all the unit's
    candidates share one through the ``unit`` memo."""

    __slots__ = (
        "unit", "timing", "word_bytes", "slices", "cadence", "blocks_per_row", "cover",
        "per_miss", "refresh", "launch_cycles", "channels", "offchip", "cadence_floor",
        "_partitions", "_streams",
    )

    def __init__(self, config: StepStoneConfig, unit: PimUnitConfig) -> None:
        t, dma = config.timing, config.dma
        self.unit, self.timing, self.word_bytes = unit, t, config.word_bytes
        self.slices = unit.slices_per_unit
        self.cadence = float(unit.cadence(t))
        self.blocks_per_row = config.geometry.blocks_per_row
        self.cover = float(unit.pipeline_depth)  # the AGEN's run-ahead credit
        # Residual row-miss cost: StepStone pre-activates upcoming rows,
        # hiding all but (penalty - pipeline) cycles; the naive generator
        # cannot run ahead and pays the full penalty.
        self.per_miss = {
            "stepstone": max(0.0, t.row_miss_penalty - self.cover),
            "naive": float(t.row_miss_penalty),
        }
        self.refresh = 1.0 / (1.0 - t.refresh_overhead)
        self.launch_cycles = dma.kernel_launch_cycles
        self.channels = max(1, config.channels)
        chan_bw = dma.bytes_per_cycle_per_channel * config.channels
        self.offchip = {  # (bandwidth, per-block cost): the DMA engine, or CPU cores
            "stepstone": (chan_bw, dma.per_block_overhead_cycles),
            "echo": (chan_bw * dma.cpu_efficiency, dma.cpu_per_block_overhead_cycles),
        }
        # _lower_bound: the fastest CAS spacing.
        bg = unit.level is PimLevel.BANKGROUP
        self.cadence_floor = self.cadence if bg else float(min(t.tCCDS, t.tCCDL, t.tBL + t.tRTRS))
        self._partitions: Dict[Tuple[int, int, int], Optional[Partition]] = {}
        self._streams: Dict[float, float] = {}

    def partition(self, m: int, n: int, max_group_cols: int) -> Optional[Partition]:
        """:func:`repro.core.gemm._partition` on this unit, or ``None``
        when the batch does not fit its scratchpad."""
        key = (m, n, max_group_cols)
        if key not in self._partitions:
            try:
                self._partitions[key] = _partition(self.unit, m, n, max_group_cols, self.word_bytes)
            except ScratchpadInfeasible:
                self._partitions[key] = None
        return self._partitions[key]

    def stream(self, n_blocks: float) -> float:
        """Cycles of a sequential scan of ``n_blocks`` blocks on this unit."""
        if n_blocks not in self._streams:
            self._streams[n_blocks] = sequential_stream_cycles(
                n_blocks, self.timing, self.cadence, self.blocks_per_row
            )
        return self._streams[n_blocks]


class _Candidate:
    """Every N-independent fact of pricing one footprint on one unit.

    One (level, pinned ID bits) configuration of a padded M x K weight
    matrix: its analysis (three GF(2) eliminations; its active PIMs are
    listed only when priced), the critical-PIM totals the bound reads, the
    footprint and ``profile`` keys, and the unit's constants.  Searches
    keep candidates in the ``candidates`` memo, so a new batch width
    starts from here; :func:`_price` adds the N-dependent half.
    """

    __slots__ = (
        "level", "pinned", "costs", "m", "footprint_key", "profile_key", "analysis",
        "n_pims", "crit_blocks", "crit_cols", "max_group_cols", "total_cols",
    )

    def __init__(
        self, config: StepStoneConfig, unit: PimUnitConfig, fa: FootprintAnalysis
    ) -> None:
        self.level, self.pinned, self.m, self.analysis = fa.level, fa.pinned_id_bits, fa.m_rows, fa
        self.costs = PRICING_MEMO.lookup(
            "unit", (config.hardware_key, unit), lambda: _UnitConstants(config, unit)
        )
        self.footprint_key = _footprint_key(
            fa.mapping, fa.level, fa.m_rows, fa.k_cols, fa.base, fa.word_bytes, fa.pinned_id_bits
        )
        self.profile_key = (self.footprint_key, config.hardware_key)
        # Every active PIM owns as many blocks and columns (DESIGN.md,
        # "Footprint constants from ranks").
        n = self.n_pims = fa.n_active_pims
        self.max_group_cols, self.total_cols = fa.group_cols, fa.total_cols
        self.crit_blocks, self.crit_cols = fa.total_blocks // n, fa.total_cols // n

    def footprint(self) -> FootprintAnalysis:
        """The analysis, read through the ``footprint`` memo (which it
        joins on its first read, so a pruned candidate adds no entry)."""
        return PRICING_MEMO.lookup("footprint", self.footprint_key, lambda: self.analysis)


def _plan_candidate(config: StepStoneConfig, plan: GemmPlan) -> _Candidate:
    """The pricing candidate of an existing plan (its unit and analysis)."""
    return _Candidate(config, plan.unit, plan.analysis)


def _gemm_phase_cycles(
    cand: _Candidate, fa: FootprintAnalysis, n: int, agen: str, naive_full_gaps: bool
) -> tuple[float, float]:
    """(cycles, bubble_stall) of the GEMM phase on the critical PIM.

    The per-group profiles are N-independent and come from the
    ``profile`` memo; this is the O(groups) N-dependent evaluation.
    """
    u = cand.costs
    profile = PRICING_MEMO.lookup(
        "profile", cand.profile_key, lambda: _gemm_profile(u.timing, fa, u.unit)
    )
    compute = u.unit.compute_cycles_per_block(n)
    compute_den = float(compute).as_integer_ratio()[1]
    lookahead_cover = u.cover
    per_miss = u.per_miss[agen]
    total = 0.0
    stall = 0.0
    for gp in profile:
        base = None
        if (
            agen == "stepstone"
            and lookahead_cover >= 0.0
            and max(gp.cadence_min, compute) >= 3.0
        ):
            # Over steps 0..K the AGEN issues 3K + 2 - popcount(K)
            # iterations while the pipe retires at least 3(K + 1) cycles,
            # so the cumulative deficit below is always negative.
            group_stall = 0.0
        else:
            import numpy as np

            base = np.tile(np.maximum(gp.cadence, compute), gp.n_rows)
            if agen == "stepstone":
                iters = stepstone_iteration_counts(gp.n_blk).astype(np.float64)
            else:
                n_cols = gp.n_cols
                iters = np.tile(gp.naive_within, gp.n_rows)
                # Row advance: the true gap, or one loop-assisted step.
                iters[n_cols::n_cols] = gp.naive_row_gap if naive_full_gaps else 2.0
            # The AGEN runs ahead of the access pipeline through a
            # pipeline_depth-deep FIFO, so transient long iteration counts
            # borrow earlier slack; the pipe only starves once the
            # cumulative iteration deficit exceeds the run-ahead credit
            # (§III-A/§V-C: "its latency can always be hidden within the
            # pipeline").
            deficit = np.cumsum(iters - base)
            group_stall = max(0.0, float(deficit.max()) - lookahead_cover)
        # Every value is a multiple of 1/den; while the group total stays
        # below 2**53 such units, every partial sum is exact in any order,
        # so one row's sum -- count * max(value, compute) over the cadence
        # histogram -- times n_rows equals the sum of the tiled walk.  That
        # row sum is the stored cadence sum when no value is below the SIMD
        # time, and n_cols * compute (exact too) when none is above it.
        den = max(gp.cadence_den, compute_den)
        if gp.n_blk * max(gp.cadence_max, compute) * den < 2.0**53:
            if compute <= gp.cadence_min:
                row_sum = gp.cadence_sum
            elif compute >= gp.cadence_max:
                row_sum = gp.n_cols * compute
            else:
                row_sum = sum(k * max(v, compute) for v, k in gp.cadence_hist)
            group_sum = gp.n_rows * row_sum
        else:
            import numpy as np

            if base is None:
                base = np.tile(np.maximum(gp.cadence, compute), gp.n_rows)
            group_sum = float(np.sum(base))
        total += group_sum + group_stall
        stall += group_stall

        # Residual row-buffer miss penalties.  A miss happens only when a
        # bank is revisited with a *different* row open, so the profile
        # counts the steady-state misses of a group's second row walk.
        total += gp.crossings * per_miss
    # Refresh steals a fixed fraction of PIM-visible time.
    total *= u.refresh
    return total, stall


def _offchip_cycles(cand: _Candidate, n: int, flow: str) -> Tuple[float, float, float, float]:
    """``(localization, reduction, loc_blocks, red_blocks)`` at batch ``n``:
    the channel transfers of the DMA engine, or of the CPU cores for eCHO.

    Localization replicates B into every (PIM, group) region (K x N words
    per group, spread over the PIMs owning its columns); reduction reads
    every active PIM's M x N partial and writes the final C.
    """
    bw, per_block = cand.costs.offchip[flow]
    wb = cand.costs.word_bytes
    loc_bytes = cand.total_cols * 16 * n * wb
    red_bytes = cand.m * n * (cand.n_pims + 1) * wb
    loc_blocks = loc_bytes / 64.0
    red_blocks = red_bytes / 64.0
    localization = loc_bytes / bw + loc_blocks * per_block
    return localization, red_bytes / bw + red_blocks * per_block, loc_blocks, red_blocks


def _fill_cycles(cand: _Candidate, n: int, part: Partition) -> Tuple[float, float, float]:
    """``(fill_b, fill_c, fill_c_blocks)`` of partitioning ``part`` at batch
    ``n``: when staged (not direct), the critical PIM's B tiles stream in
    once per row partition, and its C partials (``fill_c_blocks``) stream
    in and, mirrored, out."""
    _, _, n_rparts, _, direct = part
    if direct:
        return 0.0, 0.0, 0.0
    u = cand.costs
    fill_c_blocks = cand.m * n * u.slices / 16.0
    return u.stream(float(cand.crit_cols * n * n_rparts)), u.stream(fill_c_blocks), fill_c_blocks


#: :func:`_price`'s result: ``(total, gemm, fill_b, fill_c, localization,
#: reduction, bubble_stall, kernel_launches, offchip_blocks, fill_c_blocks)``.
Priced = Tuple[float, float, float, float, float, float, float, int, float, float]


def _price(
    cand: _Candidate,
    n: int,
    part: Partition,
    fills: Tuple[float, float, float],
    agen: str = "stepstone",
    flow: str = "stepstone",
    naive_full_gaps: bool = True,
    launch_delay_cycles: float = 0.0,
) -> Priced:
    """Cycles of one candidate at batch ``n`` under partitioning ``part``.

    The one home of the per-width timing arithmetic: the GEMM phase,
    buffer fill and drain streams, localization and reduction, launches,
    and their sum in :attr:`LatencyBreakdown.total` order.  Reads the
    footprint record and its profile through the memo.  ``fills`` is
    :func:`_fill_cycles` of the same candidate, width and partitioning
    (the search has it from the bound).
    """
    fa = cand.footprint()
    _, cpart, n_rparts, _, _ = part
    gemm, stall = _gemm_phase_cycles(cand, fa, n, agen, naive_full_gaps)
    fill_b, fill_c, fill_c_blocks = fills

    localization, reduction, loc_blocks, red_blocks = _offchip_cycles(cand, n, flow)

    launches = _kernel_launches(fa, flow, n_rparts, cpart)
    # Launch packets serialize on the command channel; under contention each
    # also waits `launch_delay_cycles`.  For the long-running StepStone
    # kernel this is negligible; for eCHO's per-dot kernels it is the
    # dominant §V-G effect.  Launches are spread over active PIMs but the
    # command channel is shared, so the critical path sees the full stream.
    launch = launches * (cand.costs.launch_cycles + launch_delay_cycles)
    launch /= cand.costs.channels
    gemm += launch

    total = gemm + fill_b + fill_c + fill_c + localization + reduction
    return (
        total, gemm, fill_b, fill_c, localization, reduction, stall, launches,
        loc_blocks + red_blocks, fill_c_blocks,
    )


def _result(plan: GemmPlan, priced: Priced, agen: str, flow: str) -> GemmResult:
    """The :class:`GemmResult` of a plan priced by :func:`_price`."""
    _, gemm, fill_b, fill_c, localization, reduction, stall, launches, offchip, fill_c_blocks = (
        priced
    )
    # Fill traffic of every PIM, in closed form: each PIM's fill (C) is the
    # same, and every term is a multiple of 1/16 far below 2**53, so this
    # is exactly the per-PIM float sum.
    fa, shape = plan.analysis, plan.shape
    fill_blocks_all = 0.0
    if not plan.direct_scratchpad:
        fill_b_all = float(fa.total_cols * shape.n * plan.n_rparts)
        fill_blocks_all = fill_b_all + 2 * plan.n_active_pims * fill_c_blocks
    simd_macs = float(shape.m) * shape.k * shape.n
    return GemmResult(
        plan=plan,
        breakdown=LatencyBreakdown(gemm, fill_b, fill_c, fill_c, localization, reduction),
        agen=agen,
        flow=flow,
        bubble_stall_cycles=stall,
        kernel_launches=launches,
        pim_dram_blocks=float(fa.total_blocks) + fill_blocks_all,
        offchip_blocks=offchip,
        simd_mac_ops=simd_macs,
        # Scratchpad: one read per operand pair per MAC plus C update traffic.
        scratchpad_accesses=2.0 * simd_macs / plan.unit.simd_width,
    )


def execute_plan(
    config: StepStoneConfig,
    plan: GemmPlan,
    agen: str = "stepstone",
    flow: str = "stepstone",
    naive_full_gaps: bool = True,
    launch_delay_cycles: float = 0.0,
) -> GemmResult:
    """Run the timing model over an existing plan.

    ``flow='stepstone'`` uses the PIM-controller DMA engine for
    localization/reduction and one long-running kernel per PIM;
    ``flow='echo'`` (enhanced Chopim) runs the same block-grouped GEMM but
    performs localization/reduction on CPU cores and launches one kernel per
    dot-product row.  ``launch_delay_cycles`` adds per-launch command-channel
    delay (used by the colocation study, Fig. 13).
    """
    _check_modes(agen, flow)
    part = (
        plan.rpart_rows,
        plan.cpart_blocks,
        plan.n_rparts,
        plan.scratchpad_c_fraction,
        plan.direct_scratchpad,
    )
    cand, n = _plan_candidate(config, plan), plan.shape.n
    priced = _price(
        cand, n, part, _fill_cycles(cand, n, part), agen, flow, naive_full_gaps,
        launch_delay_cycles,
    )
    return _result(plan, priced, agen, flow)


def execute_gemm(
    config: StepStoneConfig,
    mapping: XORAddressMapping,
    shape: GemmShape,
    level: PimLevel,
    agen: str = "stepstone",
    flow: str = "stepstone",
    base: int = 0,
    pinned_id_bits: int = 0,
    unit: Optional[PimUnitConfig] = None,
    naive_full_gaps: bool = True,
    launch_delay_cycles: float = 0.0,
) -> GemmResult:
    """Plan + execute one GEMM (see :func:`repro.core.gemm.plan_gemm`)."""
    plan = plan_gemm(
        config, mapping, shape, level, base=base, pinned_id_bits=pinned_id_bits, unit=unit
    )
    return execute_plan(config, plan, agen, flow, naive_full_gaps, launch_delay_cycles)
