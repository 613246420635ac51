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

Pricing is split in two.  The per-group *profile* of the critical PIM (one
row walk's cadence, the row count, the steady-state row misses) depends
only on the weight footprint and the DRAM timing, so it is computed once
per process and kept in the ``profile`` memo (:mod:`repro.core.memo`).
:func:`_gemm_profile` builds it over Python ints from the footprint's
cosets: the cadence depends only on the XOR steps between consecutive
columns, which every group shares, so only the first and second row
walks of each group are looped over, for the naive gaps and row misses.
The per-N *evaluation*, :func:`_price`, is the one home of
the N-dependent cycles arithmetic: it takes a :class:`_Candidate` (every
N-independent constant of one footprint on one unit), a batch width and
a partitioning, combines the profile with the SIMD time in O(groups)
scalar arithmetic, using two exact closed forms (DESIGN.md, "Pricing
once"): the group sum ``n_rows * sum(count * max(value, compute))`` over
the histogram, and a zero AGEN stall whenever ``max(cadence_min,
compute) >= 3``, and adds the fill, drain, off-chip and launch terms.
The configuration search and :func:`execute_plan` both price through it;
:func:`_result` adds the whole-footprint totals (blocks, fill traffic)
from the shared footprint record in closed form.  A candidate takes the
footprint totals its bound needs from GF(2) ranks and reads the record
only once priced, so a pruned candidate builds none.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.agen import stepstone_iteration_counts
from repro.core.config import PimUnitConfig, StepStoneConfig
from repro.core.gemm import (
    FootprintWork,
    GemmPlan,
    GemmShape,
    Partition,
    _footprint,
    _footprint_key,
    _kernel_launches,
    plan_gemm,
)
from repro.core.memo import PRICING_MEMO
from repro.dram.stream import sequential_stream_cycles
from repro.dram.timing import DDR4Timing
from repro.mapping.analysis import check_placement, footprint_id_vectors
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping
from repro.utils.bits import gf2_coset, gf2_rank

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


@dataclass(frozen=True)
class _GroupProfile:
    """N-independent pricing of one group walk on the critical PIM.

    Everything here is O(n_cols): one row walk's data, plus scalars that
    say how often it repeats.  The n_blk-long traces are rebuilt per call,
    and only when a closed form does not apply.
    """

    cadence: Tuple[float, ...]  # per-access CAS spacing of one row walk
    cadence_hist: Tuple[Tuple[float, int], ...]  # (value, count), ascending
    cadence_min: float
    cadence_max: float
    cadence_den: int  # power-of-two denominator of the cadence values
    cadence_sum: float  # sum(count * value) over the histogram, in order
    n_rows: int
    n_blk: int  # n_cols * n_rows accesses over the group
    crossings: float  # steady-state row misses per row walk * n_rows
    naive_within: Tuple[float, ...]  # naive generator probes within one row walk
    naive_row_gap: float  # true block gap between consecutive group rows


def _gemm_profile(
    t: DDR4Timing, fp: FootprintWork, unit: PimUnitConfig
) -> Tuple[_GroupProfile, ...]:
    """Per-group profiles of the footprint's critical PIM (Algorithm 1 walks).

    A group's row walk visits one coset of ker C in ascending order, so
    step ``i`` of every group's walk XORs the same vector into the column
    (the echelon basis vectors up to ``i``'s lowest set bit): the cadence,
    which compares the rank and bank group of consecutive accesses, is one
    tuple for every group.  Each group's first row walk (and its second,
    when it has one) is then a list of packed codes, a row code XOR the
    shared column steps, for the steady-state row misses.
    """
    fa = fp.analysis
    mapping = fa.mapping
    pim = fp.critical_pim
    bb = mapping.geometry.block_bytes
    # Column-code offsets of one walk from its first access.
    steps = gf2_coset(0, [mapping.code(b * bb) for b in fa.col_kernel])
    if unit.level is PimLevel.BANKGROUP:
        cadence = (float(unit.cadence(t)),) * len(steps)  # confined to one bank group
    else:
        # tCCD_L within a bank group, tCCD_S across, rank switch across ranks.
        rank, rank_bg = mapping.code_mask("rank"), mapping.code_mask("rank", "bankgroup")
        ccdl, ccds, switch = float(t.tCCDL), float(t.tCCDS), float(t.tBL + t.tRTRS)
        cadence = (ccds,) + tuple(
            switch if d & rank else ccds if d & rank_bg else ccdl
            for d in (a ^ b for a, b in zip(steps, steps[1:]))
        )
    n_rows, h = fa.group_size, tuple(sorted(Counter(cadence).items()))
    shared = dict(
        cadence=cadence, cadence_hist=h, cadence_min=h[0][0], cadence_max=h[-1][0],
        cadence_den=max(v.as_integer_ratio()[1] for v, _ in h),
        cadence_sum=sum(k * v for v, k in h), n_rows=n_rows, n_blk=len(steps) * n_rows,
    )
    bank, row = mapping.code_mask("rank", "bankgroup", "bank"), mapping.code_mask("row")

    def walk(r: int, first_col: int) -> List[int]:
        head = mapping.code(fa.base + r * fa.row_bytes + first_col * bb)
        return [head ^ d for d in steps]

    out = []
    for grp in range(fa.n_groups):
        cols = fa.local_cols(pim, grp)
        if not cols:
            continue
        first = fa.group_row(grp, 0)
        walk1 = walk(first, cols[0])
        if n_rows > 1:
            # Steady state: the second row's walk, after the first.
            misses = _row_misses(walk1, walk(fa.group_row(grp, 1), cols[0]), bank, row)
            # The naive generator's true block gap from the last block of
            # one group row to the first of the next.
            gap = (fa.group_row(grp, n_rows - 1) - first) / (n_rows - 1)
            row_gap = max(1.0, gap * fa.blocks_per_row - cols[-1] + cols[0])
        else:
            misses, row_gap = _row_misses([], walk1, bank, row), 2.0
        out.append(
            _GroupProfile(
                **shared,
                crossings=float(misses) * n_rows,
                # The naive generator probes one block per gap block.
                naive_within=(1.0, *(float(b - a) for a, b in zip(cols, cols[1:]))),
                naive_row_gap=row_gap,
            )
        )
    return tuple(out)


class _Candidate:
    """Every N-independent constant of pricing one footprint on one unit.

    One (level, pinned ID bits) configuration of a padded M x K weight
    matrix: the footprint record's key and its critical-PIM totals, the
    ``profile`` key, the unit, DMA and refresh constants, and the cadence
    floor of :func:`repro.core.scheduler._lower_bound`.
    Searches keep candidates in the ``candidates`` memo, so a new batch
    width starts from here; :func:`_price` adds the N-dependent half.
    The footprint totals are ranks of the PIM-ID vectors of its column
    bits C and row bits R (DESIGN.md, "Footprint constants from ranks");
    the record is built on the first :meth:`footprint` read.
    """

    __slots__ = (
        "level", "pinned", "unit", "m", "word_bytes", "mapping", "footprint_key",
        "profile_key", "timing", "n_pims", "crit_blocks", "crit_cols", "max_group_cols",
        "total_cols", "slices", "cadence", "blocks_per_row", "cover", "per_miss", "refresh",
        "launch_cycles", "channels", "offchip", "cadence_floor",
    )

    def __init__(self, config, mapping, level, unit, m, k, base, pinned) -> None:
        t, dma, wb = config.timing, config.dma, config.word_bytes
        self.level, self.pinned, self.unit, self.m, self.word_bytes = level, pinned, unit, m, wb
        self.mapping = mapping
        self.footprint_key = _footprint_key(mapping, level, m, k, base, wb, pinned)
        self.profile_key = (self.footprint_key, t, level)
        self.timing = t
        # The ID vectors of C and R; the base only picks the coset.
        row_bytes = k * wb
        check_placement(mapping.geometry, base, m * row_bytes)
        col_ids, row_ids = footprint_id_vectors(mapping, level, pinned, row_bytes, m * row_bytes)
        d_c = len(col_ids)
        r_c, r_r, r_cr = gf2_rank(col_ids), gf2_rank(row_ids), gf2_rank(col_ids + row_ids)
        self.n_pims = 1 << r_cr
        self.crit_blocks = (m << d_c) >> r_cr
        self.crit_cols = 1 << (r_r + d_c - r_cr)
        self.max_group_cols = 1 << (d_c - r_c)
        self.total_cols = 1 << (r_r + d_c)
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
        self.cadence_floor = (
            self.cadence
            if level is PimLevel.BANKGROUP
            else float(min(t.tCCDS, t.tCCDL, t.tBL + t.tRTRS))
        )

    def footprint(self) -> FootprintWork:
        """The footprint record, read through the ``footprint`` memo."""
        return _footprint(self.mapping, self.footprint_key)


def _plan_candidate(config: StepStoneConfig, plan: GemmPlan) -> _Candidate:
    """The pricing candidate of an existing plan (its unit, base and subset)."""
    fa = plan.analysis
    return _Candidate(
        config, fa.mapping, plan.level, plan.unit, plan.shape.m, plan.shape.k, fa.base,
        fa.pinned_id_bits,
    )


def _gemm_phase_cycles(
    cand: _Candidate, fp: FootprintWork, n: int, agen: str, naive_full_gaps: bool
) -> tuple[float, float]:
    """(cycles, bubble_stall) of the GEMM phase on the critical PIM.

    The per-group profiles are N-independent and come from the
    ``profile`` memo; this is the O(groups) N-dependent evaluation.
    """
    t = cand.timing
    profile = PRICING_MEMO.lookup(
        "profile", cand.profile_key, lambda: _gemm_profile(t, fp, cand.unit)
    )
    compute = cand.unit.compute_cycles_per_block(n)
    compute_den = float(compute).as_integer_ratio()[1]
    lookahead_cover = cand.cover
    per_miss = cand.per_miss[agen]
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
                n_cols = len(gp.cadence)
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
                row_sum = len(gp.cadence) * compute
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
    total *= cand.refresh
    return total, stall


def _offchip_cycles(cand: _Candidate, n: int, flow: str) -> Tuple[float, float, float, float]:
    """``(localization, reduction, loc_blocks, red_blocks)`` at batch ``n``:
    the channel transfers of the DMA engine, or of the CPU cores for eCHO.

    Localization replicates B into every (PIM, group) region (K x N words
    per group, spread over the PIMs owning its columns); reduction reads
    every active PIM's M x N partial and writes the final C.
    """
    bw, per_block = cand.offchip[flow]
    loc_bytes = cand.total_cols * 16 * n * cand.word_bytes
    red_bytes = cand.m * n * (cand.n_pims + 1) * cand.word_bytes
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
    stream = (cand.timing, cand.cadence, cand.blocks_per_row)
    fill_c_blocks = cand.m * n * cand.slices / 16.0
    fill_b = sequential_stream_cycles(float(cand.crit_cols * n * n_rparts), *stream)
    return fill_b, sequential_stream_cycles(fill_c_blocks, *stream), fill_c_blocks


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
    fp = cand.footprint()
    _, cpart, n_rparts, _, _ = part
    gemm, stall = _gemm_phase_cycles(cand, fp, n, agen, naive_full_gaps)
    fill_b, fill_c, fill_c_blocks = fills

    localization, reduction, loc_blocks, red_blocks = _offchip_cycles(cand, n, flow)

    launches = _kernel_launches(fp, flow, n_rparts, cpart)
    # Launch packets serialize on the command channel; under contention each
    # also waits `launch_delay_cycles`.  For the long-running StepStone
    # kernel this is negligible; for eCHO's per-dot kernels it is the
    # dominant §V-G effect.  Launches are spread over active PIMs but the
    # command channel is shared, so the critical path sees the full stream.
    launch = launches * (cand.launch_cycles + launch_delay_cycles)
    launch /= cand.channels
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
    fp, shape = plan.footprint, plan.shape
    fill_blocks_all = 0.0
    if not plan.direct_scratchpad:
        fill_b_all = float(fp.total_cols * shape.n * plan.n_rparts)
        fill_blocks_all = fill_b_all + 2 * plan.n_active_pims * fill_c_blocks
    simd_macs = float(shape.m) * shape.k * shape.n
    return GemmResult(
        plan=plan,
        breakdown=LatencyBreakdown(gemm, fill_b, fill_c, fill_c, localization, reduction),
        agen=agen,
        flow=flow,
        bubble_stall_cycles=stall,
        kernel_launches=launches,
        pim_dram_blocks=float(fp.total_blocks) + fill_blocks_all,
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
    return execute_plan(
        config,
        plan,
        agen=agen,
        flow=flow,
        naive_full_gaps=naive_full_gaps,
        launch_delay_cycles=launch_delay_cycles,
    )
