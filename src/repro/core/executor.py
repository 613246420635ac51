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
:func:`_gemm_profile` builds every group's profile in one pass over the
concatenated walks of the critical PIM, and stores each group's cadence
histogram.  The per-N *evaluation* combines the profile with the SIMD time
in O(groups) scalar arithmetic, using two exact closed forms (DESIGN.md,
"Pricing once"): the group sum ``n_rows * sum(count * max(value,
compute))`` over the histogram, and a zero AGEN stall whenever
``max(cadence_min, compute) >= 3``.  Whole-footprint totals (blocks, fill
traffic) come from the plan's shared footprint record in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.agen import stepstone_iteration_counts
from repro.core.config import PimUnitConfig, StepStoneConfig
from repro.core.gemm import GemmPlan, GemmShape, plan_gemm
from repro.core.memo import PRICING_MEMO
from repro.dram.stream import sequential_stream_cycles
from repro.dram.timing import DDR4Timing
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

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


def _row_misses(
    flat: np.ndarray, dram_row: np.ndarray, walk: np.ndarray, counted: np.ndarray, n_walks: int
) -> np.ndarray:
    """Row-buffer misses of the ``counted`` accesses, per walk.

    The accesses of every walk are in program order (walks may be
    concatenated).  An access misses when it is its walk's first visit to
    its bank, or the bank's previous access in the walk had another row
    open; ordering by (walk, bank, position) puts each bank's visits side
    by side.
    """
    order = np.lexsort((np.arange(len(flat)), flat, walk))
    fo, ro, wo = flat[order], dram_row[order], walk[order]
    miss = np.ones(len(flat), dtype=bool)
    miss[1:] = (wo[1:] != wo[:-1]) | (fo[1:] != fo[:-1]) | (ro[1:] != ro[:-1])
    return np.bincount(wo[miss & counted[order]], minlength=n_walks)


@dataclass(frozen=True)
class _GroupProfile:
    """N-independent pricing of one group walk on the critical PIM.

    Everything here is O(n_cols): one row walk's data, plus scalars that
    say how often it repeats.  The n_blk-long traces are rebuilt per call,
    and only when a closed form does not apply.
    """

    cadence: np.ndarray  # per-access CAS spacing of one row walk
    cadence_hist: Tuple[Tuple[float, int], ...]  # (value, count), ascending
    cadence_min: float
    cadence_max: float
    cadence_den: int  # power-of-two denominator of the cadence values
    n_rows: int
    n_blk: int  # n_cols * n_rows accesses over the group
    crossings: float  # steady-state row misses per row walk * n_rows
    naive_within: np.ndarray  # naive generator probes within one row walk
    naive_row_gap: float  # true block gap between consecutive group rows


def _gemm_profile(t: DDR4Timing, plan: GemmPlan) -> Tuple[_GroupProfile, ...]:
    """Per-group profiles of the plan's critical PIM (Algorithm 1 walks).

    Every group is evaluated in one pass: the first-row walks of all the
    critical PIM's groups, then the second-row walks of the groups with
    two or more rows, concatenated into one array of packed coordinate
    codes (a row code XOR a column code each).  Group-boundary masks
    restart the cadence and the naive gaps at each walk's first access.
    """
    fp = plan.footprint
    fa = fp.analysis
    mapping = fa.mapping
    pim = fp.critical_pim
    items = fp.work[pim]
    n_groups = len(items)
    groups = np.array([w.group for w in items], dtype=np.int64)
    n_rows = np.array([w.n_rows for w in items], dtype=np.int64)
    rows, starts = fa.group_rows
    first_row = rows[starts[groups]]
    last_row = rows[starts[groups] + n_rows - 1]

    # One row walk per group, concatenated: walk[j] is access j's group.
    walk, cols = np.nonzero(fa.group_pim_ids[groups] == pim)
    n_cols = np.bincount(walk, minlength=n_groups)
    head = np.zeros(n_groups, dtype=np.int64)  # each walk's first access
    np.cumsum(n_cols[:-1], out=head[1:])
    tail = head + n_cols - 1
    is_head = np.zeros(len(walk), dtype=bool)
    is_head[head] = True

    # The second row's walk, for the groups that have one (``paired``
    # marks the first-row accesses that get a second-row twin).
    paired = n_rows[walk] > 1
    second_row = rows[starts[groups] + np.minimum(n_rows, 2) - 1]
    walk_rows = np.concatenate([first_row[walk], second_row[walk[paired]]])
    all_walk = np.concatenate([walk, walk[paired]])
    codes = fa.row_codes[walk_rows] ^ fa.col_codes[np.concatenate([cols, cols[paired]])]
    rk, bg, bk, dr = (mapping.code_field(codes, f) for f in ("rank", "bankgroup", "bank", "row"))
    g = mapping.geometry
    flat = (rk * g.bankgroups_per_rank + bg) * g.banks_per_bankgroup + bk

    # Steady-state row misses: the second row's walk, or the only one.
    counted = np.concatenate([~paired, np.ones(int(paired.sum()), dtype=bool)])
    misses = _row_misses(flat, dr, all_walk, counted, n_groups).tolist()

    # Per-access cadence within one row walk: tCCD_L within a bank
    # group, tCCD_S across, rank switch across ranks.
    n = len(walk)
    rk, bg = rk[:n], bg[:n]
    cadence = np.full(n, float(t.tCCDS))
    same_rank = rk[1:] == rk[:-1]
    same_bg = (bg[1:] == bg[:-1]) & same_rank
    c = np.where(same_bg, float(t.tCCDL), float(t.tCCDS))
    cadence[1:] = np.where(same_rank, c, float(t.tBL + t.tRTRS))
    cadence[is_head] = float(t.tCCDS)
    if plan.unit.level is PimLevel.BANKGROUP:
        cadence[:] = float(plan.unit.cadence(t))  # confined to one bank group
    values, which = np.unique(cadence, return_inverse=True)
    hist = np.bincount(walk * len(values) + which.ravel(), minlength=n_groups * len(values))
    hist = hist.reshape(n_groups, len(values)).tolist()
    values = values.tolist()

    # The naive generator probes one block per gap block: the column gap
    # within a walk, 1 for its first access.
    within = np.empty(n, dtype=np.float64)
    within[1:] = np.diff(cols)
    within[is_head] = 1.0
    # Its true block gap between the last block of one group row and the
    # first of the next (unused for one row).
    row_gap_rows = (last_row - first_row) / np.maximum(n_rows - 1, 1)
    row_gap = np.maximum(
        1.0, row_gap_rows * fa.blocks_per_row - cols[tail].astype(np.float64) + cols[head]
    )
    row_gap = np.where(n_rows > 1, row_gap, 2.0).tolist()

    cadence.flags.writeable = within.flags.writeable = False  # shared via the memo
    out = []
    for i, w in enumerate(items):
        h = tuple((v, k) for v, k in zip(values, hist[i]) if k)
        lo, hi = head[i], tail[i] + 1
        out.append(
            _GroupProfile(
                cadence=cadence[lo:hi],
                cadence_hist=h,
                cadence_min=h[0][0],
                cadence_max=h[-1][0],
                cadence_den=max(v.as_integer_ratio()[1] for v, _ in h),
                n_rows=w.n_rows,
                n_blk=w.n_cols * w.n_rows,
                crossings=float(misses[i]) * w.n_rows,
                naive_within=within[lo:hi],
                naive_row_gap=row_gap[i],
            )
        )
    return tuple(out)


def _gemm_phase_cycles(
    config: StepStoneConfig,
    plan: GemmPlan,
    agen: str,
    naive_full_gaps: bool,
) -> tuple[float, float]:
    """(cycles, bubble_stall) of the GEMM phase on the critical PIM.

    The per-group profiles are N-independent and come from the
    ``profile`` memo; this is the O(groups) N-dependent evaluation.
    """
    t = config.timing
    u = plan.unit
    profile = PRICING_MEMO.lookup(
        "profile", (plan.footprint_key, t, u.level), lambda: _gemm_profile(t, plan)
    )
    compute = u.compute_cycles_per_block(plan.shape.n)
    compute_den = float(compute).as_integer_ratio()[1]
    lookahead_cover = float(u.pipeline_depth)
    if agen == "stepstone":
        per_miss = max(0.0, t.row_miss_penalty - lookahead_cover)
    else:
        per_miss = float(t.row_miss_penalty)
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
        # histogram -- times n_rows equals the sum of the tiled walk.
        den = max(gp.cadence_den, compute_den)
        if gp.n_blk * max(gp.cadence_max, compute) * den < 2.0**53:
            group_sum = gp.n_rows * sum(k * max(v, compute) for v, k in gp.cadence_hist)
        else:
            if base is None:
                base = np.tile(np.maximum(gp.cadence, compute), gp.n_rows)
            group_sum = float(np.sum(base))
        total += group_sum + group_stall
        stall += group_stall

        # Residual row-buffer miss penalties.  A miss happens only when a
        # bank is revisited with a *different* row open, so track per-bank
        # last-seen rows over two consecutive group rows and count the
        # steady-state misses of the second.  The deep pipeline lets
        # StepStone pre-activate upcoming rows, hiding all but
        # (penalty - pipeline) cycles; the naive generator cannot run ahead
        # and pays the full penalty.
        total += gp.crossings * per_miss
    # Refresh steals a fixed fraction of PIM-visible time.
    total *= 1.0 / (1.0 - t.refresh_overhead)
    return total, stall


def _offchip_cycles(
    config: StepStoneConfig, flow: str, loc_words: int, red_words: int
) -> Tuple[float, float, float, float]:
    """``(localization, reduction, loc_blocks, red_blocks)``: the channel
    transfers of the DMA engine, or of the CPU cores for eCHO."""
    dma = config.dma
    chan_bw = dma.bytes_per_cycle_per_channel * config.channels
    loc_bytes = loc_words * config.word_bytes
    red_bytes = red_words * config.word_bytes
    loc_blocks = loc_bytes / 64.0
    red_blocks = red_bytes / 64.0
    if flow == "stepstone":
        bw, per_block = chan_bw, dma.per_block_overhead_cycles
    else:
        bw, per_block = chan_bw * dma.cpu_efficiency, dma.cpu_per_block_overhead_cycles
    localization = loc_bytes / bw + loc_blocks * per_block
    return localization, red_bytes / bw + red_blocks * per_block, loc_blocks, red_blocks


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
    t = config.timing
    u = plan.unit
    shape = plan.shape
    cadence = float(u.cadence(t))
    bpr = config.geometry.blocks_per_row

    gemm_cycles, stall = _gemm_phase_cycles(config, plan, agen, naive_full_gaps)

    pim = plan.max_blocks_pim
    fill_b_blocks = plan.fill_b_blocks(pim)
    fill_b = sequential_stream_cycles(
        fill_b_blocks, t, cadence=cadence, blocks_per_row=bpr
    ) if fill_b_blocks else 0.0
    fill_c_blocks = plan.fill_c_blocks(pim)
    fill_c = sequential_stream_cycles(
        fill_c_blocks, t, cadence=cadence, blocks_per_row=bpr
    ) if fill_c_blocks else 0.0
    drain_c = fill_c

    red_words = plan.reduction_read_words + plan.reduction_write_words
    localization, reduction, loc_blocks, red_blocks = _offchip_cycles(
        config, flow, plan.localization_write_words, red_words
    )

    launches = plan.kernel_launches(flow)
    # Launch packets serialize on the command channel; under contention each
    # also waits `launch_delay_cycles`.  For the long-running StepStone
    # kernel this is negligible; for eCHO's per-dot kernels it is the
    # dominant §V-G effect.  Launches are spread over active PIMs but the
    # command channel is shared, so the critical path sees the full stream.
    launch_cycles = launches * (config.dma.kernel_launch_cycles + launch_delay_cycles)
    launch_cycles /= max(1, config.channels)
    gemm_cycles += launch_cycles

    # Fill traffic of every PIM, in closed form: each PIM's fill (C) is the
    # same, and every term is a multiple of 1/16 far below 2**53, so this
    # is exactly the per-PIM float sum.
    fp = plan.footprint
    fill_blocks_all = 0.0
    if not plan.direct_scratchpad:
        fill_b_all = float(fp.total_cols * shape.n * plan.n_rparts)
        fill_blocks_all = fill_b_all + 2 * plan.n_active_pims * fill_c_blocks
    simd_macs = float(plan.shape.m) * plan.shape.k * plan.shape.n
    # Scratchpad: one read per operand pair per MAC plus C update traffic.
    scratch = 2.0 * simd_macs / u.simd_width

    return GemmResult(
        plan=plan,
        breakdown=LatencyBreakdown(
            gemm=gemm_cycles,
            fill_b=fill_b,
            fill_c=fill_c,
            drain_c=drain_c,
            localization=localization,
            reduction=reduction,
        ),
        agen=agen,
        flow=flow,
        bubble_stall_cycles=stall,
        kernel_launches=launches,
        pim_dram_blocks=float(fp.total_blocks) + fill_blocks_all,
        offchip_blocks=loc_blocks + red_blocks,
        simd_mac_ops=simd_macs,
        scratchpad_accesses=scratch,
    )


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
