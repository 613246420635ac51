"""StepStone GEMM planning (Algorithm 1).

Planning turns (matrix shape, PIM level, mapping) into everything the timing
executor needs:

* padded power-of-two shape (§III footnote 2);
* the footprint analysis (block groups, per-(PIM, group) columns);
* scratchpad partitioning: row partitions sized so the C tile fits, column
  partitions so the B tile fits, with the B/C split chosen by a small search
  (§V-F "We search for an optimal allocation across the scratchpad
  partitioning options");
* per-phase data volumes: localization writes, reduction reads/writes,
  per-PIM buffer fill/drain traffic, GEMM block counts;
* kernel-launch counts for the long-running StepStone kernel vs. eCHO's
  per-dot-product invocations (Algorithm 1's two inner variants).

The footprint analysis, the work table and their totals depend only on the
weight footprint, never on the batch N.  :func:`plan_gemm` reads them as one
:class:`FootprintWork` record through the process-wide ``footprint`` memo
(:mod:`repro.core.memo`), built from the analysis' whole-footprint column
counts in one pass over the footprint shape's row and column code tables
(the ``codes`` memo, shared by every level and pinned-bit subset); only the
scratchpad partitioning and the direct-scratchpad test are redone per N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import PimUnitConfig, StepStoneConfig
from repro.core.memo import PRICING_MEMO
from repro.mapping.analysis import FootprintAnalysis, footprint_codes
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

__all__ = [
    "GemmShape",
    "GroupWork",
    "FootprintWork",
    "GemmPlan",
    "ScratchpadInfeasible",
    "plan_gemm",
]


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


@dataclass(frozen=True)
class GemmShape:
    """C[m, n] += A[m, k] @ B[k, n];  A is the memory-resident weight matrix."""

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0:
            raise ValueError(f"all GEMM dimensions must be positive: {self}")

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.k * self.n

    @property
    def weight_bytes(self) -> int:
        return self.m * self.k * 4

    def padded(self, min_k: int = 16, word_bytes: int = 4, block_bytes: int = 64) -> "GemmShape":
        """Pad M and K to powers of two; K also to at least one cache block.

        N (the batch/activation dimension) is not padded — it only sizes the
        B and C tiles.  Matches the paper: non-power-of-two matrices are
        padded or partitioned (§III fn. 2).
        """
        min_k = max(min_k, block_bytes // word_bytes)
        return GemmShape(_next_pow2(self.m), max(_next_pow2(self.k), min_k), self.n)


@dataclass(frozen=True)
class GroupWork:
    """One (PIM, group) work item: how many columns/rows this PIM walks."""

    pim: int
    group: int
    n_cols: int  # block columns owned per matrix row of the group
    n_rows: int  # matrix rows in the group


@dataclass(frozen=True, eq=False)
class FootprintWork:
    """The N-independent half of a plan, shared by every plan of one
    footprint through the ``footprint`` memo (treat it as read-only)."""

    analysis: FootprintAnalysis
    work: Dict[int, Tuple[GroupWork, ...]]  # pim -> its group work items
    max_group_cols: int  # widest group (at least 1)
    blocks_per_pim: Dict[int, int]  # GEMM blocks each PIM walks
    cols_per_pim: Dict[int, int]  # block columns per row, summed over groups
    critical_pim: int  # the PIM with the most blocks (lowest ID on ties)
    total_cols: int  # block columns summed over every (PIM, group)
    total_blocks: int


@dataclass
class GemmPlan:
    """Fully-resolved execution plan for one GEMM at one PIM level."""

    shape: GemmShape  # padded shape
    orig_shape: GemmShape
    level: PimLevel
    unit: PimUnitConfig
    footprint: FootprintWork  # shared, read-only
    rpart_rows: int
    cpart_blocks: int
    n_rparts: int
    scratchpad_c_fraction: float
    direct_scratchpad: bool  # small-matrix optimization (§III-E)
    #: Memo key of the N-independent footprint half (see ``plan_gemm``).
    footprint_key: Tuple

    @property
    def analysis(self) -> FootprintAnalysis:
        return self.footprint.analysis

    @property
    def work(self) -> Dict[int, Tuple[GroupWork, ...]]:
        """pim -> group work items (shared, read-only)."""
        return self.footprint.work

    # ------------------------------------------------------------------ #
    # Derived volumes (words of fp32 unless noted)
    # ------------------------------------------------------------------ #

    @property
    def n_active_pims(self) -> int:
        return len(self.work)

    @property
    def n_partials(self) -> int:
        """C partial copies the host-side engine reduces.

        One per *addressable* unit: the per-device slices behind one unit
        store their partials lane-aligned within shared cache blocks, so the
        reduction engine retires all of a unit's slices in a single pass of
        M x N words (one burst carries every slice's contribution to the
        same C elements).  This is the accounting consistent with the
        paper's Fig. 10/11 overhead magnitudes; see DESIGN.md.
        """
        return self.n_active_pims

    @property
    def localization_write_words(self) -> int:
        """DMA-written words replicating B into per-(PIM, group) regions.

        Each group needs the full K x N input once, spread over the PIMs
        owning its columns (Fig. 5), so the total is n_groups * K * N.
        """
        return self.footprint.total_cols * 16 * self.shape.n

    @property
    def reduction_read_words(self) -> int:
        return self.shape.m * self.shape.n * self.n_partials

    @property
    def reduction_write_words(self) -> int:
        return self.shape.m * self.shape.n

    @property
    def gemm_blocks_per_pim(self) -> Dict[int, int]:
        """GEMM blocks per active PIM (shared, read-only)."""
        return self.footprint.blocks_per_pim

    @property
    def max_blocks_pim(self) -> int:
        """The PIM with the most work (the makespan-critical unit)."""
        return self.footprint.critical_pim

    def fill_b_blocks(self, pim: int) -> float:
        """Cache blocks read from PIM-local DRAM to fill B tiles (total).

        The B region of one group holds ``n_cols`` block-columns x 16 B-rows
        x N words; it is re-filled once per row partition (row partitions
        are the outer loop of Algorithm 1).
        """
        if self.direct_scratchpad:
            return 0.0
        return float(self.footprint.cols_per_pim[pim] * self.shape.n * self.n_rparts)

    def fill_c_blocks(self, pim: int) -> float:
        """Blocks read to fill C tiles across all row partitions (total)."""
        if self.direct_scratchpad:
            return 0.0
        words = self.shape.m * self.shape.n * self.unit.slices_per_unit
        return words / 16.0

    def kernel_launches(self, flow: str) -> int:
        """PIM kernel invocations issued over the command channel.

        * ``stepstone``: one long-running kernel per active PIM per row
          partition — AGEN walks groups and partitions internally.
        * ``echo``: one kernel per DOT-product row per (rpart, group, cpart)
          (Algorithm 1's eCHO branch).
        """
        if flow == "stepstone":
            return self.n_active_pims * self.n_rparts
        if flow == "echo":
            launches = 0
            for items in self.work.values():
                for w in items:
                    n_cparts = max(1, math.ceil(w.n_cols / self.cpart_blocks))
                    rows_per_rpart = max(1, math.ceil(w.n_rows / self.n_rparts))
                    launches += self.n_rparts * n_cparts * rows_per_rpart
            return launches
        raise ValueError(f"unknown flow {flow!r}")


class ScratchpadInfeasible(ValueError):
    """The batch cannot fit one C row plus one B column in the scratchpad."""


def _choose_partitions(
    shape: GemmShape,
    unit: PimUnitConfig,
    max_group_cols: int,
    word_bytes: int,
) -> Tuple[int, int, float]:
    """Pick (rpart_rows, cpart_blocks, c_fraction) for the scratchpad.

    Minimizes total B re-fill traffic (the only volume that scales with the
    partition counts), breaking ties toward fewer kernel iterations (larger
    column tiles).  Searches C-buffer fractions in eighths, as the paper's
    two-buffer search does.
    """
    sp = unit.scratchpad_bytes
    c_bytes_per_row = shape.n * word_bytes
    b_bytes_per_colblock = unit.words_per_block_per_slice * shape.n * word_bytes
    best: Optional[Tuple[float, float, int, int, float]] = None
    for eighths in range(1, 8):
        f = eighths / 8.0
        rpart = min(shape.m, int(f * sp // c_bytes_per_row))
        cpart = min(max_group_cols, int((1 - f) * sp // b_bytes_per_colblock))
        if rpart < 1 or cpart < 1:
            continue
        n_rparts = math.ceil(shape.m / rpart)
        refill_cost = n_rparts  # B volume scales linearly with passes
        n_cparts = math.ceil(max_group_cols / cpart)
        key = (refill_cost, n_cparts, -rpart)
        if best is None or key < best[:3]:
            best = (refill_cost, n_cparts, -rpart, cpart, f)
    if best is None:
        raise ScratchpadInfeasible(
            f"batch {shape.n} cannot fit even one C row + one B column in a "
            f"{sp}-byte scratchpad at level {unit.level.short}; split N first"
        )
    _, _, neg_rpart, cpart, f = best
    return -neg_rpart, cpart, f


def _footprint_work(
    mapping: XORAddressMapping,
    level: PimLevel,
    padded: GemmShape,
    base: int,
    word_bytes: int,
    pinned_id_bits: int,
) -> FootprintWork:
    """The N-independent half of a plan, from the footprint's
    (group x PIM) column counts."""
    m, k = padded.m, padded.k
    codes_key = (mapping.hardware_key, m, k, base, word_bytes)
    analysis = FootprintAnalysis(
        mapping, level, m, k, base=base, word_bytes=word_bytes, pinned_id_bits=pinned_id_bits,
        codes=lambda: PRICING_MEMO.lookup(
            "codes", codes_key, lambda: footprint_codes(mapping, m, k * word_bytes, base)
        ),
    )
    counts = analysis.col_counts
    sizes = analysis.group_sizes
    # Owning (PIM, group) pairs, PIM-major: each PIM's items in group order.
    pims, groups = np.nonzero(counts.T)
    work: Dict[int, list] = {}
    for pim, grp, n_cols, n_rows in zip(
        pims.tolist(), groups.tolist(), counts[groups, pims].tolist(), sizes[groups].tolist()
    ):
        work.setdefault(pim, []).append(GroupWork(pim, grp, n_cols, n_rows))
    cols_per_id = counts.sum(axis=0).tolist()
    blocks_per_id = (sizes @ counts).tolist()
    blocks = {pim: blocks_per_id[pim] for pim in work}
    return FootprintWork(
        analysis=analysis,
        work={pim: tuple(items) for pim, items in work.items()},
        max_group_cols=max(1, int(counts.max())),
        blocks_per_pim=blocks,
        cols_per_pim={pim: cols_per_id[pim] for pim in work},
        critical_pim=max(blocks, key=blocks.__getitem__),
        total_cols=int(counts.sum()),
        total_blocks=sum(blocks.values()),
    )


def _footprint(config, mapping, padded, level, base, pinned) -> Tuple[Tuple, FootprintWork]:
    """``(memo key, record)`` of one padded footprint, the record read
    through the ``footprint`` memo."""
    wb = config.word_bytes
    key = (mapping.hardware_key, level, padded.m, padded.k, base, wb, pinned)
    fp = PRICING_MEMO.lookup(
        "footprint", key, lambda: _footprint_work(mapping, level, padded, base, wb, pinned)
    )
    return key, fp


def plan_gemm(
    config: StepStoneConfig,
    mapping: XORAddressMapping,
    shape: GemmShape,
    level: PimLevel,
    base: int = 0,
    pinned_id_bits: int = 0,
    unit: Optional[PimUnitConfig] = None,
) -> GemmPlan:
    """Build the Algorithm-1 execution plan for one GEMM.

    ``pinned_id_bits`` activates the §III-E subsetting optimization (each
    pinned bit halves the active PIM count and, usually, the group count).
    ``unit`` overrides the Table II unit config (relaxed-area or scratchpad
    sweeps).  Plans of one footprint share its :class:`FootprintWork`, so
    treat it as read-only.
    """
    u = unit or config.unit(level)
    padded = shape.padded(word_bytes=config.word_bytes, block_bytes=mapping.geometry.block_bytes)
    key, fp = _footprint(config, mapping, padded, level, base, pinned_id_bits)
    max_group_cols = fp.max_group_cols
    rpart, cpart, frac = _choose_partitions(padded, u, max_group_cols, config.word_bytes)
    n_rparts = math.ceil(padded.m / rpart)

    # Small-matrix direct-scratchpad path (§III-E): B tile of the largest
    # group plus the full C partial fit per slice -> skip DRAM staging.
    b_bytes = max_group_cols * u.words_per_block_per_slice * padded.n * config.word_bytes
    c_bytes = padded.m * padded.n * config.word_bytes
    direct = (b_bytes + c_bytes) <= u.scratchpad_bytes

    if direct:
        rpart, n_rparts = padded.m, 1
        cpart = max_group_cols

    return GemmPlan(
        shape=padded,
        orig_shape=shape,
        level=level,
        unit=u,
        footprint=fp,
        rpart_rows=rpart,
        cpart_blocks=cpart,
        n_rparts=n_rparts,
        scratchpad_c_fraction=frac,
        direct_scratchpad=direct,
        footprint_key=key,
    )
