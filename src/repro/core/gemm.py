"""StepStone GEMM planning (Algorithm 1).

Planning turns (matrix shape, PIM level, mapping) into everything the timing
executor needs:

* padded power-of-two shape (§III footnote 2);
* the footprint analysis (block groups, per-(PIM, group) columns);
* scratchpad partitioning: row partitions sized so the C tile fits, column
  partitions so the B tile fits, with the B/C split chosen by a small search
  (§V-F "We search for an optimal allocation across the scratchpad
  partitioning options");
* the footprint's GEMM block counts per PIM (the per-phase volumes are
  priced per batch by :func:`repro.core.executor._price`);
* kernel-launch counts for the long-running StepStone kernel vs. eCHO's
  per-dot-product invocations (Algorithm 1's two inner variants).

The footprint analysis, the work table and their totals depend only on the
weight footprint, never on the batch N.  :func:`plan_gemm` reads them as one
:class:`FootprintWork` record through the process-wide ``footprint`` memo
(:mod:`repro.core.memo`), whose totals are the analysis' coset sizes (every
owning (PIM, group) pair has the same columns and rows); the per-PIM work
table is built on its first read.  Only the scratchpad partitioning and the
direct-scratchpad test are redone per N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Dict, Optional, Tuple

from repro.core.config import PimUnitConfig, StepStoneConfig
from repro.core.memo import PRICING_MEMO
from repro.mapping.analysis import FootprintAnalysis
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
        for name in ("m", "k", "n"):
            v = getattr(self, name)
            if type(v) is int and v >= 1:
                continue  # the common case, without the slower ABC check
            if isinstance(v, bool) or not isinstance(v, Integral) or v < 1:
                raise ValueError(f"GEMM dimension {name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))  # a numpy integer

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
    max_group_cols: int  # widest group (at least 1)
    blocks_per_pim: Dict[int, int]  # GEMM blocks each PIM walks
    critical_pim: int  # the PIM with the most blocks (lowest ID on ties)
    total_cols: int  # block columns summed over every (PIM, group)
    total_blocks: int

    @cached_property
    def work(self) -> Dict[int, Tuple[GroupWork, ...]]:
        """pim -> its group work items, in group order (built on first read)."""
        fa = self.analysis
        cols, rows = fa.group_cols, fa.group_size
        return {
            pim: tuple(GroupWork(pim, grp, cols, rows) for grp in fa.groups_of(pim))
            for pim in self.blocks_per_pim
        }


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
    # Derived counts
    # ------------------------------------------------------------------ #

    @property
    def n_active_pims(self) -> int:
        return len(self.footprint.blocks_per_pim)

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
    def gemm_blocks_per_pim(self) -> Dict[int, int]:
        """GEMM blocks per active PIM (shared, read-only)."""
        return self.footprint.blocks_per_pim

    @property
    def max_blocks_pim(self) -> int:
        """The PIM with the most work (the makespan-critical unit)."""
        return self.footprint.critical_pim

    def kernel_launches(self, flow: str) -> int:
        """PIM kernel invocations issued over the command channel.

        * ``stepstone``: one long-running kernel per active PIM per row
          partition — AGEN walks groups and partitions internally.
        * ``echo``: one kernel per DOT-product row per (rpart, group, cpart)
          (Algorithm 1's eCHO branch).
        """
        return _kernel_launches(self.footprint, flow, self.n_rparts, self.cpart_blocks)


def _kernel_launches(fp: FootprintWork, flow: str, n_rparts: int, cpart_blocks: int) -> int:
    """:meth:`GemmPlan.kernel_launches` of a footprint at one partitioning."""
    if flow == "stepstone":
        return len(fp.blocks_per_pim) * n_rparts
    if flow == "echo":
        launches = 0
        for items in fp.work.values():
            for w in items:
                n_cparts = max(1, math.ceil(w.n_cols / cpart_blocks))
                rows_per_rpart = max(1, math.ceil(w.n_rows / n_rparts))
                launches += n_rparts * n_cparts * rows_per_rpart
        return launches
    raise ValueError(f"unknown flow {flow!r}")


class ScratchpadInfeasible(ValueError):
    """The batch cannot fit one C row plus one B column in the scratchpad."""


#: A partitioning: (rpart_rows, cpart_blocks, n_rparts, scratchpad C
#: fraction, direct scratchpad).
Partition = Tuple[int, int, int, float, bool]


def _partition(
    unit: PimUnitConfig, m: int, n: int, max_group_cols: int, word_bytes: int
) -> Partition:
    """The scratchpad partitioning of a padded M-row footprint at batch N.

    Searches C-buffer fractions in eighths, as the paper's two-buffer
    search does, for the fewest row passes (B re-fill traffic scales with
    them), then the fewest column tiles, then the largest row tile; the
    smallest fraction wins exact ties.  Row tiles grow and column tiles
    shrink with the fraction, so each criterion holds on a run of eighths,
    found by a short scan from the right end.  When the widest group's B
    tile plus the full C partial fit per slice, the small-matrix
    direct-scratchpad path (§III-E) skips DRAM staging.
    """
    sp, mgc = unit.scratchpad_bytes, max_group_cols
    wpb = unit.words_per_block_per_slice
    c_row8 = 8 * n * word_bytes
    b_col8 = 8 * wpb * n * word_bytes
    # Eighth e holds e * sp // c_row8 C rows; the rest, (8 - e) * sp //
    # b_col8 B column blocks.  lo is the first that holds a C row, hi the
    # last that leaves a B column.
    lo = max(1, -(-c_row8 // sp))
    hi = min(7, 8 + (-b_col8 // sp))
    if lo > hi:
        raise ScratchpadInfeasible(
            f"batch {n} cannot fit even one C row + one B column in a "
            f"{sp}-byte scratchpad at level {unit.level.short}; split N first"
        )

    # Eighth e's row tile is min(m, e * sp // c_row8) and its column tile
    # count -(-mgc // min(mgc, (8 - e) * sp // b_col8)), written out
    # rather than as helpers: the search partitions every candidate.
    # The fewest row passes: from e_a up to hi.
    e_a, n_rparts = hi, -(-m // min(m, hi * sp // c_row8))
    while e_a > lo and -(-m // min(m, (e_a - 1) * sp // c_row8)) == n_rparts:
        e_a -= 1
    # Among those, the fewest column tiles: from e_a up to e_b.
    e_b, n_cparts = e_a, -(-mgc // min(mgc, (8 - e_a) * sp // b_col8))
    while e_b < hi and -(-mgc // min(mgc, (7 - e_b) * sp // b_col8)) == n_cparts:
        e_b += 1
    # Among those, the largest row tile, first reached at e.
    rpart, e = min(m, e_b * sp // c_row8), e_a
    while min(m, e * sp // c_row8) < rpart:
        e += 1
    if mgc * wpb * n * word_bytes + m * n * word_bytes <= sp:
        return m, mgc, 1, e / 8.0, True
    return rpart, min(mgc, (8 - e) * sp // b_col8), n_rparts, e / 8.0, False


def _footprint_work(
    mapping: XORAddressMapping,
    level: PimLevel,
    m: int,
    k: int,
    base: int,
    word_bytes: int,
    pinned_id_bits: int,
) -> FootprintWork:
    """The N-independent half of a plan, from the padded M x K footprint's
    cosets: every group row's blocks split over its owning PIMs."""
    fa = FootprintAnalysis(
        mapping, level, m, k, base=base, word_bytes=word_bytes, pinned_id_bits=pinned_id_bits
    )
    return FootprintWork(
        analysis=fa,
        max_group_cols=fa.group_cols,
        blocks_per_pim=fa.blocks_per_pim(),
        critical_pim=fa.critical_pim,
        total_cols=fa.n_groups * fa.blocks_per_row,
        total_blocks=fa.total_blocks,
    )


def _footprint_key(mapping, level, m, k, base, word_bytes, pinned) -> Tuple:
    """The ``footprint`` memo key of one padded M x K footprint."""
    return (mapping.hardware_key, level, m, k, base, word_bytes, pinned)


def _footprint(mapping: XORAddressMapping, key: Tuple) -> FootprintWork:
    """The record of the footprint keyed ``key`` (:func:`_footprint_key`),
    read through the ``footprint`` memo."""
    return PRICING_MEMO.lookup("footprint", key, lambda: _footprint_work(mapping, *key[1:]))


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
    m, k, wb = padded.m, padded.k, config.word_bytes
    key = _footprint_key(mapping, level, m, k, base, wb, pinned_id_bits)
    fp = _footprint(mapping, key)
    rpart, cpart, n_rparts, frac, direct = _partition(u, m, padded.n, fp.max_group_cols, wb)
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
