"""Matrix-footprint analysis: active PIMs and StepStone block groups (§III-B).

A weight matrix A (M x K fp32, row-major, physically contiguous and aligned)
occupies a power-of-two footprint.  Address bits inside the footprint split
into **MCOL** bits (addresses within one matrix row) and **MROW** bits (which
matrix row).  For PIM-ID bit *i* with mask ``m_i``:

* ``m_i & MCOL`` determines how blocks *within* a row stripe across PIMs;
* ``m_i & MROW`` determines how that striping pattern *changes across rows*.

Rows whose MROW parities agree for every ID bit see the *same* column->PIM
striping — they form a **block group**.  Within a group, a PIM reuses the
same B sub-matrix across all of the group's rows (B locality) and walks each
row accumulating into one C row (C locality).  This module computes the
groups, the per-(PIM, group) local column sets, and the parity constraints
that StepStone's address generator enforces in hardware.

The group invariant makes one representative row per group enough, and the
ID bits are GF(2)-linear, so a whole footprint is evaluated in one pass:
:attr:`FootprintAnalysis.group_pim_ids` is the PIM ID of every block column
of every group's representative row, and one ``bincount`` over it gives
every (PIM, group) column count (:attr:`FootprintAnalysis.col_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.bits import bits_of_mask, parity, parity_u64 as _parity_u64
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

__all__ = ["Constraint", "BlockGrouping", "FootprintAnalysis", "analyze_footprint"]

_U64 = np.uint64


@dataclass(frozen=True)
class Constraint:
    """One GF(2) parity constraint on a footprint offset: parity(off & mask) == target."""

    mask: int
    target: int

    def satisfied_by(self, off: int) -> bool:
        return parity(off & self.mask) == self.target


@dataclass(frozen=True)
class BlockGrouping:
    """Block-group structure of one footprint at one PIM level.

    Attributes
    ----------
    group_parity_masks:
        For each PIM-ID bit (LSB first), the mask restricted to MROW bits
        (0 if the ID bit is unaffected by the row index).
    raw_codes:
        The distinct raw group codes that actually occur, sorted; the group
        *index* used throughout the package is the position in this tuple.
    row_groups:
        ``row_groups[r]`` is the group index of matrix row *r*.
    """

    group_parity_masks: Tuple[int, ...]
    raw_codes: Tuple[int, ...]
    row_groups: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.raw_codes)

    def rows_of_group(self, group: int) -> np.ndarray:
        """Sorted matrix-row indices belonging to *group*."""
        return np.nonzero(self.row_groups == group)[0]


class FootprintAnalysis:
    """Analysis of one contiguous, aligned matrix footprint under a mapping.

    Parameters
    ----------
    mapping: the XOR address mapping.
    level: PIM integration level (CH / DV / BG).
    m_rows, k_cols: matrix dimensions (A is M x K, row-major fp32).
    base: physical base address; must be aligned to the footprint size.
    word_bytes: element size (4 for fp32).
    """

    def __init__(
        self,
        mapping: XORAddressMapping,
        level: PimLevel,
        m_rows: int,
        k_cols: int,
        base: int = 0,
        word_bytes: int = 4,
        pinned_id_bits: int = 0,
    ) -> None:
        g = mapping.geometry
        if m_rows <= 0 or k_cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if m_rows & (m_rows - 1) or k_cols & (k_cols - 1):
            raise ValueError(
                f"matrix dimensions must be powers of two (pad first), got {m_rows}x{k_cols}"
            )
        row_bytes = k_cols * word_bytes
        if row_bytes % g.block_bytes:
            raise ValueError(
                f"row size {row_bytes} B must be a multiple of the "
                f"{g.block_bytes} B cache block (pad K)"
            )
        footprint = m_rows * row_bytes
        if footprint > g.capacity_bytes:
            raise ValueError("matrix exceeds DRAM capacity")
        if base % footprint:
            raise ValueError(
                f"base {base:#x} must be aligned to the {footprint:#x}-byte footprint"
            )
        self.mapping = mapping
        self.level = level
        self.m_rows = m_rows
        self.k_cols = k_cols
        self.base = base
        self.word_bytes = word_bytes
        self.row_bytes = row_bytes
        self.footprint_bytes = footprint
        self.footprint_mask = footprint - 1
        self.mcol_mask = (row_bytes - 1) & ~(g.block_bytes - 1)
        self.mrow_mask = self.footprint_mask & ~(row_bytes - 1)
        self.blocks_per_row = row_bytes // g.block_bytes
        self.total_blocks = footprint // g.block_bytes
        # PIM subsetting (§III-E): the allocator can pin the lowest
        # `pinned_id_bits` PIM-ID bits (BG0 first, as in the paper's 32 KiB
        # allocation-granularity example), halving the active PIM count per
        # pinned bit.  Pinned bits no longer stripe the footprint, so they
        # drop out of both the ID space and the group structure.
        full_masks = mapping.pim_id_masks(level)
        if not 0 <= pinned_id_bits < len(full_masks):
            raise ValueError(
                f"pinned_id_bits must be in [0, {len(full_masks)}), got {pinned_id_bits}"
            )
        self.pinned_id_bits = pinned_id_bits
        self.id_masks: Tuple[int, ...] = full_masks[pinned_id_bits:]
        self.base_id = self._pim_id_scalar(base)
        self._grouping: BlockGrouping | None = None

    # ------------------------------------------------------------------ #
    # ID evaluation over the (possibly subsetted) ID space
    # ------------------------------------------------------------------ #

    def _pim_id_scalar(self, addr: int) -> int:
        v = 0
        for i, m in enumerate(self.id_masks):
            v |= parity(addr & m) << i
        return v

    def _pim_ids(self, addrs: np.ndarray) -> np.ndarray:
        addrs = np.asarray(addrs, dtype=_U64)
        out = np.zeros(addrs.shape, dtype=_U64)
        for i, m in enumerate(self.id_masks):
            out |= _parity_u64(addrs & _U64(m)) << _U64(i)
        return out

    # ------------------------------------------------------------------ #
    # PIM activity
    # ------------------------------------------------------------------ #

    @property
    def id_affecting_mask(self) -> int:
        """Footprint bits that affect any PIM-ID bit."""
        u = 0
        for m in self.id_masks:
            u |= m & self.footprint_mask
        return u

    @property
    def lowest_id_bit(self) -> int:
        """Lowest footprint bit affecting the PIM ID (-1 if none)."""
        u = self.id_affecting_mask
        return -1 if u == 0 else bits_of_mask(u)[0]

    def active_pim_ids(self) -> np.ndarray:
        """The set of PIM IDs the footprint actually touches.

        The reachable ID *offsets* form the GF(2) span of the per-footprint-bit
        ID perturbation vectors; the active set is ``base_id ^ span``.
        """
        vectors = []
        for b in bits_of_mask(self.id_affecting_mask):
            v = 0
            for i, m in enumerate(self.id_masks):
                if (m >> b) & 1:
                    v |= 1 << i
            vectors.append(v)
        basis: List[int] = []
        for v in vectors:
            cur = v
            for bvec in basis:
                cur = min(cur, cur ^ bvec)
            if cur:
                basis.append(cur)
        span = np.zeros(1, dtype=np.int64)
        for bvec in basis:
            span = np.concatenate([span, span ^ bvec])
        return np.sort(np.unique(span ^ self.base_id))

    @property
    def n_active_pims(self) -> int:
        return len(self.active_pim_ids())

    # ------------------------------------------------------------------ #
    # Block groups
    # ------------------------------------------------------------------ #

    @property
    def grouping(self) -> BlockGrouping:
        if self._grouping is None:
            self._grouping = self._compute_grouping()
        return self._grouping

    def _compute_grouping(self) -> BlockGrouping:
        gmasks = tuple(m & self.mrow_mask for m in self.id_masks)
        # A row's group code is GF(2)-linear in the row index (the aligned
        # base contributes 0): each index bit XORs in its own code, so the
        # codes of rows [0, 2^(b+1)) are those of [0, 2^b), then the same
        # XOR bit b's code.
        codes = np.zeros(1, dtype=np.int64)
        for b in range(self.m_rows.bit_length() - 1):
            row_addr = (1 << b) * self.row_bytes
            code = sum(parity(row_addr & gm) << i for i, gm in enumerate(gmasks))
            codes = np.concatenate([codes, codes ^ code])
        # Map raw code -> compact group index, in code order.
        present = np.zeros(1 << len(gmasks), dtype=bool)
        present[codes] = True
        row_groups = (np.cumsum(present) - 1)[codes]
        return BlockGrouping(
            group_parity_masks=gmasks,
            raw_codes=tuple(np.flatnonzero(present).tolist()),
            row_groups=row_groups,
        )

    @property
    def n_groups(self) -> int:
        return self.grouping.n_groups

    @cached_property
    def group_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, starts)``: every matrix row ordered by (group, row), and
        the offset of each group's run in it (``n_groups + 1`` entries).

        Read-only; group *g* holds ``rows[starts[g]:starts[g + 1]]``.
        """
        row_groups = self.grouping.row_groups
        # A stable sort on the narrowest dtype: a radix sort for few groups.
        narrow = row_groups.astype(np.min_scalar_type(self.n_groups - 1))
        rows = np.argsort(narrow, kind="stable")
        starts = np.zeros(self.n_groups + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_groups, minlength=self.n_groups), out=starts[1:])
        rows.flags.writeable = starts.flags.writeable = False
        return rows, starts

    def rows_of_group(self, group: int) -> np.ndarray:
        """Sorted matrix-row indices of *group* (a read-only view)."""
        rows, starts = self.group_rows
        if not 0 <= group < self.n_groups:
            return rows[:0]
        return rows[starts[group] : starts[group + 1]]

    @property
    def group_sizes(self) -> np.ndarray:
        """Matrix rows per group."""
        return np.diff(self.group_rows[1])

    # ------------------------------------------------------------------ #
    # Per-(PIM, group) locality
    # ------------------------------------------------------------------ #

    @cached_property
    def group_pim_ids(self) -> np.ndarray:
        """``(n_groups x blocks_per_row)`` PIM IDs of every block column of
        each group's first row — by the group invariant, of every row of the
        group.  One ID evaluation over the whole matrix; read-only.
        """
        rows, starts = self.group_rows
        first = rows[starts[:-1]].astype(_U64)
        row_addrs = _U64(self.base) + first * _U64(self.row_bytes)
        col_offs = np.arange(self.blocks_per_row, dtype=_U64) * _U64(
            self.mapping.geometry.block_bytes
        )
        ids = self._pim_ids(row_addrs[:, None] + col_offs[None, :])
        ids.flags.writeable = False
        return ids

    @cached_property
    def col_counts(self) -> np.ndarray:
        """``(n_groups x 2**len(id_masks))`` block columns per row owned by
        each (group, PIM ID): entry ``[g, p]`` is ``len(cols_of(p, g))``."""
        n_ids = 1 << len(self.id_masks)
        groups = np.arange(self.n_groups, dtype=np.int64)[:, None]
        key = groups * n_ids + self.group_pim_ids.astype(np.int64)
        counts = np.bincount(key.ravel(), minlength=self.n_groups * n_ids)
        counts = counts.reshape(self.n_groups, n_ids)
        counts.flags.writeable = False
        return counts

    def cols_of(self, pim: int, group: int) -> np.ndarray:
        """Block-column offsets (0..blocks_per_row-1) local to *pim* in *group*.

        Identical for every row of the group — that is the group invariant.
        """
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} is empty")
        return np.nonzero(self.group_pim_ids[group] == _U64(pim))[0].astype(np.int64)

    def blocks_of(self, pim: int, group: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Block addresses of (pim, group) in execution order (row-major).

        Execution order walks each matrix row's local blocks left-to-right,
        then advances to the group's next row — the order that maximizes C
        reuse along rows and B reuse down columns (§III-B).
        """
        cols = self.cols_of(pim, group)
        if rows is None:
            rows = self.rows_of_group(group)
        rows = np.asarray(rows, dtype=_U64)
        if len(cols) == 0 or len(rows) == 0:
            return np.empty(0, dtype=_U64)
        bb = _U64(self.mapping.geometry.block_bytes)
        row_addrs = _U64(self.base) + rows * _U64(self.row_bytes)
        return (row_addrs[:, None] + cols.astype(_U64)[None, :] * bb).ravel()

    def blocks_per_pim(self) -> Dict[int, int]:
        """Total local block count per active PIM (sums to total_blocks)."""
        per_id = self.group_sizes @ self.col_counts
        return {int(pim): int(per_id[pim]) for pim in self.active_pim_ids()}

    # ------------------------------------------------------------------ #
    # AGEN constraints
    # ------------------------------------------------------------------ #

    def constraints_for(self, pim: int, group: int) -> Tuple[Constraint, ...]:
        """Parity constraints a footprint offset must satisfy to belong to
        (pim, group) — what the StepStone AGEN checks per candidate address.

        For each PIM-ID bit *i* with footprint-restricted mask ``f_i``:

        * PIM match:   ``parity(off & f_i) == pim_i ^ base_id_i``
        * group match: ``parity(off & (f_i & MROW)) == raw_group_code_i``

        Constraints with zero masks are dropped (trivially satisfied if the
        target is 0; contradictory footprints are rejected).
        """
        raw_code = self.grouping.raw_codes[group]
        out: List[Constraint] = []
        for i, m in enumerate(self.id_masks):
            f = m & self.footprint_mask
            t_pim = ((pim >> i) & 1) ^ ((self.base_id >> i) & 1)
            g_bit = (raw_code >> i) & 1
            mrow_part = f & self.mrow_mask
            mcol_part = f & self.mcol_mask
            if mrow_part:
                out.append(Constraint(mrow_part, g_bit))
            elif g_bit:
                raise ValueError(
                    f"group code bit {i} set but ID bit has no MROW support"
                )
            if mcol_part:
                out.append(Constraint(mcol_part, t_pim ^ g_bit))
            elif t_pim ^ g_bit:
                # The column part cannot produce this parity: (pim, group)
                # owns no blocks.  Callers should skip such pairs.
                return (Constraint(0, 1),)
        return tuple(out)

    def owns_blocks(self, pim: int, group: int) -> bool:
        """True if (pim, group) owns at least one cache block."""
        cons = self.constraints_for(pim, group)
        return not any(c.mask == 0 and c.target == 1 for c in cons)


def analyze_footprint(
    mapping: XORAddressMapping,
    level: PimLevel,
    m_rows: int,
    k_cols: int,
    base: int = 0,
    word_bytes: int = 4,
    pinned_id_bits: int = 0,
) -> FootprintAnalysis:
    """Construct a :class:`FootprintAnalysis` (convenience wrapper)."""
    return FootprintAnalysis(
        mapping,
        level,
        m_rows,
        k_cols,
        base=base,
        word_bytes=word_bytes,
        pinned_id_bits=pinned_id_bits,
    )
