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
map is GF(2)-linear, so a whole footprint is evaluated in one pass.  The
packed code of the block at (row r, column c) is ``row_codes[r] ^
col_codes[c]`` (:func:`footprint_codes`), so
:attr:`FootprintAnalysis.group_pim_ids` — the PIM ID of every block column
of every group's representative row — is one XOR and one shift-and-mask,
and one ``bincount`` over it gives every (PIM, group) column count
(:attr:`FootprintAnalysis.col_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.bits import bits_of_mask, parity
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

__all__ = [
    "Constraint", "BlockGrouping", "FootprintAnalysis", "analyze_footprint", "footprint_codes"
]

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
    raw_codes:
        The distinct raw group codes that actually occur, sorted; the group
        *index* used throughout the package is the position in this tuple.
    row_groups:
        ``row_groups[r]`` is the group index of matrix row *r*.
    """

    raw_codes: Tuple[int, ...]
    row_groups: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.raw_codes)


class FootprintAnalysis:
    """Analysis of one contiguous, aligned matrix footprint under a mapping.

    Parameters
    ----------
    mapping: the XOR address mapping.
    level: PIM integration level (CH / DV / BG).
    m_rows, k_cols: matrix dimensions (A is M x K, row-major fp32).
    base: physical base address; must be aligned to the footprint size.
    word_bytes: element size (4 for fp32).
    codes: returns the footprint's ``(row_codes, col_codes)`` (default:
        :func:`footprint_codes`), so one pair serves every level and
        pinned-bit subset of a footprint.
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
        codes: Optional[Callable[[], Tuple[np.ndarray, np.ndarray]]] = None,
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
        codes = codes or (lambda: footprint_codes(mapping, m_rows, row_bytes, base))
        self.row_codes, self.col_codes = codes()
        self.base_id = int(self.pim_ids_of(self.row_codes[0]))

    def pim_ids_of(self, codes: np.ndarray) -> np.ndarray:
        """PIM IDs (over the subsetted ID space) of packed codes."""
        return self.mapping.code_pim_ids(codes, self.level, self.pinned_id_bits)

    # ------------------------------------------------------------------ #
    # PIM activity
    # ------------------------------------------------------------------ #

    @property
    def lowest_id_bit(self) -> int:
        """Lowest footprint bit affecting the PIM ID (-1 if none)."""
        u = self.footprint_mask & reduce(or_, self.id_masks, 0)
        return -1 if u == 0 else bits_of_mask(u)[0]

    def active_pim_ids(self) -> np.ndarray:
        """The sorted PIM IDs the footprint touches: every row's ID XOR
        every column's, the map being linear."""
        rows, cols = (np.unique(self.pim_ids_of(c)) for c in (self.row_codes, self.col_codes))
        return np.unique(rows[:, None] ^ cols[None, :])

    @property
    def n_active_pims(self) -> int:
        return len(self.active_pim_ids())

    # ------------------------------------------------------------------ #
    # Block groups
    # ------------------------------------------------------------------ #

    @cached_property
    def grouping(self) -> BlockGrouping:
        # A row's group code is the ID bits of its row code less the
        # base's: the row-index bits are all MROW bits.
        codes = self.pim_ids_of(self.row_codes) ^ self.base_id
        # Map raw code -> compact group index, in code order.
        present = np.zeros(1 << len(self.id_masks), dtype=bool)
        present[codes] = True
        row_groups = (np.cumsum(present) - 1)[codes]
        return BlockGrouping(tuple(np.flatnonzero(present).tolist()), row_groups)

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
        first = self.row_codes[rows[starts[:-1]]]
        ids = self.pim_ids_of(first[:, None] ^ self.col_codes[None, :])
        ids.flags.writeable = False
        return ids

    @cached_property
    def col_counts(self) -> np.ndarray:
        """``(n_groups x 2**len(id_masks))`` block columns per row owned by
        each (group, PIM ID): entry ``[g, p]`` is ``len(cols_of(p, g))``."""
        n_ids = 1 << len(self.id_masks)
        groups = np.arange(self.n_groups, dtype=np.int64)[:, None]
        key = groups * n_ids + self.group_pim_ids
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
        return np.nonzero(self.group_pim_ids[group] == pim)[0].astype(np.int64)

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


def footprint_codes(
    mapping: XORAddressMapping, m_rows: int, row_bytes: int, base: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """``(row_codes, col_codes)`` of an aligned footprint.

    The packed codes (:meth:`XORAddressMapping.code`) of each matrix row's
    first byte and of each block column's offset; the block at (row r,
    column c) has code ``row_codes[r] ^ col_codes[c]``, since the aligned
    address sets the row and column bits apart.
    """
    bb = mapping.geometry.block_bytes
    return mapping.code_table(base, row_bytes, m_rows), mapping.code_table(0, bb, row_bytes // bb)
