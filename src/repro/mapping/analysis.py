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

The map is GF(2)-linear, so all of this is read off cosets over Python
ints (DESIGN.md, "Footprints from cosets"): with C and R the PIM-ID
vectors of the column-offset and row-index bits, block (r, c) has ID
``base_id ^ R(r) ^ C(c)``, the groups are the cosets of ker R (raw code
``R(r)``), and (PIM p, group g) owns the coset of ker C that C maps to
``p ^ base_id ^ raw_g``.  Three eliminations give every basis, and the
active PIM IDs are listed only when read, so an analysis costs about
three GF(2) ranks.  The array views import NumPy where they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.utils.bits import bits_of_mask, gf2_coset, gf2_echelon, parity
from repro.mapping.xor_mapping import DRAMGeometry, PimLevel, XORAddressMapping

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Constraint", "BlockGrouping", "GroupWork", "FootprintAnalysis", "analyze_footprint",
    "check_placement", "footprint_id_vectors",
]


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


@dataclass(frozen=True)
class GroupWork:
    """One (PIM, group) work item: how many columns/rows this PIM walks."""

    pim: int
    group: int
    n_cols: int  # block columns owned per matrix row of the group
    n_rows: int  # matrix rows in the group


def check_placement(geometry: DRAMGeometry, base: int, footprint: int) -> None:
    """Raise ``ValueError`` unless a ``footprint``-byte matrix at ``base``
    lies inside DRAM, aligned to its size (addresses past the capacity
    would alias low memory)."""
    capacity = geometry.capacity_bytes
    if footprint > capacity:
        raise ValueError("matrix exceeds DRAM capacity")
    if not 0 <= base <= capacity - footprint:
        raise ValueError(
            f"base {base:#x} puts the {footprint:#x}-byte footprint outside the "
            f"{capacity:#x}-byte DRAM"
        )
    if base % footprint:
        raise ValueError(f"base {base:#x} must be aligned to the {footprint:#x}-byte footprint")


def footprint_id_vectors(
    mapping: XORAddressMapping, level: PimLevel, pinned_id_bits: int, row_bytes: int,
    footprint: int,
) -> Tuple[List[int], List[int]]:
    """``(C, R)``: the PIM IDs (over the subsetted ID space) of each
    column-offset bit and each row-index bit of a footprint, low bit first."""
    lo, mid, hi = (x.bit_length() - 1 for x in (mapping.geometry.block_bytes, row_bytes, footprint))
    ids = [mapping.code_pim_ids(c, level, pinned_id_bits) for c in mapping._bit_codes[lo:hi]]
    return ids[: mid - lo], ids[mid - lo :]


def _image_and_kernel(ids: List[int]) -> Tuple[List[Tuple[int, int]], List[int]]:
    """``(image, kernel)`` of the map sending bit ``j`` to ``ids[j]``, from
    one echelon basis of ``ids[j] << d | 1 << j``: the image's echelon
    basis, each vector paired with a preimage that has every kernel
    leading bit clear, and the kernel's echelon basis."""
    d = len(ids)
    # A bit whose ID is 0 is its own kernel vector, and no other vector
    # ever gains that bit, so only the others are eliminated.
    basis = gf2_echelon((v << d) | (1 << j) for j, v in enumerate(ids) if v)
    kernel = [v for v in basis if not v >> d] + [1 << j for j, v in enumerate(ids) if not v]
    low = (1 << d) - 1
    return [(v >> d, v & low) for v in basis if v >> d], sorted(kernel)


class FootprintAnalysis:
    """Analysis of one contiguous, aligned matrix footprint under a mapping.

    Parameters
    ----------
    mapping: the XOR address mapping.
    level: PIM integration level (CH / DV / BG).
    m_rows, k_cols: matrix dimensions (A is M x K, row-major fp32).
    base: physical base address; the footprint must lie inside DRAM,
        aligned to its size.
    word_bytes: element size (4 for fp32).

    The N-independent half of every plan of the footprint: plans and priced
    search candidates share one through the ``footprint`` memo
    (:mod:`repro.core.memo`), so treat it as read-only.
    """

    def __init__(
        self, mapping: XORAddressMapping, level: PimLevel, m_rows: int, k_cols: int,
        base: int = 0, word_bytes: int = 4, pinned_id_bits: int = 0,
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
        check_placement(g, base, footprint)
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
        self.base_id = self.pim_ids_of(mapping.code(base))
        ids = footprint_id_vectors(mapping, level, pinned_id_bits, row_bytes, footprint)
        self.col_ids, self.row_ids = ids
        self._row_image, self.row_kernel = _image_and_kernel(self.row_ids)
        self._col_image, self.col_kernel = _image_and_kernel(self.col_ids)
        # The IDs the footprint reaches from base_id: C's and R's images.
        self._span = gf2_echelon([v for v, _ in self._col_image + self._row_image])
        #: Raw group codes, ascending (the image of R), and each group's
        #: first row (the minimum of its coset of ker R).
        self.raw_codes: Tuple[int, ...] = tuple(gf2_coset(0, [v for v, _ in self._row_image]))
        self._first_rows = gf2_coset(0, [row for _, row in self._row_image])
        self.n_groups = len(self.raw_codes)
        self.group_size = 1 << len(self.row_kernel)  # matrix rows per group
        self.group_cols = 1 << len(self.col_kernel)  # columns per owning (PIM, group)
        self.total_cols = self.n_groups * self.blocks_per_row  # over every (PIM, group)
        # Every active PIM owns equally many blocks and columns.
        self.n_active_pims = 1 << len(self._span)

    @cached_property
    def _active(self) -> List[int]:
        return gf2_coset(self.base_id, self._span)

    @property
    def critical_pim(self) -> int:
        """The active PIM with the lowest ID: every one owns as many blocks."""
        return self._active[0]

    def pim_ids_of(self, codes):
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

    def active_pim_ids(self) -> List[int]:
        """The PIM IDs the footprint touches, ascending: ``base_id`` XOR
        the span of the column and row bits' IDs."""
        return list(self._active)

    def blocks_per_pim(self) -> Dict[int, int]:
        """Total local block count per active PIM (sums to total_blocks)."""
        share = self.total_blocks // self.n_active_pims
        return {pim: share for pim in self._active}

    @cached_property
    def work(self) -> Dict[int, Tuple[GroupWork, ...]]:
        """Active PIM -> its (PIM, group) work items, in group order."""
        cols, rows = self.group_cols, self.group_size
        return {
            pim: tuple(GroupWork(pim, grp, cols, rows) for grp in self.groups_of(pim))
            for pim in self._active
        }

    # ------------------------------------------------------------------ #
    # Block groups and per-(PIM, group) columns, from the cosets
    # ------------------------------------------------------------------ #

    def group_row(self, group: int, i: int) -> int:
        """The ``i``-th smallest matrix row of ``group``."""
        row = self._first_rows[group]
        for t, b in enumerate(self.row_kernel):
            if i >> t & 1:
                row ^= b
        return row

    def _col_min(self, pim: int, group: int) -> Optional[int]:
        """The smallest block column of (pim, group), or ``None`` when the
        pair owns none: C's preimage of ``pim ^ base_id ^ raw_code``."""
        target, col = pim ^ self.base_id ^ self.raw_codes[group], 0
        for image, pre in self._col_image:
            if target ^ image < target:  # target has image's leading bit
                target ^= image
                col ^= pre
        return None if target else col

    def local_cols(self, pim: int, group: int) -> List[int]:
        """Block columns of (pim, group), ascending (empty if it owns none)."""
        col = self._col_min(pim, group)
        return [] if col is None else gf2_coset(col, self.col_kernel)

    def groups_of(self, pim: int) -> List[int]:
        """The groups in which ``pim`` owns columns, ascending."""
        return [grp for grp in range(self.n_groups) if self._col_min(pim, grp) is not None]

    # ------------------------------------------------------------------ #
    # Array views (NumPy, imported here)
    # ------------------------------------------------------------------ #

    @cached_property
    def _row_table(self) -> np.ndarray:
        """``(n_groups x group_size)`` rows of every group, ascending; read-only."""
        import numpy as np

        first = np.array(self._first_rows, dtype=np.int64)
        table = first[:, None] ^ np.array(gf2_coset(0, self.row_kernel), dtype=np.int64)
        table.flags.writeable = False
        return table

    @cached_property
    def grouping(self) -> BlockGrouping:
        import numpy as np

        row_groups = np.empty(self.m_rows, dtype=np.int64)
        row_groups[self._row_table] = np.arange(self.n_groups)[:, None]
        return BlockGrouping(self.raw_codes, row_groups)

    def rows_of_group(self, group: int) -> np.ndarray:
        """Sorted matrix-row indices of *group* (a read-only view)."""
        if not 0 <= group < self.n_groups:
            return self._row_table[0, :0]
        return self._row_table[group]

    @cached_property
    def group_pim_ids(self) -> np.ndarray:
        """``(n_groups x blocks_per_row)`` PIM IDs of every block column of
        each group's rows (the group invariant); read-only."""
        import numpy as np

        rows = np.array(self.raw_codes, dtype=np.int64) ^ self.base_id
        ids = rows[:, None] ^ np.array(gf2_coset(0, self.col_ids), dtype=np.int64)
        ids.flags.writeable = False
        return ids

    @cached_property
    def col_counts(self) -> np.ndarray:
        """``(n_groups x 2**len(id_masks))`` block columns per row owned by
        each (group, PIM ID): entry ``[g, p]`` is ``len(cols_of(p, g))``."""
        import numpy as np

        counts = np.zeros((self.n_groups, 1 << len(self.id_masks)), dtype=np.int64)
        for pim in self._active:
            counts[self.groups_of(pim), pim] = self.group_cols
        counts.flags.writeable = False
        return counts

    def cols_of(self, pim: int, group: int) -> np.ndarray:
        """Block-column offsets (0..blocks_per_row-1) local to *pim* in *group*.

        Identical for every row of the group — that is the group invariant.
        """
        import numpy as np

        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} is empty")
        return np.array(self.local_cols(int(pim), group), dtype=np.int64)

    def blocks_of(self, pim: int, group: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Block addresses of (pim, group) in execution order (row-major).

        Execution order walks each matrix row's local blocks left-to-right,
        then advances to the group's next row — the order that maximizes C
        reuse along rows and B reuse down columns (§III-B).
        """
        from numpy import asarray, empty, uint64 as u64

        cols = self.cols_of(pim, group)
        if rows is None:
            rows = self.rows_of_group(group)
        rows = asarray(rows, dtype=u64)
        if len(cols) == 0 or len(rows) == 0:
            return empty(0, dtype=u64)
        bb = u64(self.mapping.geometry.block_bytes)
        row_addrs = u64(self.base) + rows * u64(self.row_bytes)
        return (row_addrs[:, None] + cols.astype(u64)[None, :] * bb).ravel()

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
        raw_code = self.raw_codes[group]
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
    mapping: XORAddressMapping, level: PimLevel, m_rows: int, k_cols: int, base: int = 0,
    word_bytes: int = 4, pinned_id_bits: int = 0,
) -> FootprintAnalysis:
    """Construct a :class:`FootprintAnalysis` (convenience wrapper)."""
    return FootprintAnalysis(mapping, level, m_rows, k_cols, base, word_bytes, pinned_id_bits)

