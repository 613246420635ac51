"""Functional (value-level) simulation of the StepStone GEMM flow.

The paper validates its execution flow by making Ramulator read and write
real values and checking the final output against pre-calculated results
(§IV).  This module is the equivalent here: it executes localization ->
per-(PIM, group) partial GEMMs -> reduction *through the address mapping*
(every cache block is resolved to matrix elements via its physical address)
and returns the reduced C for comparison with ``A @ B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.mapping.analysis import FootprintAnalysis
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

__all__ = ["FunctionalStats", "functional_gemm"]


@dataclass
class FunctionalStats:
    """Coverage bookkeeping of one functional run."""

    blocks_touched: int
    total_blocks: int
    blocks_per_pim: Dict[int, int]
    n_groups: int
    n_active_pims: int

    @property
    def complete(self) -> bool:
        return self.blocks_touched == self.total_blocks


def functional_gemm(
    mapping: XORAddressMapping,
    level: PimLevel,
    a: np.ndarray,
    b: np.ndarray,
    base: int = 0,
    pinned_id_bits: int = 0,
) -> Tuple[np.ndarray, FunctionalStats]:
    """Compute ``A @ B`` through the distributed StepStone flow.

    ``a`` is the M x K weight matrix (row-major at physical address *base*),
    ``b`` the K x N input.  M and K must be powers of two with K spanning
    whole cache blocks (call sites pad, as the planner does).

    Returns the reduced C and coverage statistics.  Values are computed in
    the input dtype's promotion with float64 accumulation, so the result is
    exactly ``A @ B`` up to reduction-order rounding.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible GEMM operands {a.shape} x {b.shape}")
    m_rows, k_cols = a.shape
    n = b.shape[1]
    fa = FootprintAnalysis(
        mapping,
        level,
        m_rows,
        k_cols,
        base=base,
        word_bytes=4,
        pinned_id_bits=pinned_id_bits,
    )
    g = mapping.geometry
    words_per_block = g.block_bytes // 4

    # Localized per-PIM partial C accumulators (the per-slice partials sum
    # to the same values, so slicing is value-transparent).
    partials: Dict[int, np.ndarray] = {}
    blocks_per_pim: Dict[int, int] = {}
    touched = 0
    # Every group's block columns ordered by owning PIM (a stable sort keeps
    # each PIM's columns ascending), and where each PIM's run starts.
    counts = fa.col_counts
    by_pim = np.argsort(fa.group_pim_ids, axis=1, kind="stable")
    run_start = np.cumsum(counts, axis=1) - counts
    for pim in fa.active_pim_ids():
        pim = int(pim)
        acc = np.zeros((m_rows, n), dtype=np.float64)
        count = 0
        for grp in np.flatnonzero(counts[:, pim]):
            lo = run_start[grp, pim]
            cols = by_pim[grp, lo : lo + counts[grp, pim]]
            rows = fa.rows_of_group(grp)
            # Localization: gather the B rows this (PIM, group) needs —
            # the DMA engine's reorganized copy (Fig. 5).
            word_idx = (cols[:, None] * words_per_block + np.arange(words_per_block)).ravel()
            b_local = b[word_idx, :]
            # Group execution: every row of the group walks the same local
            # columns (the group invariant) accumulating into its C row.
            a_tiles = a[np.ix_(rows, word_idx)].astype(np.float64)
            acc[rows, :] += a_tiles @ b_local.astype(np.float64)
            count += len(cols) * len(rows)
        partials[pim] = acc
        blocks_per_pim[pim] = count
        touched += count

    # Reduction: the controller-side engine sums every partial.
    c = np.zeros((m_rows, n), dtype=np.float64)
    for acc in partials.values():
        c += acc
    stats = FunctionalStats(
        blocks_touched=touched,
        total_blocks=fa.total_blocks,
        blocks_per_pim=blocks_per_pim,
        n_groups=fa.n_groups,
        n_active_pims=fa.n_active_pims,
    )
    return c.astype(np.result_type(a.dtype, b.dtype, np.float64)), stats
