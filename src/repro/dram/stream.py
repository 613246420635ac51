"""Vectorized timing model for in-order PIM access streams.

A StepStone PIM unit issues its cache-block accesses *in order* (the AGEN
walks addresses monotonically), so channel-level out-of-order scheduling adds
nothing: timing is dominated by (1) the CAS-to-CAS cadence between consecutive
blocks (tCCD_L within a bank group, tCCD_S across, rank switches), (2) AGEN
bubbles when the next address is not ready within the cadence window, and
(3) row-buffer misses, partially hidden because the deep AGEN pipeline lets
control logic activate upcoming rows ahead of time (§III-A: 20-stage pipeline
"sufficient to hide address generation and access latencies").

The model computes all three vectorized; the test suite validates it against
the command-level controller on randomized traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dram.timing import DDR4Timing, DDR4_2400R

if TYPE_CHECKING:
    import numpy as np

__all__ = ["StreamAccess", "StreamStats", "stream_cycles", "sequential_stream_cycles"]


@dataclass
class StreamAccess:
    """Column-access stream of one PIM unit, as parallel arrays.

    ``bank`` must be a *globally* unique flat bank index (rank/bankgroup/bank
    combined); ``bubbles`` holds per-access address-generation cycles (the
    AGEN iteration count), or ``None`` for an ideal generator.
    """

    rank: np.ndarray
    bankgroup: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    bubbles: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = len(self.row)
        for name in ("rank", "bankgroup", "bank"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if self.bubbles is not None and len(self.bubbles) != n:
            raise ValueError("bubbles length mismatch")

    def __len__(self) -> int:
        return len(self.row)


@dataclass
class StreamStats:
    """Result of a stream-timing evaluation."""

    cycles: float
    accesses: int
    row_hits: int
    row_misses: int
    bubble_stall_cycles: float
    cadence_cycles: float
    miss_penalty_cycles: float

    @property
    def cycles_per_access(self) -> float:
        return self.cycles / self.accesses if self.accesses else 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


def _pairwise_cadence(acc: StreamAccess, t: DDR4Timing) -> np.ndarray:
    """Minimum command spacing before each access (index 0 gets startup)."""
    import numpy as np

    n = len(acc)
    gaps = np.full(n, t.tCCDS, dtype=np.float64)
    if n > 1:
        same_rank = acc.rank[1:] == acc.rank[:-1]
        same_bg = (acc.bankgroup[1:] == acc.bankgroup[:-1]) & same_rank
        g = np.where(same_bg, t.tCCDL, t.tCCDS).astype(np.float64)
        g = np.where(same_rank, g, t.tBL + t.tRTRS)
        gaps[1:] = g
    gaps[0] = 0.0
    return gaps


def stream_cycles(
    acc: StreamAccess,
    timing: DDR4Timing = DDR4_2400R,
    lookahead_act: bool = True,
    refresh: bool = True,
    fixed_point_iters: int = 2,
) -> StreamStats:
    """Cycles to stream all accesses of one PIM unit, in order.

    ``lookahead_act=True`` models StepStone's pipelined row activation: a row
    miss only stalls for the part of tRP+tRCD not already covered by the time
    since the previous access to the same bank.  ``False`` charges the full
    penalty (the behaviour of a generator that cannot run ahead, e.g. the
    naive AGEN whose next address is unknown until generated).
    """
    import numpy as np

    n = len(acc)
    if n == 0:
        return StreamStats(0.0, 0, 0, 0, 0.0, 0.0, 0.0)
    t = timing
    cadence = _pairwise_cadence(acc, t)
    if acc.bubbles is not None:
        bub = acc.bubbles.astype(np.float64).copy()
        bub[0] = 0.0  # the first address overlaps the pipeline fill
        eff = np.maximum(cadence, bub)
        bubble_stall = float(np.sum(eff - cadence))
    else:
        eff = cadence
        bubble_stall = 0.0

    # Previous access to the same bank (stable grouping by bank).
    order = np.lexsort((np.arange(n), acc.bank))
    prev = np.full(n, -1, dtype=np.int64)
    ob = acc.bank[order]
    same_as_prev = np.zeros(n, dtype=bool)
    same_as_prev[1:] = ob[1:] == ob[:-1]
    prev_sorted = np.where(same_as_prev, np.roll(order, 1), -1)
    prev[order] = prev_sorted
    first_of_bank = prev < 0
    row_prev = np.where(first_of_bank, -1, acc.row[np.maximum(prev, 0)])
    miss = first_of_bank | (acc.row != row_prev)
    n_miss = int(np.sum(miss))
    n_hit = n - n_miss

    penalty_base = float(t.row_miss_penalty)
    penalties = np.zeros(n, dtype=np.float64)
    if not lookahead_act:
        penalties[miss] = penalty_base
        total = float(np.sum(eff + penalties))
    else:
        # Fixed point: penalties depend on inter-access elapsed times, which
        # depend on penalties.  Two iterations converge in practice (each
        # round only shrinks penalties; validated against the controller).
        for _ in range(max(1, fixed_point_iters)):
            tline = np.cumsum(eff + penalties)
            elapsed = np.where(
                first_of_bank, np.inf, tline - tline[np.maximum(prev, 0)]
            )
            # tRC also gates back-to-back ACTs to one bank.
            trc_gap = np.maximum(0.0, t.tRC - elapsed)
            new_pen = np.where(
                miss, np.maximum(np.maximum(0.0, penalty_base - elapsed), trc_gap), 0.0
            )
            new_pen[first_of_bank & miss] = 0.0  # first touch: ACT issued ahead
            penalties = new_pen
        total = float(np.sum(eff + penalties))

    # Four-activate window: ACT rate per rank cannot exceed 4 per tFAW.
    for r in np.unique(acc.rank):
        acts_r = int(np.sum(miss & (acc.rank == r)))
        total = max(total, acts_r / 4.0 * t.tFAW)

    # Pipeline fill: first command's ACT + CAS + burst return.
    total += t.tRCD + t.tCL + t.tBL
    if refresh:
        total *= 1.0 / (1.0 - t.refresh_overhead)
    return StreamStats(
        cycles=total,
        accesses=n,
        row_hits=n_hit,
        row_misses=n_miss,
        bubble_stall_cycles=bubble_stall,
        cadence_cycles=float(np.sum(eff)),
        miss_penalty_cycles=float(np.sum(penalties)) if lookahead_act else n_miss * penalty_base,
    )


def sequential_stream_cycles(
    n_blocks: float,
    timing: DDR4Timing = DDR4_2400R,
    cadence: float | None = None,
    blocks_per_row: int = 128,
    refresh: bool = True,
) -> float:
    """Analytic cycles for a *contiguous* scan of ``n_blocks`` cache blocks.

    Used for scratchpad buffer fill/drain and DMA streams over PIM-local
    regions, which the localization engine laid out sequentially (§III-B,
    Fig. 5 "reorganizes the input matrix ... such that accesses are
    sequential").  Row crossings in a contiguous scan move to a different
    bank, so activations overlap streaming whenever a row holds enough
    blocks to cover tRP+tRCD (true for all Table II geometries).
    """
    t = timing
    if n_blocks <= 0:
        return 0.0
    if cadence is None:
        cadence = float(t.tCCDS)
    rows = max(1.0, math.ceil(n_blocks / blocks_per_row))
    hidden = (blocks_per_row - 1) * cadence
    per_miss = max(0.0, t.row_miss_penalty - hidden)
    total = n_blocks * cadence + rows * per_miss + t.tRCD + t.tCL + t.tBL
    if refresh:
        total *= 1.0 / (1.0 - t.refresh_overhead)
    return float(total)
