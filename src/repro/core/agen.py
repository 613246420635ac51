"""StepStone memory-side address generation (AGEN, §III-D).

The set of cache-block offsets belonging to one (PIM, block-group) pair is an
*affine subspace* of the footprint over GF(2): every PIM-ID / group-ID bit
pins one parity of the offset.  StepStone's "increment-correct-and-check"
hardware walks this subspace in increasing address order; its two correction
rules (instant parity correction of adjacent same-ID bits, carry forwarding
across chains of distinct-ID bits) are exactly the trailing-bit corrections
of a reduced-echelon basis of the subspace:

* put the subspace's direction basis in integer-reduced echelon form (each
  vector has a unique leading "pivot" bit and zeros at other pivots);
* coset elements sorted by integer value correspond one-to-one to binary
  counter values over the pivot bits (monotone because each vector's
  sub-pivot correction bits sum to less than the pivot's weight);
* advancing to the next local block increments that counter; the hardware
  touches one ID-affecting pivot per carry, so the iteration count for step
  *k* is ``trailing_zeros(k) + 2`` (one simple-increment check plus one
  iteration per carried pivot) — bounded by the number of ID-affecting bits,
  as the paper states, and almost always hidden in the pipeline.

The **naive** generator instead bumps the address one cache block at a time
and re-checks, so its iteration count per step is the actual block gap —
about ``n_active_pims`` on average (§V-C's 1/n intuition) and far larger at
group-row boundaries.

`ExactStepStoneAGEN` is the reference implementation; the test suite checks
its trace byte-for-byte against a brute-force oracle over the mapping (the
paper's own validation methodology, §IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.mapping.analysis import Constraint, FootprintAnalysis
from repro.utils.bits import gf2_echelon

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AffineSubspace",
    "ExactStepStoneAGEN",
    "agen_supported",
    "stepstone_iteration_counts",
    "naive_iterations",
    "stepstone_iterations",
]


@dataclass
class AffineSubspace:
    """Solution set of GF(2) parity constraints over block indices.

    ``origin`` is the minimal element; ``basis`` is in integer-reduced
    echelon form sorted by ascending pivot, so element *k* (in increasing
    integer order) is ``origin XOR combine(bits of k)``.
    """

    origin: int
    basis: Tuple[int, ...]  # ascending pivots
    n_bits: int

    @property
    def size(self) -> int:
        return 1 << len(self.basis)

    def element(self, k: int) -> int:
        if not 0 <= k < self.size:
            raise IndexError(f"element {k} out of range (size {self.size})")
        x = self.origin
        i = 0
        while k:
            if k & 1:
                x ^= self.basis[i]
            k >>= 1
            i += 1
        return x

    def elements(self, start: int = 0, count: Optional[int] = None) -> np.ndarray:
        """Vectorized enumeration of elements [start, start+count)."""
        from numpy import arange, full, uint64 as u64, where

        if count is None:
            count = self.size - start
        ks = arange(start, start + count, dtype=u64)
        out = full(len(ks), u64(self.origin), dtype=u64)
        for i, v in enumerate(self.basis):
            out ^= where((ks >> u64(i)) & u64(1) == 1, u64(v), u64(0))
        return out

    def index_of(self, x: int) -> int:
        """Inverse of :meth:`element` (x must be a member)."""
        k = 0
        delta = x ^ self.origin
        for i in reversed(range(len(self.basis))):
            pivot = self.basis[i].bit_length() - 1
            if (delta >> pivot) & 1:
                k |= 1 << i
                delta ^= self.basis[i]
        if delta:
            raise ValueError(f"{x:#x} is not in the subspace")
        return k


def solve_constraints(
    constraints: Sequence[Constraint], n_bits: int
) -> Optional[AffineSubspace]:
    """Solve parity constraints over *n_bits* variables.

    Returns ``None`` when the system is infeasible (the (PIM, group) pair
    owns no blocks).  Masks/targets are over block-index bits.
    """
    # Gaussian elimination; rows are (mask, target) with distinct lowest-bit
    # pivots.  Reduce each incoming row to a fixpoint because clearing one
    # pivot can set another that an earlier pass already skipped.
    rows: List[Tuple[int, int]] = []
    for c in constraints:
        m, t = c.mask, c.target
        changed = True
        while changed and m:
            changed = False
            for rm, rt in rows:
                pivot = rm & -rm
                if m & pivot:
                    m ^= rm
                    t ^= rt
                    changed = True
        if m == 0:
            if t == 1:
                return None  # contradictory
            continue
        rows.append((m, t))
    # Back-substitute to reduced form (each pivot appears in one row).
    rows.sort(key=lambda r: r[0] & -r[0])
    for i in range(len(rows)):
        pm = rows[i][0] & -rows[i][0]
        for j in range(len(rows)):
            if j != i and rows[j][0] & pm:
                rows[j] = (rows[j][0] ^ rows[i][0], rows[j][1] ^ rows[i][1])
    pivot_bits = {(r[0] & -r[0]).bit_length() - 1: r for r in rows}
    free_bits = [b for b in range(n_bits) if b not in pivot_bits]
    # Particular solution: free bits zero; pivot bit = target parity of the
    # row's remaining (free) support, which is zero here, so just target.
    x0 = 0
    for b, (m, t) in pivot_bits.items():
        if t:
            x0 |= 1 << b
    # Null-space basis: one vector per free bit.
    basis: List[int] = []
    for f in free_bits:
        v = 1 << f
        for b, (m, t) in pivot_bits.items():
            if (m >> f) & 1:
                v |= 1 << b
        basis.append(v)
    # Integer-reduced echelon form (unique leading bits, cleared elsewhere)
    # and the canonical minimal origin (every leading bit of x0 cleared).
    echelon = gf2_echelon(basis)
    for v in echelon:
        x0 = min(x0, x0 ^ v)
    return AffineSubspace(origin=x0, basis=tuple(echelon), n_bits=n_bits)


class ExactStepStoneAGEN:
    """Reference AGEN for one (PIM, group): exact trace + iteration counts.

    Produces block *addresses* (not offsets) in increasing order, restricted
    to the matrix footprint, together with the per-step iteration count of
    the increment-correct-and-check hardware.
    """

    def __init__(self, analysis: FootprintAnalysis, pim: int, group: int) -> None:
        self.analysis = analysis
        self.pim = pim
        self.group = group
        g = analysis.mapping.geometry
        self.block_bytes = g.block_bytes
        n_bits = (analysis.footprint_bytes // g.block_bytes).bit_length() - 1
        cons = analysis.constraints_for(pim, group)
        shifted = [
            Constraint(c.mask >> g.block_bits, c.target) for c in cons if c.mask or c.target
        ]
        self.subspace = solve_constraints(shifted, n_bits)

    @property
    def n_blocks(self) -> int:
        return 0 if self.subspace is None else self.subspace.size

    def trace(self) -> np.ndarray:
        """All local block addresses in increasing order."""
        from numpy import empty, sort, uint64 as u64

        if self.subspace is None:
            return empty(0, dtype=u64)
        offs = sort(self.subspace.elements())
        return u64(self.analysis.base) + offs.astype(u64) * u64(self.block_bytes)

    def trace_with_iterations(self) -> Tuple[np.ndarray, np.ndarray]:
        """(addresses, per-step iteration counts); counts[0] is the first fill."""
        addrs = self.trace()
        iters = stepstone_iteration_counts(len(addrs))
        return addrs, iters


def agen_supported(analysis: FootprintAnalysis, pim: int, group: int) -> bool:
    """Whether (pim, group) owns blocks (i.e. constraints are feasible)."""
    return ExactStepStoneAGEN(analysis, pim, group).n_blocks > 0


def stepstone_iteration_counts(n_steps: int) -> np.ndarray:
    """Iteration counts of the StepStone AGEN for *n_steps* sequential steps.

    Step *k* (1-based) increments the pivot counter from k-1 to k, touching
    ``trailing_zeros(k)`` carried pivots plus the incremented one, after one
    simple-increment check: ``tz(k) + 2`` iterations.  Step 0 (initial fill)
    costs the pipeline depth and is accounted separately by the executor.
    """
    import numpy as np

    if n_steps <= 0:
        return np.empty(0, dtype=np.int64)
    k = np.arange(n_steps, dtype=np.int64)
    k[0] = 1  # placeholder; step 0 handled by pipeline fill
    # trailing_zeros(k) is the bit index of k's lowest set bit, k & -k: an
    # exact power of two, whose float exponent frexp reads off exactly.
    out = np.frexp((k & -k).astype(np.float64))[1].astype(np.int64) + 1
    out[0] = 2
    return out


def stepstone_iterations(addrs: np.ndarray) -> np.ndarray:
    """Per-access AGEN iteration model for an increasing address trace."""
    return stepstone_iteration_counts(len(addrs))


def naive_iterations(addrs: np.ndarray, block_bytes: int = 64) -> np.ndarray:
    """Naive generator iteration counts: one +1-block probe per gap block.

    ``addrs`` must be increasing block addresses; element 0 gets 1 (initial).
    """
    import numpy as np

    addrs = np.asarray(addrs, dtype=np.uint64)
    if len(addrs) == 0:
        return np.empty(0, dtype=np.int64)
    gaps = np.empty(len(addrs), dtype=np.int64)
    gaps[0] = 1
    if len(addrs) > 1:
        d = np.diff(addrs.astype(np.int64))
        if (d <= 0).any():
            raise ValueError("trace must be strictly increasing")
        gaps[1:] = d // block_bytes
    return gaps
