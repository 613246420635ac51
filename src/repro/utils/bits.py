"""Bit-manipulation primitives used throughout the address-mapping layer.

All XOR-based DRAM address mappings in this package are linear functions over
GF(2): every output bit (channel, rank, bank-group, bank, row, column bit) is
the parity of the physical address ANDed with a mask.  These helpers provide
scalar and vectorized (NumPy ``uint64``) parity evaluation, bit
scatter/gather, and the GF(2) rank, echelon basis and coset enumeration
that footprint analysis reads its block groups from.  Only the ``*_u64``
helpers import NumPy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "bit",
    "mask_of_bits",
    "bits_of_mask",
    "parity",
    "parity_u64",
    "extract_bits",
    "lowest_set_bit",
    "highest_set_bit",
    "scatter_bits",
    "gather_bits",
    "iter_submasks",
    "gf2_rank",
    "gf2_echelon",
    "gf2_coset",
]


def bit(i: int) -> int:
    """Return an integer with only bit *i* set."""
    if i < 0:
        raise ValueError(f"bit index must be non-negative, got {i}")
    return 1 << i


def mask_of_bits(bits: Iterable[int]) -> int:
    """Build a mask with the given bit positions set.

    >>> mask_of_bits([0, 3])
    9
    """
    m = 0
    for b in bits:
        m |= bit(b)
    return m


def bits_of_mask(mask: int) -> List[int]:
    """List the set-bit positions of *mask* in ascending order.

    >>> bits_of_mask(9)
    [0, 3]
    """
    if mask < 0:
        raise ValueError("mask must be non-negative")
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def parity(x: int) -> int:
    """Parity (popcount mod 2) of a Python integer (arbitrary precision)."""
    return bin(x).count("1") & 1


def parity_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized parity of each element of a ``uint64`` array.

    Returns a ``uint64`` array of 0/1 values.  Uses the hardware popcount when
    available (NumPy >= 2.0) and XOR-folding otherwise.
    """
    import numpy as np

    x = np.asarray(x, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.uint64) & np.uint64(1)
    # XOR-fold: the parity of all 64 bits accumulates into bit 0.
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> np.uint64(shift))
    return x & np.uint64(1)


def extract_bits(x: int, bits: Iterable[int]) -> int:
    """Pack the values of *x* at the given bit positions into a small integer.

    ``bits[0]`` becomes bit 0 of the result, ``bits[1]`` bit 1, and so on.
    """
    out = 0
    for k, b in enumerate(bits):
        out |= ((x >> b) & 1) << k
    return out


def lowest_set_bit(mask: int) -> int:
    """Index of the least-significant set bit (-1 if mask == 0)."""
    if mask == 0:
        return -1
    return (mask & -mask).bit_length() - 1


def highest_set_bit(mask: int) -> int:
    """Index of the most-significant set bit (-1 if mask == 0)."""
    if mask == 0:
        return -1
    return mask.bit_length() - 1


def scatter_bits(value: int, mask: int) -> int:
    """Deposit the low bits of *value* into the set-bit positions of *mask*.

    This is the software equivalent of the BMI2 ``pdep`` instruction: bit 0 of
    *value* lands in the lowest set bit of *mask*, bit 1 in the next, etc.
    """
    out = 0
    k = 0
    m = mask
    while m:
        b = lowest_set_bit(m)
        if (value >> k) & 1:
            out |= 1 << b
        m &= m - 1
        k += 1
    return out


def gather_bits(value: int, mask: int) -> int:
    """Extract the bits of *value* at set positions of *mask* (``pext``)."""
    out = 0
    k = 0
    m = mask
    while m:
        b = lowest_set_bit(m)
        if (value >> b) & 1:
            out |= 1 << k
        m &= m - 1
        k += 1
    return out


def iter_submasks(mask: int):
    """Yield every submask of *mask* (including 0 and *mask* itself).

    Uses the standard ``(s - 1) & mask`` enumeration; yields ``2**popcount``
    values in decreasing order followed by 0.
    """
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of integer bit vectors."""
    return len(gf2_echelon(vectors))


def gf2_echelon(vectors: Iterable[int]) -> List[int]:
    """Reduced echelon basis over GF(2) of the span of integer bit vectors,
    ascending: the leading (highest set) bits are distinct, and each is
    clear in every other basis vector, so XOR-ing a basis vector in flips
    its own leading bit and no other (see :func:`gf2_coset`)."""
    basis: List[int] = []
    for v in vectors:
        for b in basis:
            if v ^ b < v:  # v has b's leading bit
                v ^= b
        if v:
            top = 1 << (v.bit_length() - 1)
            basis = [b ^ v if b & top else b for b in basis]
            basis.append(v)
    return sorted(basis)


def gf2_coset(x: int, basis: Sequence[int]) -> List[int]:
    """Element ``i`` is ``min ^ XOR(basis[t] for t in bits of i)``, ``min``
    being ``x`` with every leading bit cleared.  For a ``basis`` from
    :func:`gf2_echelon` these are the coset ``x ^ span(basis)`` ascending:
    two elements first differ at the leading bit of the highest vector
    where their indices differ (DESIGN.md, "Footprints from cosets")."""
    for b in basis:
        x = min(x, x ^ b)
    out = [x]
    for b in basis:
        out += [y ^ b for y in out]
    return out


def scatter_bits_u64(values: np.ndarray, mask: int) -> np.ndarray:
    """Vectorized ``scatter_bits``: deposit each element's low bits into *mask*.

    *values* must be ``uint64``; the result is ``uint64``.
    """
    from numpy import asarray, uint64, zeros_like

    values = asarray(values, dtype=uint64)
    out = zeros_like(values)
    for k, b in enumerate(bits_of_mask(mask)):
        out |= ((values >> uint64(k)) & uint64(1)) << uint64(b)
    return out


def gather_bits_u64(values: np.ndarray, mask: int) -> np.ndarray:
    """Vectorized ``gather_bits`` over a ``uint64`` array."""
    from numpy import asarray, uint64, zeros_like

    values = asarray(values, dtype=uint64)
    out = zeros_like(values)
    for k, b in enumerate(bits_of_mask(mask)):
        out |= ((values >> uint64(b)) & uint64(1)) << uint64(k)
    return out
