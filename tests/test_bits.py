"""Unit and property tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import bits as B


class TestMasks:
    def test_bit(self):
        assert B.bit(0) == 1
        assert B.bit(7) == 128

    def test_bit_negative_raises(self):
        with pytest.raises(ValueError):
            B.bit(-1)

    def test_mask_roundtrip(self):
        positions = [0, 3, 17, 40]
        assert B.bits_of_mask(B.mask_of_bits(positions)) == positions

    def test_bits_of_mask_empty(self):
        assert B.bits_of_mask(0) == []

    def test_bits_of_mask_negative_raises(self):
        with pytest.raises(ValueError):
            B.bits_of_mask(-5)

    def test_lowest_highest(self):
        assert B.lowest_set_bit(0b101000) == 3
        assert B.highest_set_bit(0b101000) == 5
        assert B.lowest_set_bit(0) == -1
        assert B.highest_set_bit(0) == -1


class TestParity:
    def test_parity_scalar(self):
        assert B.parity(0) == 0
        assert B.parity(0b1011) == 1
        assert B.parity(0b11) == 0

    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=50))
    def test_parity_u64_matches_scalar(self, xs):
        arr = np.asarray(xs, dtype=np.uint64)
        vec = B.parity_u64(arr)
        for x, v in zip(xs, vec):
            assert B.parity(x) == int(v)

    def test_parity_u64_shape_preserved(self):
        arr = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert B.parity_u64(arr).shape == (3, 4)


class TestScatterGather:
    @given(
        st.integers(min_value=0, max_value=2**20 - 1),
        st.integers(min_value=0, max_value=2**40 - 1),
    )
    def test_scatter_gather_roundtrip(self, value, mask):
        k = bin(mask).count("1")
        v = value & ((1 << k) - 1)
        assert B.gather_bits(B.scatter_bits(v, mask), mask) == v

    @given(st.integers(min_value=0, max_value=2**40 - 1))
    def test_scatter_stays_in_mask(self, mask):
        out = B.scatter_bits(2**30 - 1, mask)
        assert out & ~mask == 0

    def test_known_values(self):
        assert B.scatter_bits(0b11, 0b1010) == 0b1010
        assert B.gather_bits(0b1010, 0b1010) == 0b11

    @given(
        st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=2**24 - 1),
    )
    def test_vectorized_matches_scalar(self, values, mask):
        arr = np.asarray(values, dtype=np.uint64)
        sc = B.scatter_bits_u64(arr, mask)
        ga = B.gather_bits_u64(sc, mask)
        for v, s, g in zip(values, sc, ga):
            k = bin(mask).count("1")
            assert int(s) == B.scatter_bits(v & ((1 << k) - 1), mask)
            assert int(g) == (v & ((1 << k) - 1))


class TestSubmasks:
    def test_iter_submasks_counts(self):
        mask = 0b1011
        subs = list(B.iter_submasks(mask))
        assert len(subs) == 8
        assert subs[0] == mask
        assert subs[-1] == 0
        assert all(s & ~mask == 0 for s in subs)

    def test_iter_submasks_zero(self):
        assert list(B.iter_submasks(0)) == [0]


class TestGf2Rank:
    @given(st.lists(st.integers(0, 255), max_size=10))
    def test_rank_is_log2_of_the_span(self, vectors):
        span = {0}
        for v in vectors:
            span |= {s ^ v for s in span}
        assert 1 << B.gf2_rank(vectors) == len(span)

    def test_dependent_and_zero_vectors_add_nothing(self):
        assert B.gf2_rank([0b011, 0b110, 0b101, 0]) == 2
        assert B.gf2_rank([]) == 0


class TestGf2Cosets:
    """The echelon basis enumerates any coset in ascending order, which is
    what footprint analysis reads group rows and (PIM, group) columns off."""

    @given(
        st.lists(st.integers(0, 2**12 - 1), max_size=8),
        st.integers(0, 2**12 - 1),
    )
    def test_coset_matches_a_sorted_brute_force_scan(self, vectors, x):
        span = {0}
        for v in vectors:
            span |= {s ^ v for s in span}
        want = sorted(x ^ s for s in span)
        basis = B.gf2_echelon(vectors)
        leads = [b.bit_length() - 1 for b in basis]
        # Reduced echelon: ascending distinct leading bits, each clear in
        # every other basis vector, spanning the same space.
        assert leads == sorted(set(leads)) and len(basis) == B.gf2_rank(vectors)
        for i, b in enumerate(basis):
            assert [b >> lead & 1 for lead in leads] == [int(i == j) for j in range(len(leads))]
        got = B.gf2_coset(x, basis)
        assert got == want
        # Min, second and last element in closed form.
        lo = got[0]
        assert lo == min(want)
        if basis:
            assert want[1] == lo ^ basis[0]
        last = lo
        for b in basis:
            last ^= b
        assert want[-1] == last
        # Any member reduces to the same minimum.
        assert all(B.gf2_coset(y, basis)[0] == lo for y in want[:4])

    def test_small_known_coset(self):
        # Kernel {0b011, 0b110}: echelon {0b011, 0b101}.
        basis = B.gf2_echelon([0b011, 0b110])
        assert basis == [0b011, 0b101]
        assert B.gf2_coset(0b111, basis) == [0b001, 0b010, 0b100, 0b111]
