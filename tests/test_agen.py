"""AGEN validation: exact traces vs. brute-force oracle (paper §IV method)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agen import (
    ExactStepStoneAGEN,
    agen_supported,
    naive_iterations,
    solve_constraints,
    stepstone_iteration_counts,
)
from repro.mapping.analysis import Constraint, analyze_footprint
from repro.mapping.presets import make_skylake, mapping_by_id
from repro.mapping.xor_mapping import PimLevel


@pytest.fixture(scope="module")
def sky():
    return make_skylake()


class TestSolveConstraints:
    def test_unconstrained_full_space(self):
        s = solve_constraints([], 4)
        assert s.size == 16
        assert sorted(int(x) for x in s.elements()) == list(range(16))

    def test_single_parity_halves_space(self):
        s = solve_constraints([Constraint(0b101, 1)], 4)
        assert s.size == 8
        for x in s.elements():
            assert bin(int(x) & 0b101).count("1") % 2 == 1

    def test_contradiction_returns_none(self):
        assert solve_constraints([Constraint(0b1, 0), Constraint(0b1, 1)], 4) is None
        assert solve_constraints([Constraint(0, 1)], 4) is None

    def test_elements_strictly_increasing(self):
        s = solve_constraints([Constraint(0b1100, 1), Constraint(0b0011, 0)], 6)
        els = [s.element(k) for k in range(s.size)]
        assert els == sorted(els)
        assert len(set(els)) == s.size

    def test_index_of_roundtrip(self):
        s = solve_constraints([Constraint(0b1010, 1)], 5)
        for k in range(s.size):
            assert s.index_of(s.element(k)) == k

    def test_index_of_nonmember_raises(self):
        s = solve_constraints([Constraint(0b1, 1)], 3)
        with pytest.raises(ValueError):
            s.index_of(0)  # parity of bit0 is 0, not a member

    @settings(max_examples=30, deadline=None)
    @given(
        n_bits=st.integers(min_value=3, max_value=10),
        data=st.data(),
    )
    def test_solution_set_matches_bruteforce(self, n_bits, data):
        n_cons = data.draw(st.integers(min_value=0, max_value=3))
        cons = []
        for _ in range(n_cons):
            mask = data.draw(st.integers(min_value=1, max_value=(1 << n_bits) - 1))
            tgt = data.draw(st.integers(min_value=0, max_value=1))
            cons.append(Constraint(mask, tgt))
        s = solve_constraints(cons, n_bits)
        brute = [
            x
            for x in range(1 << n_bits)
            if all(bin(x & c.mask).count("1") % 2 == c.target for c in cons)
        ]
        if s is None:
            assert brute == []
        else:
            got = sorted(int(e) for e in s.elements())
            assert got == brute


class TestExactAgen:
    @pytest.mark.parametrize("level", list(PimLevel))
    @pytest.mark.parametrize("m,k", [(32, 512), (64, 1024)])
    def test_trace_equals_oracle_all_pairs(self, sky, level, m, k):
        """The paper's validation: AGEN addresses == pre-generated trace."""
        fa = analyze_footprint(sky, level, m, k)
        for pim in fa.active_pim_ids():
            for grp in range(fa.n_groups):
                agen = ExactStepStoneAGEN(fa, int(pim), grp)
                oracle = np.sort(fa.blocks_of(int(pim), grp))
                assert np.array_equal(agen.trace(), oracle), (level, pim, grp)

    @settings(max_examples=15, deadline=None)
    @given(
        mid=st.integers(min_value=0, max_value=4),
        m_exp=st.integers(min_value=4, max_value=7),
        k_exp=st.integers(min_value=7, max_value=10),
        level=st.sampled_from(list(PimLevel)),
    )
    def test_trace_equals_oracle_random(self, mid, m_exp, k_exp, level):
        mapping = mapping_by_id(mid)
        fa = analyze_footprint(mapping, level, 1 << m_exp, 1 << k_exp)
        pim = int(fa.active_pim_ids()[-1])
        for grp in range(min(2, fa.n_groups)):
            agen = ExactStepStoneAGEN(fa, pim, grp)
            oracle = np.sort(fa.blocks_of(pim, grp))
            assert np.array_equal(agen.trace(), oracle)

    def test_agen_supported_matches_ownership(self, sky):
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 64, 1024)
        for pim in fa.active_pim_ids():
            for grp in range(fa.n_groups):
                assert agen_supported(fa, int(pim), grp) == fa.owns_blocks(int(pim), grp)

    def test_trace_with_iterations_lengths(self, sky):
        fa = analyze_footprint(sky, PimLevel.DEVICE, 32, 512)
        agen = ExactStepStoneAGEN(fa, int(fa.active_pim_ids()[0]), 0)
        addrs, iters = agen.trace_with_iterations()
        assert len(addrs) == len(iters)


class TestIterationModels:
    def test_stepstone_counts_small(self):
        c = stepstone_iteration_counts(9)
        # Ruler sequence: step k costs tz(k)+2.
        assert c.tolist() == [2, 2, 3, 2, 4, 2, 3, 2, 5]

    def test_stepstone_counts_bounded(self):
        c = stepstone_iteration_counts(1 << 12)
        assert c.max() <= 12 + 2
        assert c.mean() < 4.0

    def test_stepstone_empty(self):
        assert len(stepstone_iteration_counts(0)) == 0

    def test_stepstone_counts_match_int_oracle(self):
        # Step 0 is the pipeline fill (2); step k costs tz(k) + 2, with tz
        # from Python ints: the bit index of the lowest set bit.
        n_max = 1 << 14
        oracle = np.array(
            [2] + [(k & -k).bit_length() - 1 + 2 for k in range(1, n_max)],
            dtype=np.int64,
        )
        for n in range(n_max + 1):
            c = stepstone_iteration_counts(n)
            assert c.dtype == np.int64
            assert np.array_equal(c, oracle[:n]), n

    def test_naive_gap_counts(self):
        addrs = np.array([0, 64, 256, 320], dtype=np.uint64)
        assert naive_iterations(addrs).tolist() == [1, 1, 3, 1]

    def test_naive_requires_increasing(self):
        with pytest.raises(ValueError):
            naive_iterations(np.array([64, 0], dtype=np.uint64))

    def test_naive_mean_tracks_pim_count(self, sky):
        """§V-C intuition: naive finds the next block with p ~ 1/n_pims,
        so mean within-row gap is about the active-PIM count per row."""
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 1024, 4096)
        pim = int(fa.active_pim_ids()[0])
        row = fa.rows_of_group(0)[:1]
        addrs = fa.blocks_of(pim, 0, rows=row)
        gaps = naive_iterations(addrs)[1:]
        # Within a row, 4 PIM IDs are reachable under Skylake: mean gap ~4.
        assert 2.0 <= gaps.mean() <= 8.0
