"""Tests for footprint analysis / block grouping invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapping.analysis import analyze_footprint
from repro.mapping.presets import make_skylake, mapping_by_id
from repro.mapping.xor_mapping import FIELD_ORDER, PimLevel

from footprint_arrays import footprint_codes


@pytest.fixture(scope="module")
def sky():
    return make_skylake()


class TestValidation:
    def test_non_pow2_rejected(self, sky):
        with pytest.raises(ValueError, match="powers of two"):
            analyze_footprint(sky, PimLevel.BANKGROUP, 100, 4096)

    def test_small_row_rejected(self, sky):
        with pytest.raises(ValueError, match="multiple of"):
            analyze_footprint(sky, PimLevel.BANKGROUP, 16, 8)

    def test_misaligned_base_rejected(self, sky):
        with pytest.raises(ValueError, match="aligned"):
            analyze_footprint(sky, PimLevel.BANKGROUP, 64, 1024, base=4096)

    def test_oversized_matrix_rejected(self, sky):
        with pytest.raises(ValueError, match="capacity"):
            analyze_footprint(sky, PimLevel.BANKGROUP, 2**20, 2**16)

    def test_bad_pinned_bits_rejected(self, sky):
        with pytest.raises(ValueError, match="pinned_id_bits"):
            analyze_footprint(sky, PimLevel.BANKGROUP, 64, 1024, pinned_id_bits=4)


class TestPartition:
    """Each cache block belongs to exactly one (PIM, group)."""

    @pytest.mark.parametrize("level", list(PimLevel))
    @pytest.mark.parametrize("m,k", [(64, 1024), (16, 512), (128, 256)])
    def test_blocks_partition(self, sky, level, m, k):
        fa = analyze_footprint(sky, level, m, k)
        seen = set()
        for pim in fa.active_pim_ids():
            for grp in range(fa.n_groups):
                for a in fa.blocks_of(int(pim), grp):
                    assert a not in seen
                    seen.add(int(a))
        assert len(seen) == fa.total_blocks

    def test_blocks_per_pim_sums(self, sky):
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 64, 1024)
        assert sum(fa.blocks_per_pim().values()) == fa.total_blocks

    def test_balanced_distribution(self, sky):
        """Power-of-two footprints distribute exactly evenly."""
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 256, 4096)
        counts = list(fa.blocks_per_pim().values())
        assert len(set(counts)) == 1


class TestGroupInvariant:
    """The defining property: within a group, every row has the same
    column -> PIM striping (the reuse StepStone exploits)."""

    @pytest.mark.parametrize("level", list(PimLevel))
    def test_cols_identical_across_group_rows(self, sky, level):
        fa = analyze_footprint(sky, level, 64, 2048)
        g = sky.geometry
        for grp in range(fa.n_groups):
            rows = fa.rows_of_group(grp)
            for pim in fa.active_pim_ids()[:4]:
                expected = fa.cols_of(int(pim), grp)
                for r in rows[:5]:
                    cols = np.arange(fa.blocks_per_row, dtype=np.uint64)
                    addrs = (
                        np.uint64(int(r) * fa.row_bytes)
                        + cols * np.uint64(g.block_bytes)
                    )
                    ids = sky.pim_ids(addrs, level)
                    got = np.nonzero(ids == np.uint64(int(pim)))[0]
                    assert np.array_equal(got, expected)

    def test_rows_partition_into_groups(self, sky):
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 128, 1024)
        all_rows = np.concatenate(
            [fa.rows_of_group(g) for g in range(fa.n_groups)]
        )
        assert sorted(all_rows.tolist()) == list(range(128))

    def test_group_sizes_equal(self, sky):
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 128, 1024)
        sizes = {len(fa.rows_of_group(g)) for g in range(fa.n_groups)}
        assert len(sizes) == 1


class TestConstraints:
    def test_constraints_match_membership(self, sky):
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 32, 512)
        for pim in fa.active_pim_ids()[:6]:
            for grp in range(fa.n_groups):
                cons = fa.constraints_for(int(pim), grp)
                blocks = fa.blocks_of(int(pim), grp)
                for a in blocks[:20]:
                    off = int(a) - fa.base
                    assert all(c.satisfied_by(off) for c in cons)

    def test_infeasible_pairs_flagged(self, sky):
        """With 16 PIMs and few row-reachable IDs, some (pim, group) pairs
        own nothing; owns_blocks must agree with the enumeration."""
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 64, 1024)
        for pim in fa.active_pim_ids():
            for grp in range(fa.n_groups):
                owns = fa.owns_blocks(int(pim), grp)
                assert owns == (len(fa.cols_of(int(pim), grp)) > 0)


class TestPinning:
    def test_pinning_halves_active_pims(self, sky):
        fa0 = analyze_footprint(sky, PimLevel.BANKGROUP, 256, 4096)
        fa1 = analyze_footprint(sky, PimLevel.BANKGROUP, 256, 4096, pinned_id_bits=1)
        assert fa1.n_active_pims * 2 == fa0.n_active_pims

    def test_pinning_reduces_groups(self, sky):
        fa0 = analyze_footprint(sky, PimLevel.BANKGROUP, 1024, 4096)
        fa1 = analyze_footprint(sky, PimLevel.BANKGROUP, 1024, 4096, pinned_id_bits=1)
        assert fa1.n_groups < fa0.n_groups

    def test_pinned_partition_still_complete(self, sky):
        fa = analyze_footprint(sky, PimLevel.BANKGROUP, 64, 1024, pinned_id_bits=1)
        assert sum(fa.blocks_per_pim().values()) == fa.total_blocks


@settings(max_examples=20, deadline=None)
@given(
    m_exp=st.integers(min_value=4, max_value=8),
    k_exp=st.integers(min_value=4, max_value=11),
    mid=st.integers(min_value=0, max_value=4),
    level=st.sampled_from(list(PimLevel)),
)
def test_partition_property_random(m_exp, k_exp, mid, level):
    """Property: blocks always partition across (PIM, group) pairs."""
    mapping = mapping_by_id(mid)
    fa = analyze_footprint(mapping, level, 1 << m_exp, 1 << k_exp)
    total = 0
    for pim in fa.active_pim_ids():
        for grp in range(fa.n_groups):
            total += len(fa.cols_of(int(pim), grp)) * len(fa.rows_of_group(grp))
    assert total == fa.total_blocks


@settings(max_examples=60, deadline=None)
@given(
    m_exp=st.integers(min_value=0, max_value=12),
    k_exp=st.integers(min_value=4, max_value=13),
    mid=st.integers(min_value=0, max_value=4),
    slot=st.integers(min_value=1, max_value=2**20),
    picks=st.lists(st.tuples(st.integers(0, 2**13), st.integers(0, 2**9)), min_size=1, max_size=40),
)
def test_code_tables_equal_per_address_parity(m_exp, k_exp, mid, slot, picks):
    """Every field and PIM ID read from the footprint's row and column code
    tables equals the mapping's per-address parity evaluation, at a
    nonzero aligned base."""
    mapping = mapping_by_id(mid)
    m, k = 1 << m_exp, 1 << k_exp
    footprint = m * k * 4
    base = (1 + slot % (mapping.geometry.capacity_bytes // footprint - 1)) * footprint
    row_codes, col_codes = footprint_codes(mapping, m, k * 4, base)
    rows = np.array([r % m for r, _ in picks])
    cols = np.array([c % len(col_codes) for _, c in picks])
    addrs = (base + rows * (k * 4) + cols * mapping.geometry.block_bytes).astype(np.uint64)
    codes = row_codes[rows] ^ col_codes[cols]
    for fname in FIELD_ORDER:
        assert np.array_equal(mapping.code_field(codes, fname), mapping.field_values(addrs, fname))
    for level in PimLevel:
        ids = mapping.pim_ids(addrs, level)
        base_id = int(mapping.pim_ids(np.array([base], dtype=np.uint64), level)[0])
        assert np.array_equal(mapping.code_pim_ids(codes, level), ids)
        for pinned in range(len(mapping.pim_id_masks(level))):
            fa = analyze_footprint(mapping, level, m, k, base=base, pinned_id_bits=pinned)
            assert np.array_equal(fa.pim_ids_of(codes), ids >> np.uint64(pinned))
            assert fa.base_id == base_id >> pinned
