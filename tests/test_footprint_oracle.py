"""Property test: coset-built cold pricing equals two independent oracles.

Cold GEMM pricing builds two N-independent tables per footprint: the
``footprint`` record (work table, widest group, per-PIM blocks, critical
PIM, column totals) and the critical PIM's per-group ``profile``.  Both
are read off cosets of the GF(2) address map over Python ints: group
sizes, rows and column sets from echelon bases, the critical PIM as the
smallest active ID, and a loop over the critical PIM's first and second
row walks for the naive gaps and row misses (the cadence is shared by
every group).  The analysis' array views (grouping, rows, columns,
per-group PIM IDs, column counts) are built from the same cosets.

Two oracles check them.  The per-address oracle below is a
``cols_of``-style column scan per (PIM, group) pair and one profile per
group, over a grouping computed row by row.  The whole-array oracle
(``tests/footprint_arrays.py``) is the NumPy implementation the cosets
replaced: code tables, a ``bincount`` of every (PIM, group) column count
and one concatenated, ``lexsort``-ed walk.  Hypothesis draws the
mapping (Skylake, a non-Skylake preset and a hand-built mapping whose
PIM-ID vectors are not reduced), every PIM level, pinned ID
bits up to the ID width, power-of-two M and K and an aligned base, and
every field must match both exactly (the profile's per-access fields are
tuples of floats; the oracles' arrays are compared as such).

A search candidate (``executor._Candidate``) reads the footprint totals
its bound needs from three GF(2) ranks instead of the record; a second
property checks every such constant against the enumerated record over
every preset mapping, PAE-randomized variants, every level and aligned
non-zero bases.

CI replays both under ``--hypothesis-seed`` derived from the run id (see
the ``fast-differential`` job in ``.github/workflows/ci.yml``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import executor
from repro.core.config import StepStoneConfig
from repro.core.executor import (
    _Candidate,
    _gemm_phase_cycles,
    _gemm_profile,
    _plan_candidate,
)
from repro.core.gemm import GemmShape, GroupWork, ScratchpadInfeasible, plan_gemm
from repro.core.memo import PRICING_MEMO
from repro.dram.timing import DDR4Timing
from repro.mapping.analysis import FootprintAnalysis
from repro.mapping.presets import (
    ADDRESS_MAPPINGS,
    make_skylake,
    make_toy_mapping,
    mapping_by_id,
    pae_randomized,
)
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping
from repro.utils.bits import mask_of_bits, parity_u64

from footprint_arrays import array_footprint, array_profile, row_misses

U64 = np.uint64
CFG = StepStoneConfig.default()


def make_unreduced() -> XORAddressMapping:
    """A hand-built mapping whose footprint PIM-ID vectors are not in
    reduced echelon form in address order: a7 flips BG0 and BG1 and a8
    then BG0 alone, and a9 flips the rank and channel bits and a16 then
    the channel alone (column or row bits, by the row width).  Group
    codes, first rows, column sets and the critical PIM are then right
    only if every new leading bit is cleared from the earlier basis
    vectors."""

    def m(*bits):
        return mask_of_bits(bits)

    masks = {
        "column": [m(6), m(7), m(8), m(9), m(10), m(11), m(12)],
        "channel": [m(13, 9, 16)],
        "bankgroup": [m(14, 7, 8, 19), m(15, 7, 20)],
        "bank": [m(16, 20), m(17, 21)],
        "rank": [m(18, 9, 22)],
        "row": [m(19 + i) for i in range(15)],
    }
    return XORAddressMapping(make_skylake().geometry, masks, name="unreduced", mapping_id=None)


MAPPINGS = {
    "skylake": make_skylake(),
    "ivybridge": mapping_by_id(2),
    "unreduced": make_unreduced(),
}
TIMINGS = {
    "default": CFG.timing,
    # A cadence below 3 cycles: off the zero-stall closed form.
    "fast-cas": DDR4Timing(tBL=1, tCCDS=1, tCCDL=2),
}

# --------------------------------------------------------------------------
# The oracles: one (PIM, group) pair, or one group, at a time, every
# coordinate by per-address parity (never through the code tables).
# --------------------------------------------------------------------------


def _pim_ids(fa, addrs):
    """PIM IDs over the subsetted ID space, one parity per ID mask."""
    out = np.zeros(addrs.shape, dtype=U64)
    for i, m in enumerate(fa.id_masks):
        out |= parity_u64(addrs & U64(m)) << U64(i)
    return out


def _access_fields(mapping, addrs):
    """(rank, bank group, flat bank, DRAM row) of every access."""
    g = mapping.geometry
    rk, bg, bk, dr = (mapping.field_values(addrs, f) for f in ("rank", "bankgroup", "bank", "row"))
    flat = (rk * U64(g.bankgroups_per_rank) + bg) * U64(g.banks_per_bankgroup) + bk
    return rk, bg, flat, dr


def _steady_state_row_misses(fa, mapping, rows, cols):
    """Row-buffer misses per group-row walk in steady state: the misses of
    the last of the group's first two row walks, counted by the
    whole-array ``row_misses`` on one concatenated walk."""
    bb = U64(mapping.geometry.block_bytes)
    addr_rows = U64(fa.base) + rows[:2].astype(U64) * U64(fa.row_bytes)
    addrs = (addr_rows[:, None] + cols.astype(U64)[None, :] * bb).ravel()
    _, _, flat, dr = _access_fields(mapping, addrs)
    n = len(addrs)
    counted = np.arange(n) >= n - len(cols)  # the last row's walk
    return float(row_misses(flat, dr, np.zeros(n, dtype=np.int64), counted, 1)[0])


def _oracle_grouping(fa):
    """(raw codes, row -> group): every row's code by its own parities."""
    row_addrs = np.arange(fa.m_rows, dtype=U64) * U64(fa.row_bytes)
    codes = np.zeros(fa.m_rows, dtype=U64)
    for i, m in enumerate(fa.id_masks):
        gm = m & fa.mrow_mask
        if gm:
            codes |= parity_u64(row_addrs & U64(gm)) << U64(i)
    raw = np.unique(codes)
    return [int(c) for c in raw], np.searchsorted(raw, codes).astype(np.int64)


def _oracle_cols(fa, rows, pim):
    """Block columns of ``pim`` on the group's first row."""
    g = fa.mapping.geometry
    cols = np.arange(fa.blocks_per_row, dtype=U64)
    addrs = U64(fa.base) + U64(int(rows[0])) * U64(fa.row_bytes) + cols * U64(g.block_bytes)
    return np.nonzero(_pim_ids(fa, addrs) == U64(pim))[0].astype(np.int64)


def _oracle_footprint(fa):
    """The per-(PIM, group) work table and its totals."""
    _, row_groups = _oracle_grouping(fa)
    n_groups = int(row_groups.max()) + 1
    rows_of = [np.nonzero(row_groups == grp)[0] for grp in range(n_groups)]
    work, cols_of = {}, {}
    max_group_cols = 1
    for pim in range(1 << len(fa.id_masks)):
        items = []
        for grp in range(n_groups):
            cols = _oracle_cols(fa, rows_of[grp], pim)
            cols_of[pim, grp] = cols
            if len(cols) == 0:
                continue
            items.append(GroupWork(pim, grp, len(cols), len(rows_of[grp])))
            max_group_cols = max(max_group_cols, len(cols))
        if items:
            work[pim] = tuple(items)
    blocks = {p: sum(w.n_cols * w.n_rows for w in items) for p, items in work.items()}
    return dict(
        work=work,
        max_group_cols=max_group_cols,
        blocks_per_pim=blocks,
        cols_per_pim={p: sum(w.n_cols for w in items) for p, items in work.items()},
        critical_pim=max(blocks, key=lambda p: blocks[p]),
        total_cols=sum(w.n_cols for items in work.values() for w in items),
        total_blocks=sum(blocks.values()),
        rows_of=rows_of,
        cols_of=cols_of,
    )


def _oracle_row_misses(fa, mapping, rows, cols):
    """Steady-state row misses of one group: misses of the second row's
    walk after the first, found by a stable sort on the bank alone."""
    g = mapping.geometry
    r_pair = rows[:2]
    addr_rows = U64(fa.base) + r_pair.astype(U64) * U64(fa.row_bytes)
    addrs = (addr_rows[:, None] + cols.astype(U64)[None, :] * U64(g.block_bytes)).ravel()
    _, _, flat, dr = _access_fields(mapping, addrs)
    n = len(addrs)
    order = np.lexsort((np.arange(n), flat))
    fo, ro = flat[order], dr[order]
    miss = np.ones(n, dtype=bool)
    miss[1:] = (fo[1:] != fo[:-1]) | (ro[1:] != ro[:-1])
    miss_orig = np.empty(n, dtype=bool)
    miss_orig[order] = miss
    if len(r_pair) == 1:
        return float(np.sum(miss_orig))
    return float(np.sum(miss_orig[len(cols):]))


def _oracle_profile(t, unit, fa, oracle):
    """One profile per group of the critical PIM, as plain dicts."""
    mapping, g = fa.mapping, fa.mapping.geometry
    pim = oracle["critical_pim"]
    out = []
    for w in oracle["work"][pim]:
        cols, rows = oracle["cols_of"][pim, w.group], oracle["rows_of"][w.group]
        n_cols, n_rows = len(cols), w.n_rows
        addrs = U64(fa.base) + U64(int(rows[0])) * U64(fa.row_bytes) + cols.astype(U64) * U64(
            g.block_bytes
        )
        bgs = mapping.field_values(addrs, "bankgroup")
        rks = mapping.field_values(addrs, "rank")
        cadence = np.full(n_cols, float(t.tCCDS))
        if n_cols > 1:
            same_rank = rks[1:] == rks[:-1]
            same_bg = (bgs[1:] == bgs[:-1]) & same_rank
            c = np.where(same_bg, float(t.tCCDL), float(t.tCCDS))
            cadence[1:] = np.where(same_rank, c, float(t.tBL + t.tRTRS))
        if unit.level is PimLevel.BANKGROUP:
            cadence[:] = float(unit.cadence(t))
        naive_row_gap = 2.0
        if n_rows > 1:
            gap_rows = float(np.mean(np.diff(rows)))
            naive_row_gap = max(1.0, gap_rows * fa.blocks_per_row - float(cols[-1]) + float(cols[0]))
        within = np.empty(n_cols, dtype=np.int64)
        within[0] = 1
        within[1:] = np.diff(addrs.astype(np.int64)) // g.block_bytes
        values, counts = np.unique(cadence, return_counts=True)
        out.append(
            dict(
                cadence=tuple(cadence.tolist()),
                cadence_hist=tuple(zip(values.tolist(), counts.tolist())),
                cadence_min=float(cadence.min()),
                cadence_max=float(cadence.max()),
                cadence_den=max(float(c).as_integer_ratio()[1] for c in values),
                n_rows=n_rows,
                n_blk=n_cols * n_rows,
                crossings=_oracle_row_misses(fa, mapping, rows, cols) * n_rows,
                naive_within=tuple(within.astype(np.float64).tolist()),
                naive_row_gap=naive_row_gap,
            )
        )
    return out


# --------------------------------------------------------------------------
# The property
# --------------------------------------------------------------------------


@st.composite
def footprints(draw):
    mapping_name = draw(st.sampled_from(sorted(MAPPINGS)))
    mapping = MAPPINGS[mapping_name]
    level = draw(st.sampled_from(list(PimLevel)))
    n_id_bits = len(mapping.pim_id_masks(level))
    pinned = draw(st.integers(0, n_id_bits - 1))
    m = 1 << draw(st.integers(4, 11))
    k = 1 << draw(st.integers(4, 12))
    base = draw(st.integers(0, 7)) * m * k * 4
    return mapping_name, level, pinned, m, k, base


def _same(got, want):
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and np.array_equal(got, want)
    return type(got) is type(want) and got == want


@settings(max_examples=120, deadline=None)
@given(fp=footprints(), timing=st.sampled_from(sorted(TIMINGS)), n=st.integers(1, 64))
def test_whole_array_pricing_equals_oracle(fp, timing, n):
    mapping_name, level, pinned, m, k, base = fp
    mapping = MAPPINGS[mapping_name]
    PRICING_MEMO.clear()
    try:
        plan = plan_gemm(CFG, mapping, GemmShape(m, k, n), level, base=base, pinned_id_bits=pinned)
    except ScratchpadInfeasible:
        return
    fa, record = plan.analysis, plan.footprint
    oracle = _oracle_footprint(fa)

    # The grouping, rows and columns the matrix evaluation reads.
    raw, row_groups = _oracle_grouping(fa)
    assert list(fa.grouping.raw_codes) == raw
    assert _same(fa.grouping.row_groups, row_groups)
    for grp, rows in enumerate(oracle["rows_of"]):
        assert _same(fa.rows_of_group(grp), rows)
    for (pim, grp), cols in oracle["cols_of"].items():
        assert _same(fa.cols_of(pim, grp), cols)
        assert fa.col_counts[grp, pim] == len(cols)

    # The footprint record.
    for name in ("work", "max_group_cols", "blocks_per_pim", "critical_pim", "total_cols",
                 "total_blocks"):
        assert _same(getattr(record, name), oracle[name]), name
    assert fa.blocks_per_pim() == oracle["blocks_per_pim"]

    # The whole-array oracle: the views and the record.
    arr = array_footprint(fa)
    assert fa.base_id == arr["base_id"]
    assert fa.grouping.raw_codes == fa.raw_codes == arr["raw_codes"]
    assert _same(fa.grouping.row_groups, arr["row_groups"])
    for grp in range(fa.n_groups):
        rows = arr["rows"][arr["starts"][grp] : arr["starts"][grp + 1]]
        assert _same(fa.rows_of_group(grp), rows)
    assert _same(fa.group_pim_ids, arr["group_pim_ids"])
    assert _same(fa.col_counts, arr["col_counts"])
    for name in ("work", "max_group_cols", "blocks_per_pim", "critical_pim", "total_cols",
                 "total_blocks"):
        assert _same(getattr(record, name), arr[name]), name

    # The critical PIM's profile, field by field, against both oracles.
    t = TIMINGS[timing]
    profile = _gemm_profile(t, plan.footprint, plan.unit)
    want = _oracle_profile(t, plan.unit, fa, oracle)
    arrays = array_profile(t, fa, plan.unit)
    assert len(profile) == len(want) == len(arrays)
    for gp, ref, arr_ref in zip(profile, want, arrays):
        for name, value in ref.items():
            assert _same(getattr(gp, name), value), name
            value = arr_ref[name]
            if isinstance(value, np.ndarray):
                value = tuple(value.tolist())
            assert _same(getattr(gp, name), value), name

    # The cadence histogram closed form, under the exactness guard.
    compute = plan.unit.compute_cycles_per_block(plan.shape.n)
    den = max(float(compute).as_integer_ratio()[1], 1)
    for gp in profile:
        if gp.n_blk * max(gp.cadence_max, compute) * max(gp.cadence_den, den) >= 2.0**53:
            continue
        hist_sum = gp.n_rows * sum(c * max(v, compute) for v, c in gp.cadence_hist)
        assert hist_sum == gp.n_rows * float(np.maximum(gp.cadence, compute).sum())


@pytest.mark.parametrize("mapping_name", sorted(MAPPINGS))
@pytest.mark.parametrize("level", list(PimLevel))
def test_one_group_row_misses_match_oracle(mapping_name, level):
    mapping = MAPPINGS[mapping_name]
    fa = FootprintAnalysis(mapping, level, 256, 2048)
    for grp in range(fa.n_groups):
        rows = fa.rows_of_group(grp)
        for pim in np.flatnonzero(fa.col_counts[grp]):
            cols = fa.cols_of(int(pim), grp)
            for r in (rows[:1], rows):
                got = _steady_state_row_misses(fa, mapping, r, cols)
                assert got == _oracle_row_misses(fa, mapping, r, cols)


# --------------------------------------------------------------------------
# Candidate constants from GF(2) ranks equal the enumerated record
# --------------------------------------------------------------------------

#: The five Table II presets, the toy mapping (its own tiny geometry), the
#: unreduced mapping and three PAE-randomized Skylake variants.
RANK_MAPPINGS = {
    **{f"id{i}": factory() for i, factory in ADDRESS_MAPPINGS.items()},
    "toy": make_toy_mapping(),
    "unreduced": make_unreduced(),
    **{f"skylake-pae{seed}": pae_randomized(make_skylake(), seed) for seed in (1, 2, 3)},
}


@st.composite
def rank_footprints(draw):
    """(mapping, level, pinned bits, m, k, base) of an aligned footprint
    that fits the mapping's DRAM."""
    mapping = RANK_MAPPINGS[draw(st.sampled_from(sorted(RANK_MAPPINGS)))]
    level = draw(st.sampled_from(list(PimLevel)))
    pinned = draw(st.integers(0, min(1, len(mapping.pim_id_masks(level)) - 1)))
    g, wb = mapping.geometry, CFG.word_bytes
    room = g.address_bits - (wb.bit_length() - 1)  # log2 of capacity in words
    k_log = draw(st.integers(max(0, g.block_bits - 2), min(12, room)))
    m_log = draw(st.integers(0, min(11, room - k_log)))
    m, k = 1 << m_log, 1 << k_log
    slots = g.capacity_bytes // (m * k * wb)
    base = draw(st.integers(0, min(7, slots - 1))) * m * k * wb
    return mapping, level, pinned, m, k, base


@settings(max_examples=200, deadline=None)
@given(fp=rank_footprints())
def test_candidate_rank_constants_equal_the_record(fp):
    mapping, level, pinned, m, k, base = fp
    PRICING_MEMO.clear()
    cand = _Candidate(CFG, mapping, level, CFG.unit(level), m, k, base, pinned)
    assert PRICING_MEMO.size("footprint") == 0  # built on first read only
    record = cand.footprint()
    crit = record.critical_pim
    assert cand.n_pims == len(record.work)
    assert cand.crit_blocks == record.blocks_per_pim[crit] == max(record.blocks_per_pim.values())
    assert cand.crit_cols == sum(w.n_cols for w in record.work[crit])
    assert cand.max_group_cols == record.max_group_cols
    assert cand.total_cols == record.total_cols
    # The per-address oracle agrees on these totals.
    oracle = _oracle_footprint(record.analysis)
    assert cand.n_pims == len(oracle["work"])
    assert cand.crit_blocks == oracle["blocks_per_pim"][oracle["critical_pim"]]
    assert cand.crit_cols == oracle["cols_per_pim"][oracle["critical_pim"]]
    assert cand.total_cols == oracle["total_cols"]


# --------------------------------------------------------------------------
# The zero-stall test engages exactly where the closed form holds
# --------------------------------------------------------------------------


def _phase(config, level, n, monkeypatch, calls):
    real = executor.stepstone_iteration_counts

    def counting(n_blk):
        calls.append(n_blk)
        return real(n_blk)

    monkeypatch.setattr(executor, "stepstone_iteration_counts", counting)
    PRICING_MEMO.clear()
    plan = plan_gemm(config, MAPPINGS["skylake"], GemmShape(1024, 1024, n), level)
    return _gemm_phase_cycles(_plan_candidate(config, plan), plan.footprint, n, "stepstone", True)


def test_zero_stall_closed_form_engages_at_exactly_three_cycles(monkeypatch):
    # A device-level walk starts each row at tCCD_S: with tCCD_S = 3 and a
    # one-wide batch (compute below 3 cycles), max(cadence, compute) is
    # exactly 3 on every group's first access, and the AGEN never stalls.
    three = replace(CFG, timing=DDR4Timing(tCCDS=3))
    assert CFG.unit(PimLevel.DEVICE).compute_cycles_per_block(1) < 3.0
    calls = []
    _, stall = _phase(three, PimLevel.DEVICE, 1, monkeypatch, calls)
    assert stall == 0.0 and calls == []
    # One cycle faster, the trace is rebuilt and the stall is the exact
    # cumulative-deficit value.
    two = replace(CFG, timing=DDR4Timing(tCCDS=2))
    _, stall = _phase(two, PimLevel.DEVICE, 1, monkeypatch, calls)
    assert calls and stall >= 0.0
