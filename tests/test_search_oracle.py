"""Property test: the bound-ordered configuration search equals the exhaustive scan.

``choose_execution`` gives every (level, pinned ID bits) candidate an exact
lower bound on its cycles under its scratchpad partitioning, prices
candidates in ``(bound, index)`` order
and stops once the next bound exceeds the best price.  The oracle below is
the scan it replaced: price every candidate in order and keep the first
fastest (``cand.cycles < best.cycles``).  Hypothesis draws all five mapping
presets, M and K (powers of two and not), N from 1 to 2048 (StepStone-BG's
scratchpad runs out near the top), level subsets in any order including
``CHANNEL``, ``max_pinned_bits`` from 0 to 3, every ``agen`` x ``flow`` pair
and three DRAM timings (one whose rank switch is the fastest CAS spacing).
Both must choose the same level and pinned bits with the same breakdown,
or both must find no feasible configuration.

CI replays it under ``--hypothesis-seed`` derived from the run id (see
the ``fast-differential`` job in ``.github/workflows/ci.yml``).
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StepStoneConfig
from repro.core.executor import _fill_cycles, _offchip_cycles, _plan_candidate, execute_gemm
from repro.core.gemm import GemmShape, ScratchpadInfeasible, _partition
from repro.core.memo import PRICING_MEMO
from repro.core.scheduler import _SHAVE, PimChoice, _lower_bound, choose_execution
from repro.dram.timing import DDR4Timing
from repro.genai.model import GPT2_XL
from repro.mapping.presets import make_skylake, mapping_by_id
from repro.mapping.xor_mapping import PimLevel
from repro.models.layers import pow2_partition
from repro.obs.telemetry import BUS

CFG = StepStoneConfig.default()
MAPPINGS = [make_skylake()] + [mapping_by_id(i) for i in range(4)]
CONFIGS = {
    "default": CFG,
    # CAS spacings below the SIMD time of small batches.
    "fast-cas": replace(CFG, timing=DDR4Timing(tBL=1, tCCDS=1, tCCDL=2)),
    # A rank switch (tBL + tRTRS = 2) faster than either tCCD.
    "fast-rank-switch": replace(CFG, timing=DDR4Timing(tBL=1, tRTRS=1, tCCDS=6, tCCDL=8)),
}
N = st.integers(1, 2048)
MODES = [(agen, flow) for agen in ("stepstone", "naive") for flow in ("stepstone", "echo")]


def exhaustive_choice(config, mapping, shape, levels, max_pinned_bits, agen, flow):
    """Price every candidate in (level, pinned) order; the first fastest wins."""
    best = None
    for level in levels:
        n_id_bits = len(mapping.pim_id_masks(level))
        for pinned in range(0, min(max_pinned_bits + 1, n_id_bits)):
            try:
                res = execute_gemm(
                    config, mapping, shape, level, agen=agen, flow=flow, pinned_id_bits=pinned
                )
            except ScratchpadInfeasible:
                continue
            cand = PimChoice(level=level, pinned_id_bits=pinned, result=res)
            if best is None or cand.cycles < best.cycles:
                best = cand
    if best is None:
        raise ValueError(f"no feasible PIM configuration for {shape}")
    return best


def _outcome(fn, *args):
    try:
        choice = fn(*args)
    except ValueError as exc:
        return str(exc)
    return choice.level, choice.pinned_id_bits, choice.result.breakdown.as_dict()


def _dim(max_log2):
    return st.one_of(
        st.integers(0, max_log2).map(lambda b: 1 << b), st.integers(1, 1 << max_log2)
    )


@st.composite
def searches(draw):
    """``choose_execution`` arguments: hardware, shape, levels, pinned bits, modes."""
    return (
        CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))],
        draw(st.sampled_from(MAPPINGS)),
        GemmShape(draw(_dim(11)), draw(_dim(12)), draw(st.one_of(st.integers(1, 64), N))),
        tuple(draw(st.lists(st.sampled_from(list(PimLevel)), min_size=1, max_size=3, unique=True))),
        draw(st.integers(0, 3)),
        *draw(st.sampled_from(MODES)),
    )


@settings(max_examples=300, deadline=None)
@given(args=searches())
def test_bound_ordered_search_equals_exhaustive_scan(args):
    assert _outcome(choose_execution, *args) == _outcome(exhaustive_choice, *args)


def volume_bound(cand, n, flow):
    """The bound before it took the partitioning: exact localization and
    reduction, one launch per active PIM, the GEMM phase at its cadence
    floor, and no fill or drain."""
    u = cand.costs
    localization, reduction, _, _ = _offchip_cycles(cand, n, flow)
    per_block = max(u.unit.compute_cycles_per_block(n), u.cadence_floor)
    gemm = cand.crit_blocks * per_block * u.refresh
    launch = cand.n_pims * u.launch_cycles / u.channels
    return (gemm + launch + localization + reduction) * _SHAVE


def _plan_bound(config, plan, flow):
    part = (
        plan.rpart_rows,
        plan.cpart_blocks,
        plan.n_rparts,
        plan.scratchpad_c_fraction,
        plan.direct_scratchpad,
    )
    cand, n = _plan_candidate(config, plan), plan.shape.n
    return _lower_bound(cand, n, flow, part, _fill_cycles(cand, n, part))


@settings(max_examples=100, deadline=None)
@given(args=searches())
def test_bound_never_exceeds_the_price(args):
    """Every mode: the volume bound <= the partition-exact bound <= the price."""
    config, mapping, shape, levels, max_pinned_bits, _, _ = args
    for level in levels:
        for pinned in range(0, min(max_pinned_bits + 1, len(mapping.pim_id_masks(level)))):
            for agen, flow in MODES:
                try:
                    res = execute_gemm(
                        config, mapping, shape, level, agen=agen, flow=flow, pinned_id_bits=pinned
                    )
                except ScratchpadInfeasible:
                    break  # infeasible in every mode
                plan = res.plan
                bound = _plan_bound(config, plan, flow)
                cand = _plan_candidate(config, plan)
                assert volume_bound(cand, plan.shape.n, flow) <= bound <= res.cycles


def test_pruned_candidates_build_no_profile():
    # A one-wide batch: BG/0 prices below every other candidate's bound,
    # so it is the only one priced and the only footprint and profile
    # built (bounds read rank constants, not the footprint record).
    levels = (PimLevel.BANKGROUP, PimLevel.DEVICE)
    args = (CFG, make_skylake(), GemmShape(1024, 4096, 1), levels, 1, "stepstone", "stepstone")
    PRICING_MEMO.clear()
    BUS.reset()
    BUS.enable()
    try:
        got = _outcome(choose_execution, *args)
        counts = {
            (name, lv): BUS.counter(f"pricing.search.{name}", level=lv)
            for name in ("priced", "pruned")
            for lv in ("BG", "DV")
        }
    finally:
        BUS.disable()
        BUS.reset()
    assert PRICING_MEMO.size("footprint") == 1
    assert PRICING_MEMO.size("profile") == 1
    assert counts == {
        ("priced", "BG"): 1.0,
        ("priced", "DV"): 0.0,
        ("pruned", "BG"): 1.0,
        ("pruned", "DV"): 2.0,
    }
    assert got[:2] == (PimLevel.BANKGROUP, 0)
    assert got == _outcome(exhaustive_choice, *args)


def test_gpt2_step_tiles_build_only_the_footprints_they_price():
    # The GPT2-XL decode step's power-of-two tiles at the widths the cold
    # genai workload prices: 27 tiles x 4 candidates.  The volume bound
    # (no fill, one launch per PIM) built 107 of the 108 footprints; with
    # the partition's fill streams and launches in the bound, 73.
    tiles = {
        (tile.m, tile.k)
        for inv in GPT2_XL.step_spec().gemms
        for tile in pow2_partition(inv.shape)
    }
    assert len(tiles) == 27
    sky = make_skylake()
    PRICING_MEMO.clear()
    for n in (*range(1, 9), 16, 17, 23, 24, 25, 32):
        for m, k in sorted(tiles):
            choose_execution(CFG, sky, GemmShape(m, k, n))
    assert PRICING_MEMO.size("footprint") == PRICING_MEMO.size("profile") == 73


# Exact ties between candidates with different bounds: BG with both bank
# group bits pinned stripes like DV, and at these small shapes both price
# to the same cycles.  The bound-ordered search prices DV/0 first (lower
# bound), so only the index tie-break keeps the scan's choice.
TIES = [
    ("fast-cas", 2, GemmShape(30, 2648, 4), "stepstone", "echo"),
    ("default", 2, GemmShape(16, 1996, 12), "naive", "echo"),
]


@pytest.mark.parametrize("config,mapping_id,shape,agen,flow", TIES)
def test_equal_cycles_go_to_the_earlier_candidate(config, mapping_id, shape, agen, flow):
    config, mapping = CONFIGS[config], mapping_by_id(mapping_id)
    bg2, dv0 = (
        execute_gemm(config, mapping, shape, level, agen=agen, flow=flow, pinned_id_bits=pinned)
        for level, pinned in ((PimLevel.BANKGROUP, 2), (PimLevel.DEVICE, 0))
    )
    assert bg2.cycles == dv0.cycles
    bounds = [_plan_bound(config, r.plan, flow) for r in (bg2, dv0)]
    assert bounds[0] > bounds[1]
    for levels, winner in (
        ((PimLevel.BANKGROUP, PimLevel.DEVICE), (PimLevel.BANKGROUP, 2)),
        ((PimLevel.DEVICE, PimLevel.BANKGROUP), (PimLevel.DEVICE, 0)),
    ):
        args = (config, mapping, shape, levels, 3, agen, flow)
        got = _outcome(choose_execution, *args)
        assert got[:2] == winner
        assert got == _outcome(exhaustive_choice, *args)


@pytest.mark.parametrize("mapping", MAPPINGS, ids=lambda mp: mp.name)
def test_all_infeasible_raises_like_the_scan(mapping):
    args = (CFG, mapping, GemmShape(256, 1024, 2048), (PimLevel.BANKGROUP,), 3, "stepstone", "echo")
    with pytest.raises(ValueError, match="no feasible PIM configuration"):
        choose_execution(*args)
    assert _outcome(choose_execution, *args) == _outcome(exhaustive_choice, *args)


def eighths_scan(unit, m, n, max_group_cols, word_bytes):
    """The scratchpad partitioning as a scan of all seven C-buffer eighths:
    the first least ``(row passes, column tiles, -row tile)`` wins, then
    the direct-scratchpad test."""
    sp = unit.scratchpad_bytes
    c_bytes_per_row = n * word_bytes
    b_bytes_per_colblock = unit.words_per_block_per_slice * n * word_bytes
    best = None
    for eighths in range(1, 8):
        f = eighths / 8.0
        rpart = min(m, int(f * sp // c_bytes_per_row))
        cpart = min(max_group_cols, int((1 - f) * sp // b_bytes_per_colblock))
        if rpart < 1 or cpart < 1:
            continue
        key = (math.ceil(m / rpart), math.ceil(max_group_cols / cpart), -rpart)
        if best is None or key < best[:3]:
            best = (*key, cpart, f)
    if best is None:
        raise ScratchpadInfeasible("infeasible")
    n_rparts, _, neg_rpart, cpart, f = best
    b_bytes = max_group_cols * unit.words_per_block_per_slice * n * word_bytes
    if b_bytes + m * n * word_bytes <= unit.scratchpad_bytes:
        return m, max_group_cols, 1, f, True
    return -neg_rpart, cpart, n_rparts, f, False


def _partition_outcome(fn, *args):
    try:
        return fn(*args)
    except ScratchpadInfeasible:
        return "infeasible"


@settings(max_examples=400, deadline=None)
@given(
    sp=st.one_of(st.integers(1, 1 << 20), st.integers(6, 18).map(lambda b: 1 << b)),
    slices=st.sampled_from([1, 2, 4, 8, 16]),
    m=_dim(14),
    n=st.integers(1, 4096),
    max_group_cols=st.integers(1, 4096),
    word_bytes=st.sampled_from([2, 4, 8]),
)
def test_partition_scan_equals_eighths_scan(sp, slices, m, n, max_group_cols, word_bytes):
    unit = replace(CFG.unit(PimLevel.BANKGROUP), scratchpad_bytes=sp, slices_per_unit=slices)
    args = (unit, m, n, max_group_cols, word_bytes)
    got = _partition_outcome(_partition, *args)
    assert got == _partition_outcome(eighths_scan, *args)
    if got != "infeasible":
        assert all(type(v) is int for v in got[:3]) and type(got[3]) is float
