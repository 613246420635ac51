"""The process-wide pricing memo: exact closed forms, warm == cold, keys.

The memo splits GEMM pricing into an N-independent per-group profile and
an O(groups) per-N evaluation.  These tests pin the contract:

* the two closed forms the evaluation uses equal the per-access formulas
  they replace, bit for bit (property tests);
* a memo warmed at another batch width prices every configuration
  exactly like a cleared memo (differential);
* keys are value-based hardware identities: equal hardware shares
  entries, a different mapping, timing or unit never does;
* hits and misses are counted on the telemetry bus only while it is on.
"""

import copy
import itertools
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agen import stepstone_iteration_counts
from repro.core.config import StepStoneConfig
from repro.core.executor import execute_gemm
from repro.core.gemm import GemmShape, ScratchpadInfeasible, plan_gemm
from repro.core.memo import PRICING_MEMO
from repro.core.scheduler import PimChoice, choose_execution
from repro.core.system import StepStoneSystem
from repro.dram.timing import DDR4Timing
from repro.mapping.presets import make_skylake, mapping_by_id
from repro.mapping.xor_mapping import PimLevel
from repro.obs.telemetry import BUS
from repro.serving.scheduler import BatchServer

FIELDS = ("gemm", "fill_b", "fill_c", "drain_c", "localization", "reduction")


@pytest.fixture(scope="module")
def cfg():
    return StepStoneConfig.default()


# --------------------------------------------------------------------- #
# The closed forms equal the per-access formulas exactly
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    cadence=st.lists(st.integers(3, 40), min_size=1, max_size=64),
    compute_eighths=st.integers(0, 2048),
    n_rows=st.integers(1, 400),
)
def test_closed_forms_equal_per_access_formulas(cadence, compute_eighths, n_rows):
    compute = compute_eighths / 8.0
    row = np.maximum(np.asarray(cadence, dtype=np.float64), compute)
    assert row.min() >= 3
    base = np.tile(row, n_rows)
    iters = stepstone_iteration_counts(len(base)).astype(np.float64)
    deficit = np.cumsum(iters - base)
    # The StepStone AGEN never starves a pipe retiring >= 3 cycles a step,
    # even with no run-ahead credit at all.
    assert max(0.0, float(deficit.max()) - 0.0) == 0.0
    assert n_rows * float(row.sum()) == float(np.sum(base))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 1 << 16))
def test_agen_iteration_total_closed_form(k):
    # Over steps 0..K the AGEN issues 3K + 2 - popcount(K) iterations.
    assert int(stepstone_iteration_counts(k + 1).sum()) == 3 * k + 2 - bin(k).count("1")


# --------------------------------------------------------------------- #
# Memo-warm pricing equals memo-cleared pricing
# --------------------------------------------------------------------- #

MAPPINGS = {"skylake": make_skylake, "ivybridge": lambda: mapping_by_id(2)}
SHAPES = [(256, 1024), (1000, 700)]


def _fields(res):
    return (
        tuple(getattr(res.breakdown, f) for f in FIELDS),
        res.bubble_stall_cycles,
        res.kernel_launches,
        res.pim_dram_blocks,
        res.offchip_blocks,
    )


CASES = [
    (mp, shape, level, pinned, relaxed)
    for mp, shape, level, pinned, relaxed in itertools.product(
        MAPPINGS, SHAPES, list(PimLevel), (0, 1), (False, True)
    )
    if not (level is PimLevel.CHANNEL and pinned)  # CH has one ID bit
]


@pytest.mark.parametrize(
    "mapping_name,shape,level,pinned,relaxed",
    CASES,
    ids=[
        f"{mp}-{m}x{k}-{lvl.short}-pin{p}-{'relaxed' if r else 'table2'}"
        for mp, (m, k), lvl, p, r in CASES
    ],
)
def test_warm_memo_prices_like_cleared_memo(cfg, mapping_name, shape, level, pinned, relaxed):
    mapping = MAPPINGS[mapping_name]()
    unit = cfg.unit(level).relaxed() if relaxed else None
    m, k = shape
    for agen, flow in itertools.product(("stepstone", "naive"), ("stepstone", "echo")):
        kw = dict(agen=agen, flow=flow, pinned_id_bits=pinned, unit=unit)
        PRICING_MEMO.clear()
        cold = execute_gemm(cfg, mapping, GemmShape(m, k, 3), level, **kw)
        # Warm the footprint and profile at other batch widths first.
        for n in (1, 16):
            execute_gemm(cfg, mapping, GemmShape(m, k, n), level, **kw)
        warm = execute_gemm(cfg, mapping, GemmShape(m, k, 3), level, **kw)
        assert _fields(warm) == _fields(cold), (agen, flow)


def _steady_state_row_misses(fa, mapping, rows, cols):
    """Row misses of the last of a group's first two row walks, every
    coordinate by per-address parity."""
    from footprint_arrays import row_misses

    g, u64 = mapping.geometry, np.uint64
    addr_rows = u64(fa.base) + rows[:2].astype(u64) * u64(fa.row_bytes)
    addrs = (addr_rows[:, None] + cols.astype(u64)[None, :] * u64(g.block_bytes)).ravel()
    rk, bg, bk, dr = (mapping.field_values(addrs, f) for f in ("rank", "bankgroup", "bank", "row"))
    flat = (rk * u64(g.bankgroups_per_rank) + bg) * u64(g.banks_per_bankgroup) + bk
    n = len(addrs)
    counted = np.arange(n) >= n - len(cols)  # the last row's walk
    return float(row_misses(flat, dr, np.zeros(n, dtype=np.int64), counted, 1)[0])


def _reference_gemm_phase(config, plan, agen, naive_full_gaps):
    """The per-access GEMM-phase formulas over the full tiled group walks,
    as the executor computed them before the profile split."""
    from repro.core.agen import naive_iterations

    t, u, fa = config.timing, plan.unit, plan.analysis
    mapping, g, pim = fa.mapping, fa.mapping.geometry, plan.max_blocks_pim
    compute = u.compute_cycles_per_block(plan.shape.n)
    cover = float(u.pipeline_depth)
    total = stall = 0.0
    for w in plan.work[pim]:
        cols, rows = fa.cols_of(pim, w.group), fa.rows_of_group(w.group)
        n_cols, n_rows = len(cols), w.n_rows
        addrs = (
            np.uint64(fa.base)
            + np.uint64(int(rows[0])) * np.uint64(fa.row_bytes)
            + cols.astype(np.uint64) * np.uint64(g.block_bytes)
        )
        bgs = mapping.field_values(addrs, "bankgroup")
        rks = mapping.field_values(addrs, "rank")
        cadence = np.full(n_cols, float(t.tCCDS))
        if n_cols > 1:
            same_rank = rks[1:] == rks[:-1]
            same_bg = (bgs[1:] == bgs[:-1]) & same_rank
            c = np.where(same_bg, float(t.tCCDL), float(t.tCCDS))
            cadence[1:] = np.where(same_rank, c, float(t.tBL + t.tRTRS))
        if u.level is PimLevel.BANKGROUP:
            cadence[:] = float(u.cadence(t))
        n_blk = n_cols * n_rows
        if agen == "stepstone":
            iters = stepstone_iteration_counts(n_blk).astype(np.float64)
        else:
            iters = np.tile(naive_iterations(addrs, g.block_bytes).astype(np.float64), n_rows)
            if naive_full_gaps and n_rows > 1:
                gap = float(np.mean(np.diff(rows))) * fa.blocks_per_row
                iters[n_cols::n_cols] = max(1.0, gap - float(cols[-1]) + float(cols[0]))
            else:
                iters[n_cols::n_cols] = 2.0
        base = np.maximum(np.tile(cadence, n_rows), compute)
        group_stall = max(0.0, float(np.cumsum(iters - base).max()) - cover)
        total += float(np.sum(base)) + group_stall
        stall += group_stall
        per_miss = (
            max(0.0, t.row_miss_penalty - cover) if agen == "stepstone" else float(t.row_miss_penalty)
        )
        total += _steady_state_row_misses(fa, mapping, rows, cols) * n_rows * per_miss
    return total * (1.0 / (1.0 - t.refresh_overhead)), stall


@pytest.mark.parametrize("mapping_name", MAPPINGS)
@pytest.mark.parametrize("level", list(PimLevel))
def test_gemm_phase_matches_per_access_reference(cfg, mapping_name, level):
    from repro.core.executor import _gemm_phase_cycles, _plan_candidate

    mapping = MAPPINGS[mapping_name]()
    # A cadence below 3 cycles and a non-power-of-two SIMD width take the
    # evaluation off both closed forms, onto the per-access fallbacks.
    fast_cas = replace(cfg, timing=DDR4Timing(tBL=1, tCCDS=1, tCCDL=2))
    units = [cfg.unit(level), cfg.unit(level).relaxed(), replace(cfg.unit(level), simd_width=3)]
    for c, (m, k), n, unit in itertools.product((cfg, fast_cas), SHAPES, (1, 3, 16, 64), units):
        try:
            plan = plan_gemm(c, mapping, GemmShape(m, k, n), level, unit=unit)
        except ScratchpadInfeasible:
            continue
        for agen, full_gaps in (("stepstone", True), ("naive", True), ("naive", False)):
            cand = _plan_candidate(c, plan)
            got = _gemm_phase_cycles(cand, plan.footprint, n, agen, full_gaps)
            assert got == _reference_gemm_phase(c, plan, agen, full_gaps), (m, k, n, agen)


# --------------------------------------------------------------------- #
# Keys are value-based hardware identities
# --------------------------------------------------------------------- #


def test_equal_mappings_share_keys_and_entries(cfg):
    a, b = make_skylake(), make_skylake()
    assert a is not b and a.hardware_key == b.hardware_key
    PRICING_MEMO.clear()
    plan_gemm(cfg, a, GemmShape(512, 1024, 4), PimLevel.BANKGROUP)
    plan_gemm(cfg, b, GemmShape(512, 1024, 8), PimLevel.BANKGROUP)
    assert PRICING_MEMO.size("footprint") == 1


def test_hardware_keys_survive_pickling(cfg):
    # Sweep workers receive pickled hardware; a key is a value, so it means
    # the same hardware in the worker's memo as in the parent's.
    sky = make_skylake()
    for obj in (cfg, sky):
        assert pickle.loads(pickle.dumps(obj)).hardware_key == obj.hardware_key


def test_mappings_with_the_same_geometry_never_share_entries(cfg):
    maps = [make_skylake()] + [mapping_by_id(i) for i in range(4)]
    assert len({mp.geometry for mp in maps}) == 1
    assert len({mp.hardware_key for mp in maps}) == len(maps)
    PRICING_MEMO.clear()
    shape = GemmShape(512, 1024, 4)
    results = [execute_gemm(cfg, mp, shape, PimLevel.BANKGROUP) for mp in maps]
    assert PRICING_MEMO.size("footprint") == len(maps)
    assert PRICING_MEMO.size("profile") == len(maps)
    for mp, res in zip(maps, results):
        PRICING_MEMO.clear()
        assert _fields(execute_gemm(cfg, mp, shape, PimLevel.BANKGROUP)) == _fields(res)


def test_different_timing_or_unit_gets_its_own_entries(cfg):
    sky = make_skylake()
    shape = GemmShape(1024, 1024, 4)
    slow = replace(cfg, timing=DDR4Timing(tCCDS=5, tCCDL=8))
    relaxed = cfg.with_unit(cfg.unit(PimLevel.BANKGROUP).relaxed())
    assert len({c.hardware_key for c in (cfg, slow, relaxed)}) == 3
    assert StepStoneConfig.default().hardware_key == cfg.hardware_key

    PRICING_MEMO.clear()
    execute_gemm(cfg, sky, shape, PimLevel.BANKGROUP)
    execute_gemm(slow, sky, shape, PimLevel.BANKGROUP)
    assert PRICING_MEMO.size("footprint") == 1  # timing does not shape groups
    assert PRICING_MEMO.size("profile") == 2  # but it shapes the cadence

    servers = [
        BatchServer(StepStoneSystem(config=c, mapping=sky)) for c in (cfg, slow, relaxed)
    ]
    servers.append(BatchServer(StepStoneSystem(config=cfg, mapping=mapping_by_id(2))))
    PRICING_MEMO.clear()
    seconds = [s.pim_latency(1024, 1024, 32) for s in servers]
    assert PRICING_MEMO.size("chunk") == 4
    for srv, sec in zip(servers, seconds):
        hw = srv.system
        direct = choose_execution(hw.config, hw.mapping, GemmShape(1024, 1024, 32))
        assert sec == direct.cycles / 1.2e9
    # A fresh server on equal hardware reads the same entries.
    assert BatchServer().pim_latency(1024, 1024, 32) == seconds[0]
    assert PRICING_MEMO.size("chunk") == 4


def test_chunk_memo_matches_choose_execution(cfg):
    sky = make_skylake()
    PRICING_MEMO.clear()
    srv = BatchServer(StepStoneSystem(config=cfg, mapping=sky))
    for n in (1, 5, 32):
        expected = choose_execution(cfg, sky, GemmShape(1024, 4096, n)).cycles / 1.2e9
        assert srv.pim_latency(1024, 4096, n) == expected


def test_choice_builds_its_result_only_when_read(cfg, monkeypatch):
    from repro.core import scheduler

    built = []
    real = scheduler._result

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(scheduler, "_result", counting)
    sky = make_skylake()
    PRICING_MEMO.clear()
    # A chunk price reads only cycles: no plan or result is built.
    BatchServer(StepStoneSystem(config=cfg, mapping=sky)).pim_latency(1024, 4096, 40)
    assert built == []
    choice = choose_execution(cfg, sky, GemmShape(1024, 4096, 8))
    cycles = choice.cycles
    assert built == []
    assert choice.result is choice.result and len(built) == 1
    assert cycles == choice.result.breakdown.total == choice.result.cycles
    plan = choice.result.plan
    assert (plan.level, plan.orig_shape, plan.shape.n) == (choice.level, GemmShape(1024, 4096, 8), 8)
    direct = execute_gemm(
        cfg, sky, GemmShape(1024, 4096, 8), choice.level, pinned_id_bits=choice.pinned_id_bits
    )
    assert _fields(direct) == _fields(choice.result)
    # It equals, copies and pickles like the plain choice.
    plain = PimChoice(choice.level, choice.pinned_id_bits, choice.result)
    assert choice == plain and plain == choice
    assert plain != PimChoice(choice.level, choice.pinned_id_bits + 1, choice.result) != choice
    for twin in (copy.deepcopy(choice), pickle.loads(pickle.dumps(choice))):
        assert type(twin) is PimChoice
        assert (twin.level, twin.pinned_id_bits, twin.cycles) == (
            choice.level,
            choice.pinned_id_bits,
            choice.cycles,
        )
        assert _fields(twin.result) == _fields(choice.result)


def test_clear_drops_every_table_so_cold_runs_stay_cold(cfg):
    sky = make_skylake()
    shape = GemmShape(1024, 4096, 8)
    PRICING_MEMO.clear()
    cold = choose_execution(cfg, sky, shape)
    sizes = [PRICING_MEMO.size(t) for t in PRICING_MEMO.TABLES]
    assert PRICING_MEMO.size("footprint") == PRICING_MEMO.size("profile") >= 1
    warm = choose_execution(cfg, sky, shape)
    assert [PRICING_MEMO.size(t) for t in PRICING_MEMO.TABLES] == sizes
    PRICING_MEMO.clear()
    assert [PRICING_MEMO.size(t) for t in PRICING_MEMO.TABLES] == [0] * len(PRICING_MEMO.TABLES)
    recold = choose_execution(cfg, sky, shape)
    assert [PRICING_MEMO.size(t) for t in PRICING_MEMO.TABLES] == sizes
    for choice in (warm, recold):
        assert (choice.level, choice.pinned_id_bits) == (cold.level, cold.pinned_id_bits)
        assert choice.result.breakdown.as_dict() == cold.result.breakdown.as_dict()


# --------------------------------------------------------------------- #
# Hit/miss telemetry
# --------------------------------------------------------------------- #


def test_memo_hits_and_misses_are_counted_while_the_bus_is_on(cfg):
    sky = make_skylake()
    shape = GemmShape(512, 2048, 4)
    PRICING_MEMO.clear()
    BUS.reset()
    BUS.enable()
    try:
        choose_execution(cfg, sky, shape)
        choose_execution(cfg, sky, replace(shape, n=8))
        srv = BatchServer()
        srv.pim_latency(512, 2048, 32)
        srv.pim_latency(512, 2048, 32)
        # Three priced candidates over two footprints: BG/0 at n=4, DV/0
        # at n=8 and DV/0 again at n=32 (a hit).
        for memo in ("footprint", "profile"):
            assert BUS.counter("pricing.memo.miss", memo=memo) == PRICING_MEMO.size(memo) == 2
            assert BUS.counter("pricing.memo.hit", memo=memo) == 1.0
        assert BUS.counter("pricing.memo.miss", memo="chunk") == 1.0
        assert BUS.counter("pricing.memo.hit", memo="chunk") == 1.0
        # One candidate set per weight shape, read by all three searches.
        assert BUS.counter("pricing.memo.miss", memo="candidates") == 1.0
        assert BUS.counter("pricing.memo.hit", memo="candidates") == 2.0
        # Three searches over four candidates, one priced in each; every
        # priced one reads its profile.
        search = {
            (name, lv): BUS.counter(f"pricing.search.{name}", level=lv)
            for name in ("priced", "pruned")
            for lv in ("BG", "DV")
        }
        assert search == {
            ("priced", "BG"): 1.0,
            ("priced", "DV"): 2.0,
            ("pruned", "BG"): 5.0,
            ("pruned", "DV"): 4.0,
        }
        reads = sum(BUS.counter(f"pricing.memo.{r}", memo="profile") for r in ("hit", "miss"))
        assert reads == search["priced", "BG"] + search["priced", "DV"]
    finally:
        BUS.disable()
        BUS.reset()
    choose_execution(cfg, sky, shape)
    assert BUS.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
