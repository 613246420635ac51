"""Tests of the timing executor: Fig. 6/9/10-style behaviours."""

import pytest

from repro.core.config import StepStoneConfig
from repro.core.executor import execute_gemm
from repro.core.gemm import GemmShape
from repro.mapping.presets import make_skylake
from repro.mapping.xor_mapping import PimLevel


@pytest.fixture(scope="module")
def cfg():
    return StepStoneConfig.default()


@pytest.fixture(scope="module")
def sky():
    return make_skylake()


SHAPE = GemmShape(1024, 4096, 1)


class TestBreakdown:
    @pytest.mark.parametrize("level", list(PimLevel))
    def test_all_components_nonnegative(self, cfg, sky, level):
        r = execute_gemm(cfg, sky, GemmShape(1024, 4096, 4), level)
        d = r.breakdown.as_dict()
        assert all(v >= 0 for v in d.values())
        assert d["total"] == pytest.approx(sum(v for k, v in d.items() if k != "total"))

    def test_breakdown_add_and_scale(self, cfg, sky):
        r = execute_gemm(cfg, sky, SHAPE, PimLevel.DEVICE)
        b2 = r.breakdown + r.breakdown
        assert b2.total == pytest.approx(2 * r.breakdown.total)
        assert r.breakdown.scaled(3).gemm == pytest.approx(3 * r.breakdown.gemm)


class TestFig6Shapes:
    def test_bg_fastest_at_batch1(self, cfg, sky):
        """§V-A: StepStone-BG has far superior batch-1 latency."""
        res = {
            lvl: execute_gemm(cfg, sky, SHAPE, lvl).breakdown.total
            for lvl in PimLevel
        }
        assert res[PimLevel.BANKGROUP] < res[PimLevel.DEVICE] < res[PimLevel.CHANNEL]
        # BG is ~2.8x better than DV in the paper; allow a generous band.
        ratio = res[PimLevel.DEVICE] / res[PimLevel.BANKGROUP]
        assert 2.0 < ratio < 4.0

    def test_dv_overtakes_bg_at_batch32(self, cfg, sky):
        """Localization/reduction overheads grow with PIM count and N."""
        s32 = GemmShape(1024, 4096, 32)
        bg = execute_gemm(cfg, sky, s32, PimLevel.BANKGROUP).breakdown.total
        dv = execute_gemm(cfg, sky, s32, PimLevel.DEVICE).breakdown.total
        assert dv < bg

    def test_latency_flat_for_small_batches(self, cfg, sky):
        """Bandwidth-bound region: batch-4 GEMM time ~ batch-1 GEMM time."""
        r1 = execute_gemm(cfg, sky, GemmShape(1024, 4096, 1), PimLevel.BANKGROUP)
        r4 = execute_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        assert r4.breakdown.gemm < 1.25 * r1.breakdown.gemm

    def test_relaxed_area_helps_batch32(self, cfg, sky):
        s32 = GemmShape(1024, 4096, 32)
        base = execute_gemm(cfg, sky, s32, PimLevel.DEVICE)
        relaxed = execute_gemm(
            cfg, sky, s32, PimLevel.DEVICE, unit=cfg.unit(PimLevel.DEVICE).relaxed()
        )
        assert relaxed.breakdown.total < base.breakdown.total

    def test_overheads_grow_with_batch(self, cfg, sky):
        r4 = execute_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        r32 = execute_gemm(cfg, sky, GemmShape(1024, 4096, 32), PimLevel.BANKGROUP)
        assert r32.breakdown.localization > r4.breakdown.localization
        assert r32.breakdown.reduction > r4.breakdown.reduction


class TestFig9Agen:
    @pytest.mark.parametrize("level", list(PimLevel))
    def test_naive_never_faster(self, cfg, sky, level):
        s = GemmShape(1024, 4096, 4)
        st = execute_gemm(cfg, sky, s, level, agen="stepstone").breakdown.total
        nv = execute_gemm(cfg, sky, s, level, agen="naive").breakdown.total
        assert nv >= st * 0.999

    def test_gap_largest_with_most_pims(self, cfg, sky):
        """§V-C: AGEN benefit grows with active PIM count (BG > DV >= CH)."""
        s = GemmShape(1024, 4096, 4)
        gaps = {}
        for lvl in PimLevel:
            st = execute_gemm(cfg, sky, s, lvl, agen="stepstone").breakdown.total
            nv = execute_gemm(cfg, sky, s, lvl, agen="naive").breakdown.total
            gaps[lvl] = nv / st
        assert gaps[PimLevel.BANKGROUP] > gaps[PimLevel.DEVICE] >= gaps[PimLevel.CHANNEL] * 0.95
        assert gaps[PimLevel.BANKGROUP] > 2.0  # paper: up to 4x

    def test_stepstone_bubbles_hidden(self, cfg, sky):
        r = execute_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        # AGEN iterations almost never exceed the cadence window.
        assert r.bubble_stall_cycles < 0.01 * r.breakdown.gemm

    def test_unknown_agen_rejected(self, cfg, sky):
        with pytest.raises(ValueError):
            execute_gemm(cfg, sky, SHAPE, PimLevel.DEVICE, agen="magic")

    def test_unknown_flow_rejected(self, cfg, sky):
        with pytest.raises(ValueError):
            execute_gemm(cfg, sky, SHAPE, PimLevel.DEVICE, flow="magic")


class TestFig10Subsetting:
    def test_half_pims_helps_small_matrix(self, cfg, sky):
        """Fig. 10 (left): small matrices benefit from fewer PIMs."""
        s = GemmShape(512, 2048, 32)
        full = execute_gemm(cfg, sky, s, PimLevel.BANKGROUP).breakdown
        half = execute_gemm(
            cfg, sky, s, PimLevel.BANKGROUP, pinned_id_bits=1
        ).breakdown
        assert half.localization < full.localization
        assert half.reduction < full.reduction
        assert half.total < full.total

    def test_half_pims_hurts_large_matrix_gemm(self, cfg, sky):
        """Fig. 10 (right): arithmetic time doubles with half the PIMs."""
        s = GemmShape(4096, 1024, 16)
        full = execute_gemm(cfg, sky, s, PimLevel.BANKGROUP).breakdown
        half = execute_gemm(
            cfg, sky, s, PimLevel.BANKGROUP, pinned_id_bits=1
        ).breakdown
        assert half.gemm > 1.5 * full.gemm


class TestFlows:
    def test_echo_slower_than_stepstone(self, cfg, sky):
        """CPU-driven loc/red + per-dot kernels cost extra (§V-B)."""
        s = GemmShape(1024, 4096, 4)
        st = execute_gemm(cfg, sky, s, PimLevel.BANKGROUP, flow="stepstone")
        ec = execute_gemm(cfg, sky, s, PimLevel.BANKGROUP, flow="echo")
        assert ec.breakdown.total > st.breakdown.total
        assert ec.breakdown.localization > st.breakdown.localization

    def test_launch_delay_hurts_echo_more(self, cfg, sky):
        """§V-G: command-channel contention punishes per-dot kernels."""
        s = GemmShape(1024, 4096, 4)
        st0 = execute_gemm(cfg, sky, s, PimLevel.DEVICE, flow="stepstone")
        st1 = execute_gemm(
            cfg, sky, s, PimLevel.DEVICE, flow="stepstone", launch_delay_cycles=100
        )
        ec0 = execute_gemm(cfg, sky, s, PimLevel.DEVICE, flow="echo")
        ec1 = execute_gemm(
            cfg, sky, s, PimLevel.DEVICE, flow="echo", launch_delay_cycles=100
        )
        d_st = st1.breakdown.total - st0.breakdown.total
        d_ec = ec1.breakdown.total - ec0.breakdown.total
        assert d_ec > 10 * d_st


BAD_MODES = [({"agen": "bogus"}, "unknown agen"), ({"flow": "bogus"}, "unknown flow")]


class TestModeValidation:
    """A typo in ``agen``/``flow`` is reported as such, not as infeasibility."""

    @pytest.mark.parametrize("kw,msg", BAD_MODES)
    def test_choose_execution_names_the_bad_argument(self, cfg, sky, kw, msg):
        from repro.core.scheduler import choose_execution

        with pytest.raises(ValueError, match=msg):
            choose_execution(cfg, sky, GemmShape(1024, 1024, 4), **kw)

    @pytest.mark.parametrize("kw,msg", BAD_MODES)
    def test_execute_plan_checks_before_any_work(self, cfg, sky, kw, msg, monkeypatch):
        from repro.core import executor
        from repro.core.gemm import plan_gemm

        plan = plan_gemm(cfg, sky, GemmShape(1024, 1024, 4), PimLevel.BANKGROUP)

        def no_work(*args, **kwargs):
            raise AssertionError("priced before validating its arguments")

        monkeypatch.setattr(executor, "_gemm_phase_cycles", no_work)
        with pytest.raises(ValueError, match=msg):
            executor.execute_plan(cfg, plan, **kw)

    @pytest.mark.parametrize(
        "kw,msg",
        [
            ({"max_pinned_bits": -1}, "max_pinned_bits must be non-negative"),
            ({"max_pinned_bits": 1.5}, "max_pinned_bits must be an integer"),
            ({"levels": ()}, "levels must be a non-empty sequence"),
            ({"levels": ("BG",)}, "levels must be a non-empty sequence"),
        ],
    )
    def test_choose_execution_names_bad_search_bounds(self, cfg, sky, kw, msg, monkeypatch):
        from repro.core import scheduler

        def no_work(*args, **kwargs):
            raise AssertionError("priced before validating its arguments")

        monkeypatch.setattr(scheduler, "_candidates", no_work)
        with pytest.raises(ValueError, match=msg):
            scheduler.choose_execution(cfg, sky, GemmShape(1024, 1024, 4), **kw)

    @pytest.mark.parametrize("n", [4, 4096])
    def test_choose_execution_names_a_matrix_beyond_dram_capacity(self, cfg, sky, n):
        # Candidates read their footprint constants from ranks, not from the
        # footprint analysis, so they check the capacity themselves, before
        # any candidate is priced (and so even when no batch fits).
        from repro.core.scheduler import choose_execution

        with pytest.raises(ValueError, match="matrix exceeds DRAM capacity"):
            choose_execution(cfg, sky, GemmShape(1 << 17, 1 << 17, n))

    def test_scratchpad_infeasibility_is_still_skipped(self, cfg, sky):
        from repro.core.gemm import ScratchpadInfeasible, plan_gemm
        from repro.core.scheduler import choose_execution

        # One 8 KiB C row at N = 2048 fills the whole BG scratchpad; the
        # 32 KiB DV scratchpad still fits a C row plus a B column.
        shape = GemmShape(1024, 1024, 2048)
        with pytest.raises(ScratchpadInfeasible):
            plan_gemm(cfg, sky, shape, PimLevel.BANKGROUP)
        assert choose_execution(cfg, sky, shape).level is PimLevel.DEVICE
