"""Tests for GEMM shapes, padding, and the Algorithm-1 planner."""

import math

import numpy as np
import pytest

from repro.core.config import StepStoneConfig
from repro.core.executor import _offchip_cycles, _plan_candidate, execute_plan
from repro.core.gemm import GemmShape, plan_gemm
from repro.mapping.presets import make_skylake
from repro.mapping.xor_mapping import PimLevel


@pytest.fixture(scope="module")
def cfg():
    return StepStoneConfig.default()


@pytest.fixture(scope="module")
def sky():
    return make_skylake()


class TestShape:
    def test_flops(self):
        assert GemmShape(2, 3, 4).flops == 48.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            GemmShape(0, 3, 4)

    @pytest.mark.parametrize(
        "dims,field",
        [
            ((1024, 1024, 2.5), "n"),  # a fractional batch
            ((1024, 1024, True), "n"),  # a bool is not a batch of 1
            ((1024, 1024, math.nan), "n"),
            ((1024.0, 1024, 4), "m"),  # even an integral float
            ((1024, -4, 4), "k"),
            ((1024, 1024, 0), "n"),
            ((1024, "1024", 4), "k"),
            ((None, 1024, 4), "m"),
            ((np.float64(8), 1024, 4), "m"),
        ],
    )
    def test_bad_dimension_is_named(self, dims, field):
        with pytest.raises(ValueError, match=f"GEMM dimension {field} must be a positive integer"):
            GemmShape(*dims)

    def test_numpy_integers_are_accepted_as_ints(self, cfg, sky):
        shape = GemmShape(np.int64(1000), np.int32(700), np.uint8(5))
        assert shape == GemmShape(1000, 700, 5)
        assert all(type(v) is int for v in (shape.m, shape.k, shape.n))
        assert shape.padded() == GemmShape(1024, 1024, 5)
        assert plan_gemm(cfg, sky, shape, PimLevel.BANKGROUP).shape.n == 5

    def test_padding_rounds_up(self):
        p = GemmShape(100, 1000, 5).padded()
        assert (p.m, p.k, p.n) == (128, 1024, 5)

    def test_padding_min_k_one_block(self):
        p = GemmShape(128, 1, 1).padded()
        assert p.k == 16  # one 64 B cache block of fp32

    def test_pow2_unchanged(self):
        p = GemmShape(1024, 4096, 4).padded()
        assert (p.m, p.k) == (1024, 4096)


class TestPlanner:
    @pytest.mark.parametrize("level", list(PimLevel))
    def test_plan_basic_invariants(self, cfg, sky, level):
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), level)
        assert plan.n_active_pims == cfg.addressable_units(level)
        assert plan.n_rparts == math.ceil(plan.shape.m / plan.rpart_rows)
        # Work items cover the whole matrix.
        total = sum(
            w.n_cols * w.n_rows for items in plan.work.values() for w in items
        )
        assert total == plan.analysis.total_blocks

    @pytest.mark.parametrize("level", list(PimLevel))
    @pytest.mark.parametrize("n", [1, 4, 16, 32])
    def test_tiles_fit_scratchpad(self, cfg, sky, level, n):
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, n), level)
        u = plan.unit
        if plan.direct_scratchpad:
            return
        c_bytes = plan.rpart_rows * n * 4
        b_bytes = plan.cpart_blocks * u.words_per_block_per_slice * n * 4
        assert c_bytes + b_bytes <= u.scratchpad_bytes

    @staticmethod
    def _offchip_blocks(cfg, plan):
        """(localization, reduction) cache blocks of a plan, as priced."""
        cand = _plan_candidate(cfg, plan)
        return _offchip_cycles(cand, plan.shape.n, "stepstone")[2:]

    def test_localization_volume_formula(self, cfg, sky):
        """Total replicated B is n_groups * K * N words (Fig. 5 flow)."""
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        loc_blocks, _ = self._offchip_blocks(cfg, plan)
        expected = plan.analysis.n_groups * plan.shape.k * plan.shape.n
        assert loc_blocks * 64 == expected * cfg.word_bytes

    def test_reduction_scales_with_addressable_units(self, cfg, sky):
        bg = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        dv = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.DEVICE)
        ch = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.CHANNEL)
        assert bg.n_partials == 16
        assert dv.n_partials == 4
        assert ch.n_partials == 2
        red = [self._offchip_blocks(cfg, plan)[1] for plan in (bg, dv, ch)]
        assert red[0] > red[1] > red[2]
        # Every partial is read once and the final C written once.
        c_blocks = 1024 * 4 * cfg.word_bytes / 64
        assert red == [(p + 1) * c_blocks for p in (16, 4, 2)]

    def test_kernel_launches_echo_exceeds_stepstone(self, cfg, sky):
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        assert plan.kernel_launches("echo") > 20 * plan.kernel_launches("stepstone")

    def test_kernel_launches_unknown_flow(self, cfg, sky):
        plan = plan_gemm(cfg, sky, GemmShape(256, 1024, 4), PimLevel.DEVICE)
        with pytest.raises(ValueError):
            plan.kernel_launches("bogus")

    def test_oversized_batch_rejected(self, cfg, sky):
        with pytest.raises(ValueError, match="scratchpad"):
            plan_gemm(cfg, sky, GemmShape(1024, 4096, 4096), PimLevel.BANKGROUP)

    def test_direct_scratchpad_small_matrix(self, cfg, sky):
        """§III-E: small B and C live in the scratchpad, skipping staging."""
        plan = plan_gemm(cfg, sky, GemmShape(128, 256, 1), PimLevel.CHANNEL)
        assert plan.direct_scratchpad
        res = execute_plan(cfg, plan)
        assert res.breakdown.fill_b == res.breakdown.fill_c == res.breakdown.drain_c == 0.0
        assert res.pim_dram_blocks == plan.analysis.total_blocks  # the GEMM walk alone

    def test_pinning_halves_pims_and_groups(self, cfg, sky):
        full = plan_gemm(cfg, sky, GemmShape(1024, 4096, 16), PimLevel.BANKGROUP)
        half = plan_gemm(
            cfg, sky, GemmShape(1024, 4096, 16), PimLevel.BANKGROUP, pinned_id_bits=1
        )
        assert half.n_active_pims * 2 == full.n_active_pims
        (half_loc, half_red), (full_loc, full_red) = (
            self._offchip_blocks(cfg, plan) for plan in (half, full)
        )
        assert half_loc < full_loc
        # Half the partials to read; the final C is written once either way.
        c_blocks = 1024 * 16 * cfg.word_bytes / 64
        assert (half_red - c_blocks) * 2 == full_red - c_blocks

    def test_relaxed_unit_reduces_rparts(self, cfg, sky):
        base_unit = cfg.unit(PimLevel.BANKGROUP)
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 32), PimLevel.BANKGROUP)
        relaxed = plan_gemm(
            cfg,
            sky,
            GemmShape(1024, 4096, 32),
            PimLevel.BANKGROUP,
            unit=base_unit.relaxed(),
        )
        assert relaxed.n_rparts < plan.n_rparts

    def test_gemm_blocks_balanced(self, cfg, sky):
        plan = plan_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        blocks = list(plan.gemm_blocks_per_pim.values())
        assert max(blocks) == min(blocks)
