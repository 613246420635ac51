"""Edge-case coverage across subsystems: write paths, tFAW, tiny shapes,
randomized mappings, and executor corner configurations."""

import numpy as np
import pytest

from repro.core.agen import ExactStepStoneAGEN, solve_constraints
from repro.core.config import StepStoneConfig
from repro.core.executor import execute_gemm
from repro.core.gemm import GemmShape, plan_gemm
from repro.dram.commands import BankCoord, Request
from repro.dram.controller import ChannelController
from repro.dram.stream import StreamAccess, stream_cycles
from repro.dram.timing import DDR4_2400R
from repro.mapping.analysis import Constraint, analyze_footprint
from repro.mapping.presets import make_skylake, pae_randomized
from repro.mapping.xor_mapping import PimLevel


@pytest.fixture(scope="module")
def cfg():
    return StepStoneConfig.default()


@pytest.fixture(scope="module")
def sky():
    return make_skylake()


class TestControllerWritePath:
    def test_write_stream_completes(self):
        ctl = ChannelController(refresh=False)
        reqs = [
            Request(arrival=0, coord=BankCoord(0, 0, 0), row=1, column=i, is_write=True, request_id=i)
            for i in range(64)
        ]
        stats = ctl.run(reqs)
        assert stats.writes == 64
        assert stats.total_cycles > 64 * DDR4_2400R.tCCDL * 0.9

    def test_read_write_mix(self):
        ctl = ChannelController(refresh=False)
        reqs = [
            Request(
                arrival=0,
                coord=BankCoord(0, i % 4, 0),
                row=2,
                column=i,
                is_write=(i % 3 == 0),
                request_id=i,
            )
            for i in range(90)
        ]
        stats = ctl.run(reqs)
        assert stats.reads + stats.writes == 90

    def test_rank_interleaving_completes(self):
        ctl = ChannelController(refresh=False)
        reqs = [
            Request(arrival=0, coord=BankCoord(i % 2, 0, 0), row=3, column=i, request_id=i)
            for i in range(64)
        ]
        stats = ctl.run(reqs)
        # Rank switches cost tBL + tRTRS per hop, slower than one rank's hits.
        assert stats.total_cycles > 64 * (DDR4_2400R.tBL + DDR4_2400R.tRTRS) * 0.9

    def test_late_arrivals_respected(self):
        ctl = ChannelController(refresh=False)
        reqs = [
            Request(arrival=5000, coord=BankCoord(0, 0, 0), row=1, column=0, request_id=0)
        ]
        ctl.run(reqs)
        assert reqs[0].completion > 5000


class TestStreamTfaw:
    def test_faw_floor_applies(self):
        """All-miss single-bank-group stream: ACT rate capped at 4/tFAW."""
        n = 400
        acc = StreamAccess(
            rank=np.zeros(n, dtype=int),
            bankgroup=np.zeros(n, dtype=int),
            bank=np.arange(n) % 4,
            row=np.arange(n),  # every access a new row
        )
        s = stream_cycles(acc, refresh=False)
        assert s.cycles >= n / 4.0 * DDR4_2400R.tFAW * 0.99
        assert s.row_misses == n


class TestTinyShapes:
    def test_one_block_matrix(self, cfg, sky):
        """The smallest legal GEMM (one cache block of weights)."""
        r = execute_gemm(cfg, sky, GemmShape(1, 16, 1), PimLevel.CHANNEL)
        assert r.breakdown.total > 0
        assert r.plan.direct_scratchpad

    def test_single_row_matrix(self, cfg, sky):
        r = execute_gemm(cfg, sky, GemmShape(1, 4096, 4), PimLevel.DEVICE)
        assert r.plan.shape.m == 1

    def test_tall_one_col_block(self, cfg, sky):
        r = execute_gemm(cfg, sky, GemmShape(4096, 16, 2), PimLevel.BANKGROUP)
        assert r.breakdown.total > 0

    def test_plan_single_pim_case(self, cfg, sky):
        """A matrix small enough to live entirely in one PIM's slice."""
        plan = plan_gemm(cfg, sky, GemmShape(1, 16, 1), PimLevel.CHANNEL)
        assert plan.n_active_pims >= 1
        total = sum(w.n_cols * w.n_rows for ws in plan.work.values() for w in ws)
        assert total == plan.analysis.total_blocks


class TestRandomizedMappings:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_pae_mapping_full_pipeline(self, cfg, seed):
        """PAE-randomized mappings run the whole stack correctly."""
        mapping = pae_randomized(make_skylake(), seed)
        r = execute_gemm(cfg, mapping, GemmShape(256, 2048, 4), PimLevel.BANKGROUP)
        assert r.breakdown.total > 0
        fa = analyze_footprint(mapping, PimLevel.BANKGROUP, 64, 1024)
        pim = int(fa.active_pim_ids()[0])
        agen = ExactStepStoneAGEN(fa, pim, 0)
        oracle = np.sort(fa.blocks_of(pim, 0))
        assert np.array_equal(agen.trace(), oracle)


class TestSolverEdges:
    def test_empty_system_full_space(self):
        s = solve_constraints([], 1)
        assert s.size == 2

    def test_all_bits_pinned(self):
        cons = [Constraint(1 << i, 1) for i in range(4)]
        s = solve_constraints(cons, 4)
        assert s.size == 1
        assert s.element(0) == 0b1111

    def test_redundant_constraints_collapse(self):
        cons = [Constraint(0b11, 0), Constraint(0b11, 0)]
        s = solve_constraints(cons, 4)
        assert s.size == 8

    def test_element_out_of_range(self):
        s = solve_constraints([Constraint(0b1, 0)], 3)
        with pytest.raises(IndexError):
            s.element(s.size)


class TestExecutorCorners:
    def test_channel_level_all_batches(self, cfg, sky):
        for n in (1, 8, 64, 256):
            r = execute_gemm(cfg, sky, GemmShape(512, 1024, n), PimLevel.CHANNEL)
            assert r.breakdown.total > 0

    def test_large_batch_compute_bound_growth(self, cfg, sky):
        """Beyond the SIMD saturation point, GEMM time grows with N."""
        t64 = execute_gemm(cfg, sky, GemmShape(512, 1024, 64), PimLevel.DEVICE)
        t256 = execute_gemm(cfg, sky, GemmShape(512, 1024, 256), PimLevel.DEVICE)
        assert t256.breakdown.gemm > 2.0 * t64.breakdown.gemm

    def test_echo_with_pinning(self, cfg, sky):
        from repro.baselines.chopim import echo_gemm

        r = echo_gemm(cfg, sky, GemmShape(512, 2048, 8), PimLevel.BANKGROUP, pinned_id_bits=1)
        assert r.plan.n_active_pims == 8

    def test_deterministic_results(self, cfg, sky):
        a = execute_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        b = execute_gemm(cfg, sky, GemmShape(1024, 4096, 4), PimLevel.BANKGROUP)
        assert a.breakdown.total == b.breakdown.total
