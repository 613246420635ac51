"""Fig. 6 harness: GEMM latency breakdown across PIM levels vs. the CPU.

Regenerates the stacked-bar series (printed once) and benchmarks the
per-level timing executor on the representative 1024 x 4096 matrix.
"""

import pytest

from repro.core.config import StepStoneConfig
from repro.core.executor import execute_gemm
from repro.core.gemm import GemmShape
from repro.mapping.presets import make_skylake
from repro.mapping.xor_mapping import PimLevel

CFG = StepStoneConfig.default()
SKY = make_skylake()


def test_fig06(run_bench):
    run_bench("fig06")


@pytest.mark.parametrize("level", list(PimLevel), ids=lambda level: level.short)
def test_fig06_executor_batch4(benchmark, level):
    shape = GemmShape(1024, 4096, 4)
    result = benchmark(execute_gemm, CFG, SKY, shape, level)
    assert result.breakdown.total > 0


@pytest.mark.parametrize("n", [1, 32])
def test_fig06_executor_bg_batch(benchmark, n):
    shape = GemmShape(1024, 4096, n)
    result = benchmark(execute_gemm, CFG, SKY, shape, PimLevel.BANKGROUP)
    assert result.breakdown.total > 0
