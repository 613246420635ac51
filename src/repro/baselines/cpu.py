"""Analytic CPU GEMM model (measured-Xeon substitute).

The paper measures an Intel Xeon Platinum 8280 (28 cores, 2.7 GHz,
Cascade Lake) running oneDNN.  Without that hardware we use an analytic
model calibrated to the ratios the paper reports:

* batch-1 GEMM on a memory-resident 1024 x 4096 weight matrix takes about
  12x the StepStone-BG batch-1 latency (§V-A) — an effective streaming
  bandwidth of ~12.5 GB/s for tall-skinny small-batch GEMM, well below the
  socket's 140 GB/s peak and below one StepStone channel pair's 38.4 GB/s
  (§V-A: measured CPU "falls short of the channel-level StepStone-CH");
* allowing the CPU 1.2x its batch-1 latency admits batch-32 (§I, §V-A), so
  effective time grows ~0.65%/sample over the inference range;
* the CPU overtakes PIM throughput only at batch >= 256 (§V-B roofline
  discussion), which the linear-degradation + compute-floor model yields.

The **idealized CPU** (iCPU) of Fig. 8 "maximally utilizes memory channel
bandwidth"; the paper estimates it with StepStone-CH, and so do we (see
`repro.models.inference`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.gemm import GemmShape

__all__ = ["CpuConfig", "CpuGemmModel", "XEON_8280"]


@dataclass(frozen=True)
class CpuConfig:
    """Calibrated CPU parameters (defaults: Xeon Platinum 8280)."""

    name: str = "xeon-8280"
    cores: int = 28
    clock_hz: float = 2.7e9
    flops_per_cycle_per_core: int = 64  # AVX-512: 2 FMA pipes x 16 fp32
    peak_bw_gbps: float = 140.8  # 6 x DDR4-2933
    #: Effective streaming bandwidth for memory-resident small-batch GEMM.
    eff_bw_small_batch_gbps: float = 12.5
    #: Per-sample latency degradation (calibrates batch-32 = 1.2x batch-1).
    batch_degradation_per_sample: float = 0.0065
    compute_efficiency: float = 0.85
    #: Fixed per-GEMM software overhead (dispatch, packing), seconds.
    overhead_s: float = 2.0e-6

    def __post_init__(self) -> None:
        # A NaN or non-positive rate would reach the kernel clock as a NaN
        # or infinite service time.
        for name in (
            "cores", "clock_hz", "flops_per_cycle_per_core", "peak_bw_gbps",
            "eff_bw_small_batch_gbps",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ValueError(
                f"compute_efficiency must be in (0, 1], got {self.compute_efficiency!r}"
            )
        for name in ("batch_degradation_per_sample", "overhead_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")

    @property
    def peak_flops(self) -> float:
        return self.cores * self.clock_hz * self.flops_per_cycle_per_core


XEON_8280 = CpuConfig()


class CpuGemmModel:
    """Latency/throughput model for CPU GEMM with memory-resident weights."""

    def __init__(self, config: CpuConfig = XEON_8280) -> None:
        self.config = config

    def gemm_seconds(self, shape: GemmShape, weights_in_memory: bool = True) -> float:
        """Wall-clock seconds for one C[m,n] = A[m,k] @ B[k,n].

        ``weights_in_memory=False`` models the (rare) cache-resident case by
        charging only the compute floor.
        """
        if not weights_in_memory:
            return self._bounds(shape.m, shape.k, shape.n)[0] + self.config.overhead_s
        return self.seconds(shape.m, shape.k, shape.n)

    def seconds(self, m: int, k: int, n: int) -> float:
        """:meth:`gemm_seconds` of a memory-resident (m, k, n) GEMM."""
        return max(self._bounds(m, k, n)) + self.config.overhead_s

    def _bounds(self, m: int, k: int, n: int) -> tuple[float, float, float]:
        """The compute, memory and peak-bandwidth bounds of an (m, k, n) GEMM."""
        c = self.config
        compute_s = 2.0 * m * k * n / (c.peak_flops * c.compute_efficiency)
        a_bytes = m * k * 4
        degrade = 1.0 + c.batch_degradation_per_sample * (n - 1)
        mem_s = a_bytes / (c.eff_bw_small_batch_gbps * 1e9) * degrade
        # The memory system never beats its peak: floor by peak-bandwidth
        # streaming of the full operand set.
        floor_s = (a_bytes + 4.0 * k * n + 4.0 * m * n) / (c.peak_bw_gbps * 1e9)
        return compute_s, mem_s, floor_s

    def gemm_cycles(
        self, shape: GemmShape, dram_clock_hz: float = 1.2e9, weights_in_memory: bool = True
    ) -> float:
        """Same latency expressed in DRAM-clock cycles (Fig. 6 units)."""
        return self.gemm_seconds(shape, weights_in_memory) * dram_clock_hz

    def throughput_samples_per_s(self, shape: GemmShape) -> float:
        return shape.n / self.gemm_seconds(shape)

    def gflops(self, shape: GemmShape) -> float:
        """Achieved GFLOP/s (roofline measurement points, Figs. 1 and 7)."""
        return shape.flops / self.gemm_seconds(shape) / 1e9
