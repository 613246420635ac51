"""End-to-end inference engine (Fig. 8).

Runs a :class:`~repro.models.layers.ModelSpec` under one of seven backends:

==========  ============================================================
Backend     Meaning (paper notation)
==========  ============================================================
``cpu``     Measured-CPU model for every GEMM.
``icpu``    Idealized CPU: GEMMs at StepStone-CH timing, which maximally
            utilizes channel bandwidth (§V-B).
``pei``     PEI [3]: per-cache-block PIM instructions.
``ncho``    Naive Chopim [9]: GEMV-flow kernels.
``echo``    Chopim enhanced with StepStone block grouping.
``stp_dv``  Low-power StepStone (STP*): device-level PIMs only.
``stp``     StepStone: best PIM level per GEMM (STP).
==========  ============================================================

For every GEMM the engine picks the fastest among the backend's PIM options
and the CPU (the paper: "the best performing option is chosen for each
GEMM"), attributing time to the Fig. 8 stack components PIM_DV, PIM_BG,
CPU_GEMM, and CPU_Other.  Non-power-of-two layers run as power-of-two
partitions (§III fn. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.cpu import CpuGemmModel
from repro.core.executor import execute_gemm
from repro.core.gemm import GemmShape
from repro.core.system import StepStoneSystem
from repro.mapping.xor_mapping import PimLevel
from repro.models.bert import make_bert
from repro.models.dlrm import make_dlrm_rm3
from repro.models.gpt2 import make_gpt2
from repro.models.layers import ModelSpec, pow2_partition
from repro.models.xlm import make_xlm

__all__ = ["BACKENDS", "InferenceEngine", "InferenceResult", "all_models"]

BACKENDS: Tuple[str, ...] = ("cpu", "icpu", "pei", "ncho", "echo", "stp_dv", "stp")

_DRAM_HZ = 1.2e9


@dataclass
class InferenceResult:
    """Fig. 8 stack for one (model, backend) pair; times in seconds."""

    model: str
    backend: str
    pim_dv_s: float = 0.0
    pim_bg_s: float = 0.0
    cpu_gemm_s: float = 0.0
    cpu_other_s: float = 0.0
    level_switches: int = 0  # GEMMs that ran at BG while others ran DV etc.

    @property
    def total_s(self) -> float:
        return self.pim_dv_s + self.pim_bg_s + self.cpu_gemm_s + self.cpu_other_s

    def normalized_to(self, ref: "InferenceResult") -> Dict[str, float]:
        """Stack components normalized to another result's total (Fig. 8)."""
        t = ref.total_s
        return {
            "PIM_DV": self.pim_dv_s / t,
            "PIM_BG": self.pim_bg_s / t,
            "CPU_GEMM": self.cpu_gemm_s / t,
            "CPU_Other": self.cpu_other_s / t,
            "total": self.total_s / t,
        }


def all_models() -> Dict[str, ModelSpec]:
    """The four Table II inference workloads."""
    return {
        "DLRM": make_dlrm_rm3(),
        "GPT2": make_gpt2(),
        "XLM": make_xlm(),
        "BERT": make_bert(),
    }


class InferenceEngine:
    """Evaluates ModelSpecs under the Fig. 8 backends with memoized tiles."""

    def __init__(
        self,
        system: Optional[StepStoneSystem] = None,
        cpu: Optional[CpuGemmModel] = None,
    ) -> None:
        self.system = system or StepStoneSystem.default()
        self.cpu = cpu or CpuGemmModel()
        self._tile_cache: Dict[Tuple, Tuple[str, float]] = {}

    # ------------------------------------------------------------------ #
    # Per-tile dispatch
    # ------------------------------------------------------------------ #

    def _pim_seconds(self, shape: GemmShape, backend: str, level: PimLevel) -> float:
        cfg, mapping = self.system.config, self.system.mapping
        if backend in ("stp", "stp_dv"):
            res = execute_gemm(cfg, mapping, shape, level)
        elif backend == "echo":
            from repro.baselines.chopim import echo_gemm

            res = echo_gemm(cfg, mapping, shape, level)
        elif backend == "ncho":
            from repro.baselines.chopim import ncho_gemm

            res = ncho_gemm(cfg, mapping, shape, level)
        elif backend == "pei":
            from repro.baselines.pei import pei_gemm

            res = pei_gemm(cfg, mapping, shape, level)
        elif backend == "icpu":
            res = execute_gemm(cfg, mapping, shape, PimLevel.CHANNEL)
        else:  # pragma: no cover - guarded by caller
            raise ValueError(backend)
        return res.breakdown.total / _DRAM_HZ

    def _tile_time(self, shape: GemmShape, backend: str) -> Tuple[str, float]:
        """(component, seconds) for one power-of-two tile under *backend*."""
        key = (shape.m, shape.k, shape.n, backend)
        hit = self._tile_cache.get(key)
        if hit is not None:
            return hit
        cpu_s = self.cpu.gemm_seconds(shape)
        if backend == "cpu":
            out = ("CPU_GEMM", cpu_s)
        elif backend == "icpu":
            out = ("CPU_GEMM", min(cpu_s, self._pim_seconds(shape, "icpu", PimLevel.CHANNEL)))
        else:
            options = [("CPU_GEMM", cpu_s)]
            levels = (
                (PimLevel.DEVICE,)
                if backend == "stp_dv"
                else (PimLevel.DEVICE, PimLevel.BANKGROUP)
            )
            for lvl in levels:
                try:
                    t = self._pim_seconds(shape, backend, lvl)
                except ValueError:
                    continue  # infeasible at this level (scratchpad)
                comp = "PIM_BG" if lvl is PimLevel.BANKGROUP else "PIM_DV"
                options.append((comp, t))
            out = min(options, key=lambda o: o[1])
        self._tile_cache[key] = out
        return out

    # ------------------------------------------------------------------ #
    # Whole-model evaluation
    # ------------------------------------------------------------------ #

    def run(self, spec: ModelSpec, backend: str) -> InferenceResult:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        res = InferenceResult(model=spec.name, backend=backend)
        components_seen = set()
        for inv in spec.gemms:
            for tile in pow2_partition(inv.shape):
                comp, sec = self._tile_time(tile, backend)
                total = sec * inv.count
                if comp == "PIM_DV":
                    res.pim_dv_s += total
                elif comp == "PIM_BG":
                    res.pim_bg_s += total
                else:
                    res.cpu_gemm_s += total
                components_seen.add(comp)
        if "PIM_DV" in components_seen and "PIM_BG" in components_seen:
            res.level_switches = 1
        res.cpu_other_s = spec.cpu_other_seconds(self.cpu.config)
        return res

    def run_all(self, spec: ModelSpec) -> Dict[str, InferenceResult]:
        return {b: self.run(spec, b) for b in BACKENDS}
