"""High-level facade: a configured StepStone PIM system.

`StepStoneSystem` bundles a DRAM geometry, an address mapping, the Table II
PIM unit configurations, and the timing model into one object with ergonomic
entry points — the interface examples and downstream users work against.

Example
-------
>>> from repro import StepStoneSystem, PimLevel
>>> sys_ = StepStoneSystem.default()
>>> r = sys_.run_gemm(m=1024, k=4096, n=4, level=PimLevel.BANKGROUP)
>>> r.breakdown.total > 0
True
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.config import PimUnitConfig, StepStoneConfig
from repro.core.executor import GemmResult, execute_gemm
from repro.core.gemm import GemmShape
from repro.core.scheduler import PimChoice, choose_execution
from repro.mapping.analysis import FootprintAnalysis
from repro.mapping.presets import make_skylake
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

if TYPE_CHECKING:
    import numpy as np

    from repro.core.functional import FunctionalStats

__all__ = ["StepStoneSystem"]


class StepStoneSystem:
    """A complete StepStone-PIM-enabled main-memory system."""

    def __init__(
        self,
        config: Optional[StepStoneConfig] = None,
        mapping: Optional[XORAddressMapping] = None,
    ) -> None:
        self.config = config or StepStoneConfig.default()
        self.mapping = mapping or make_skylake(self.config.geometry)
        if self.mapping.geometry != self.config.geometry:
            raise ValueError("mapping and config geometries disagree")

    @staticmethod
    def default() -> "StepStoneSystem":
        """Table II baseline: DDR4-2400R, Skylake mapping."""
        return StepStoneSystem()

    # ------------------------------------------------------------------ #
    # Analysis and execution
    # ------------------------------------------------------------------ #

    def analyze(
        self, m: int, k: int, level: PimLevel, pinned_id_bits: int = 0
    ) -> FootprintAnalysis:
        """Block-group analysis of an M x K weight matrix at *level*."""
        shape = GemmShape(m, k, 1).padded(
            word_bytes=self.config.word_bytes,
            block_bytes=self.mapping.geometry.block_bytes,
        )
        return FootprintAnalysis(
            self.mapping,
            level,
            shape.m,
            shape.k,
            word_bytes=self.config.word_bytes,
            pinned_id_bits=pinned_id_bits,
        )

    def run_gemm(
        self,
        m: int,
        k: int,
        n: int,
        level: Optional[PimLevel] = None,
        agen: str = "stepstone",
        flow: str = "stepstone",
        pinned_id_bits: int = 0,
        unit: Optional[PimUnitConfig] = None,
    ) -> GemmResult:
        """Execute one GEMM; ``level=None`` lets the scheduler choose."""
        shape = GemmShape(m, k, n)
        if level is None:
            return choose_execution(
                self.config, self.mapping, shape, agen=agen, flow=flow
            ).result
        return execute_gemm(
            self.config,
            self.mapping,
            shape,
            level,
            agen=agen,
            flow=flow,
            pinned_id_bits=pinned_id_bits,
            unit=unit,
        )

    def choose(self, m: int, k: int, n: int, **kwargs) -> PimChoice:
        """Scheduler decision for one GEMM (level + subsetting)."""
        return choose_execution(self.config, self.mapping, GemmShape(m, k, n), **kwargs)

    def compare_levels(
        self,
        m: int,
        k: int,
        n: int,
        levels: Sequence[PimLevel] = (
            PimLevel.BANKGROUP,
            PimLevel.DEVICE,
            PimLevel.CHANNEL,
        ),
    ) -> Dict[PimLevel, GemmResult]:
        """Run the same GEMM at several PIM levels (Fig. 6 style)."""
        return {lvl: self.run_gemm(m, k, n, level=lvl) for lvl in levels}

    # ------------------------------------------------------------------ #
    # Functional path
    # ------------------------------------------------------------------ #

    def run_gemm_functional(
        self,
        a: np.ndarray,
        b: np.ndarray,
        level: PimLevel = PimLevel.BANKGROUP,
        pinned_id_bits: int = 0,
    ) -> tuple[np.ndarray, FunctionalStats]:
        """Value-level distributed GEMM (validation path, §IV)."""
        from repro.core.functional import functional_gemm

        return functional_gemm(
            self.mapping, level, a, b, pinned_id_bits=pinned_id_bits
        )

    def describe(self) -> str:
        g = self.config.geometry
        lines = [
            f"StepStone system: {g.channels} ch x {g.ranks_per_channel} ranks x "
            f"{g.bankgroups_per_rank} BGs x {g.banks_per_bankgroup} banks, "
            f"{g.capacity_bytes / 2**30:.0f} GiB",
            self.mapping.describe(),
        ]
        for lvl, unit in self.config.units.items():
            lines.append(
                f"  {lvl.short}: {self.config.addressable_units(lvl)} units x "
                f"{unit.slices_per_unit} slices, {unit.simd_width}-wide, "
                f"{unit.scratchpad_bytes // 1024} KiB scratchpad"
            )
        return "\n".join(lines)
