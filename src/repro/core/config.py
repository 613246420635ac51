"""StepStone PIM configurations (Table II).

Three integration levels share one microarchitecture (Fig. 3b): SIMD lanes,
a scratchpad split between B and C buffers, control logic, and the AGEN unit.
They differ in placement and therefore in visible bandwidth:

- **StepStone-BG** — one unit per bank group *per x8 device*; the rank's 8
  devices operate in lockstep on the same addresses, each seeing its own
  8-byte slice of every 64 B cache block.  16 addressable units
  (2 ch x 2 ranks x 4 BGs), each backed by 8 device-level slices.
  Same-bank-group cadence: tCCD_L.
- **StepStone-DV** — one unit per data-buffer chip on the DIMM (8 per rank,
  again 8 B slices); 4 addressable units (ranks).  Cadence tCCD_S.
- **StepStone-CH** — one unit in the channel controller; sees whole cache
  blocks.  2 addressable units.  Cadence tCCD_S.

"Addressable" units are what the XOR mapping selects between (the PIM ID);
"slices" are the lockstep per-device datapaths behind one addressable unit.
Each slice keeps a private C partial, so the reduction volume scales with
``addressable x slices`` (§III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict

from repro.dram.timing import DDR4Timing, DDR4_2400R
from repro.mapping.xor_mapping import DRAMGeometry, PimLevel

__all__ = [
    "PimUnitConfig",
    "DmaEngineConfig",
    "StepStoneConfig",
    "STEPSTONE_BG",
    "STEPSTONE_DV",
    "STEPSTONE_CH",
    "DMA_ENGINE",
    "pim_config",
]


@dataclass(frozen=True)
class PimUnitConfig:
    """One PIM level's microarchitecture parameters.

    ``simd_width`` counts FLOPs per cycle per slice (a fused MAC is 2 FLOPs,
    so an 8-wide unit retires 4 MACs per cycle).  ``scratchpad_bytes`` is per
    slice.  ``pipeline_depth`` is the AGEN + access pipeline (§III-A).
    """

    level: PimLevel
    simd_width: int
    scratchpad_bytes: int
    slices_per_unit: int
    clock_hz: float = 1.2e9
    pipeline_depth: int = 20
    area_mm2: float = 0.0

    def __post_init__(self) -> None:
        if self.simd_width <= 0 or self.scratchpad_bytes <= 0:
            raise ValueError("simd_width and scratchpad_bytes must be positive")
        if self.slices_per_unit not in (1, 2, 4, 8, 16):
            raise ValueError("slices_per_unit must be a small power of two")

    @property
    def words_per_block_per_slice(self) -> int:
        """fp32 words of each 64 B cache block seen by one slice."""
        return 16 // self.slices_per_unit

    def compute_cycles_per_block(self, n: int) -> float:
        """SIMD cycles for one slice to process its share of one A block.

        Each of the slice's words needs ``n`` MACs (2n FLOPs) against the
        batch dimension.
        """
        flops = 2.0 * n * self.words_per_block_per_slice
        return flops / self.simd_width

    def cadence(self, timing: DDR4Timing) -> int:
        """Best-case CAS-to-CAS spacing of this level's demand stream."""
        if self.level is PimLevel.BANKGROUP:
            return timing.tCCDL  # confined to one bank group
        return timing.tCCDS

    def relaxed(self, simd_scale: int = 2, scratchpad_scale: int = 8) -> "PimUnitConfig":
        """The Fig. 6 '*' configuration: relaxed area constraints."""
        return replace(
            self,
            simd_width=self.simd_width * simd_scale,
            scratchpad_bytes=self.scratchpad_bytes * scratchpad_scale,
        )

    def with_scratchpad(self, scratchpad_bytes: int) -> "PimUnitConfig":
        return replace(self, scratchpad_bytes=scratchpad_bytes)


@dataclass(frozen=True)
class DmaEngineConfig:
    """Replication/reduction engine at the host-side PIM controller (§III-A).

    The engine streams at channel bandwidth with a small per-block overhead;
    when localization/reduction instead runs on CPU cores (eCHO / nCHO), the
    effective bandwidth drops and a per-block instruction cost appears —
    that difference is the paper's "up to an additional 40%" (§I).
    """

    bytes_per_cycle_per_channel: float = 16.0  # 64 B / tBL
    per_block_overhead_cycles: float = 0.25  # table lookup / reorg
    cpu_efficiency: float = 0.5  # CPU-driven loc/red efficiency
    cpu_per_block_overhead_cycles: float = 2.0
    kernel_launch_cycles: float = 16.0  # command packets per kernel launch
    pei_packet_cycles: float = 4.0  # command-bus slots per PEI instruction


@dataclass(frozen=True)
class StepStoneConfig:
    """Full-system configuration: geometry + timing + per-level units."""

    geometry: DRAMGeometry
    timing: DDR4Timing
    units: Dict[PimLevel, PimUnitConfig]
    dma: DmaEngineConfig
    word_bytes: int = 4

    @property
    def channels(self) -> int:
        return self.geometry.channels

    def unit(self, level: PimLevel) -> PimUnitConfig:
        return self.units[level]

    @cached_property
    def hardware_key(self) -> str:
        """Value identity of this configuration, for process-wide memo keys.

        The canonical text of every field, units in level order: equal
        configurations share it and different ones never do.  It is a
        value, so unlike ``id()`` it is never reused by a later object and
        keeps its meaning across processes.  Configurations are treated as
        immutable (:meth:`with_unit` returns a new one).
        """
        units = sorted(self.units.items(), key=lambda kv: kv[0].value)
        return repr((self.geometry, self.timing, units, self.dma, self.word_bytes))

    def addressable_units(self, level: PimLevel) -> int:
        return self.geometry.num_pims(level)

    def with_unit(self, cfg: PimUnitConfig) -> "StepStoneConfig":
        units = dict(self.units)
        units[cfg.level] = cfg
        return replace(self, units=units)

    @staticmethod
    def default() -> "StepStoneConfig":
        return StepStoneConfig(
            geometry=DRAMGeometry(),
            timing=DDR4_2400R,
            units={
                PimLevel.BANKGROUP: STEPSTONE_BG,
                PimLevel.DEVICE: STEPSTONE_DV,
                PimLevel.CHANNEL: STEPSTONE_CH,
            },
            dma=DMA_ENGINE,
        )


#: Table II: 8-wide SIMD, 8 KB scratchpad per device, 4 units per device.
STEPSTONE_BG = PimUnitConfig(
    level=PimLevel.BANKGROUP,
    simd_width=8,
    scratchpad_bytes=8 * 1024,
    slices_per_unit=8,
    area_mm2=0.15,
)

#: Table II: 32-wide SIMD, 32 KB scratchpad per buffer chip.
STEPSTONE_DV = PimUnitConfig(
    level=PimLevel.DEVICE,
    simd_width=32,
    scratchpad_bytes=32 * 1024,
    slices_per_unit=8,
    area_mm2=1.2,
)

#: Table II: 256-wide SIMD, 256 KB scratchpad per channel.
STEPSTONE_CH = PimUnitConfig(
    level=PimLevel.CHANNEL,
    simd_width=256,
    scratchpad_bytes=256 * 1024,
    slices_per_unit=1,
    area_mm2=4.8,
)

DMA_ENGINE = DmaEngineConfig()


def pim_config(level: PimLevel) -> PimUnitConfig:
    """Table II configuration for *level*."""
    return {
        PimLevel.BANKGROUP: STEPSTONE_BG,
        PimLevel.DEVICE: STEPSTONE_DV,
        PimLevel.CHANNEL: STEPSTONE_CH,
    }[level]
