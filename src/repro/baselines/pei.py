"""PEI baseline [3]: per-cache-block PIM instructions.

PIM-Enabled Instructions avoid the address-mapping problem entirely: the CPU
sends one command packet per cache block, carrying opcode/operand
information, and the PIM processes that block.  The costs (§II, §V-B):

* the command channel serializes one packet per block — with more than a few
  PIMs per channel the command bus, not DRAM bandwidth, bounds throughput
  ("PEI cannot fully utilize BG-level PIMs due to command bandwidth
  bottleneck");
* CPU cores generate addresses and write B operands into PIM scratchpads
  (no grouping, so every active PIM receives the operand stream);
* reduction also runs on the CPU.
"""

from __future__ import annotations

from repro.core.config import StepStoneConfig
from repro.core.executor import GemmResult, LatencyBreakdown, execute_gemm
from repro.core.gemm import GemmShape
from repro.mapping.xor_mapping import PimLevel, XORAddressMapping

__all__ = ["pei_gemm"]


def pei_gemm(
    config: StepStoneConfig,
    mapping: XORAddressMapping,
    shape: GemmShape,
    level: PimLevel,
    launch_delay_cycles: float = 0.0,
) -> GemmResult:
    """PEI GEMM latency at *level* (Fig. 8's PEI bars).

    Starts from the same DRAM-stream timing as StepStone (the blocks still
    have to be read), then applies the command-bandwidth bound and the
    CPU-side operand/reduction costs.
    """
    base = execute_gemm(
        config, mapping, shape, level, agen="stepstone", flow="echo"
    )
    plan = base.plan
    dma = config.dma

    total_blocks = float(sum(plan.gemm_blocks_per_pim.values()))
    blocks_per_channel = total_blocks / config.channels
    command_cycles = blocks_per_channel * (dma.pei_packet_cycles + launch_delay_cycles)
    # The PIMs cannot run faster than commands arrive.
    gemm_cycles = max(base.breakdown.gemm, command_cycles)

    # Operand distribution: the CPU writes each PIM's B working set into its
    # scratchpad; without block grouping every active PIM needs the rows for
    # the blocks it receives, totalling the full B per "sharing" PIM set.
    chan_bw = dma.bytes_per_cycle_per_channel * config.channels
    b_words = plan.shape.k * plan.shape.n * plan.n_active_pims
    loc_bytes = b_words * config.word_bytes
    localization = (
        loc_bytes / (chan_bw * dma.cpu_efficiency)
        + (loc_bytes / 64.0) * dma.cpu_per_block_overhead_cycles
    )

    breakdown = LatencyBreakdown(
        gemm=gemm_cycles,
        fill_b=base.breakdown.fill_b,
        fill_c=base.breakdown.fill_c,
        drain_c=base.breakdown.drain_c,
        localization=localization,
        reduction=base.breakdown.reduction,
    )
    return GemmResult(
        plan=plan,
        breakdown=breakdown,
        agen="host",
        flow="pei",
        bubble_stall_cycles=max(0.0, command_cycles - base.breakdown.gemm),
        kernel_launches=int(total_blocks),
        pim_dram_blocks=base.pim_dram_blocks,
        offchip_blocks=loc_bytes / 64.0 + base.offchip_blocks,
        simd_mac_ops=base.simd_mac_ops,
        scratchpad_accesses=base.scratchpad_accesses,
    )
