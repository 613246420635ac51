"""StepStone PIM — reproduction of "Accelerating Bandwidth-Bound Deep
Learning Inference with Main-Memory Accelerators" (Cho, Jung, Erez; SC 2021).

Public API highlights
---------------------
- :mod:`repro.mapping` — XOR-based DRAM address mappings and block-group analysis.
- :mod:`repro.dram` — DDR4 command-level simulator and vectorized stream timing.
- :mod:`repro.core` — StepStone PIM: AGEN, GEMM execution flow, latency executor.
- :mod:`repro.baselines` — CPU / GPU / PEI / Chopim comparison models.
- :mod:`repro.models` — DLRM / BERT / GPT2 / XLM end-to-end inference.
- :mod:`repro.experiments` — one runner per paper table/figure.

Quickstart::

    from repro import StepStoneSystem, PimLevel

    sys_ = StepStoneSystem.default()
    result = sys_.run_gemm(m=1024, k=4096, n=4, level=PimLevel.BANKGROUP)
    print(result.breakdown)
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "PimLevel",
    "XORAddressMapping",
    "mapping_by_id",
    "StepStoneSystem",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "mapping.xor_mapping": ("PimLevel", "XORAddressMapping"),
        "mapping.presets": ("mapping_by_id",),
        "core.system": ("StepStoneSystem",),
    },
)
