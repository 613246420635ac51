"""Comparison models: CPU, GPU, PEI, and Chopim (naive + enhanced)."""

from repro._exports import lazy_exports

__all__ = [
    "CpuConfig",
    "CpuGemmModel",
    "XEON_8280",
    "GpuConfig",
    "GpuGemmModel",
    "TITAN_XP",
    "pei_gemm",
    "echo_gemm",
    "ncho_gemm",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cpu": ("CpuConfig", "CpuGemmModel", "XEON_8280"),
        "gpu": ("GpuConfig", "GpuGemmModel", "TITAN_XP"),
        "pei": ("pei_gemm",),
        "chopim": ("echo_gemm", "ncho_gemm"),
    },
)
