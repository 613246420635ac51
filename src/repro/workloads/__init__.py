"""Workload definitions: Table I GEMM shapes and parameter sweeps."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "gemm_specs": (
            "DEFAULT_WEIGHT_SHAPE",
            "TABLE1_GEMMS",
            "Table1Entry",
            "batch_sweep",
            "aspect_ratio_sweep",
        ),
    },
)
