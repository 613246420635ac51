"""Roofline models for Figs. 1 and 7."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "model": ("Roofline", "RooflinePoint", "gemm_operational_intensity"),
    },
)
