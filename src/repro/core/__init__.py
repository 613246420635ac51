"""StepStone PIM core: configs, AGEN, GEMM execution flow, and executor."""

from repro._exports import lazy_exports

__all__ = [
    "DMA_ENGINE",
    "PimUnitConfig",
    "StepStoneConfig",
    "STEPSTONE_BG",
    "STEPSTONE_CH",
    "STEPSTONE_DV",
    "pim_config",
    "ExactStepStoneAGEN",
    "agen_supported",
    "naive_iterations",
    "stepstone_iteration_counts",
    "stepstone_iterations",
    "GemmPlan",
    "GemmShape",
    "plan_gemm",
    "GemmResult",
    "LatencyBreakdown",
    "execute_gemm",
    "functional_gemm",
    "PimChoice",
    "choose_execution",
    "StepStoneSystem",
    "FusedGemmResult",
    "fused_execute",
    "pow2_grid",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": (
            "DMA_ENGINE",
            "PimUnitConfig",
            "StepStoneConfig",
            "STEPSTONE_BG",
            "STEPSTONE_CH",
            "STEPSTONE_DV",
            "pim_config",
        ),
        "agen": (
            "ExactStepStoneAGEN",
            "agen_supported",
            "naive_iterations",
            "stepstone_iteration_counts",
            "stepstone_iterations",
        ),
        "gemm": ("GemmPlan", "GemmShape", "plan_gemm"),
        "executor": ("GemmResult", "LatencyBreakdown", "execute_gemm"),
        "functional": ("functional_gemm",),
        "scheduler": ("PimChoice", "choose_execution"),
        "system": ("StepStoneSystem",),
        "fusion": ("FusedGemmResult", "fused_execute", "pow2_grid"),
    },
)
