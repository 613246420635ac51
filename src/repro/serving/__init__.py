"""Query serving on a StepStone system: batch splitting, hybrid dispatch,
request-level online serving on a simulated clock, and the hardware node
specs (`NodeSpec`) heterogeneous fleets are built from."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "nodespec": (
            "BACKENDS",
            "CPU_NODE",
            "DEFAULT_CATALOG",
            "GPU_NODE",
            "STEPSTONE_NODE",
            "NodeSpec",
        ),
        "engine": (
            "POLICIES",
            "CompletedRequest",
            "FailedRequest",
            "OnlineServingEngine",
            "RejectedRequest",
            "Request",
            "ServingReport",
            "merge_streams",
            "poisson_requests",
            "slo_admit",
            "uniform_requests",
        ),
        "scheduler": ("BatchServer", "HybridSplit", "ServingPoint"),
    },
)
