"""Concurrent CPU/PIM execution: traffic generators + command-bus contention."""

from repro._exports import lazy_exports

__all__ = [
    "CpuWorkload",
    "SPEC_MIX",
    "SPEC_WORKLOADS",
    "TrafficGenerator",
    "ColocationResult",
    "CommandBusModel",
    "colocation_speedup",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "traffic": ("CpuWorkload", "SPEC_MIX", "SPEC_WORKLOADS", "TrafficGenerator"),
        "contention": ("ColocationResult", "CommandBusModel", "colocation_speedup"),
    },
)
