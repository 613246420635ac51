"""DDR4 DRAM timing substrate.

Two engines with one set of timing parameters (Table II, DDR4-2400R):

- :mod:`repro.dram.controller` — an exact command-level FR-FCFS simulator in
  the style of Ramulator [24]: per-bank state machines, tCCD_S/L cadence,
  tFAW/tRRD activation throttling, read/write turnarounds, and refresh.
- :mod:`repro.dram.stream` — a vectorized timing model for the in-order
  block streams produced by a single PIM unit; used by the GEMM executor for
  multi-million-block traces and validated against the command-level engine.
"""

from repro._exports import lazy_exports

__all__ = [
    "Command",
    "CommandType",
    "Request",
    "DDR4Timing",
    "DDR4_2400R",
    "Bank",
    "BankTimingState",
    "RankState",
    "ChannelController",
    "ControllerStats",
    "StreamAccess",
    "StreamStats",
    "stream_cycles",
    "sequential_stream_cycles",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "commands": ("Command", "CommandType", "Request"),
        "timing": ("DDR4Timing", "DDR4_2400R"),
        "bank": ("Bank", "BankTimingState", "RankState"),
        "controller": ("ChannelController", "ControllerStats"),
        "stream": ("StreamAccess", "StreamStats", "stream_cycles", "sequential_stream_cycles"),
    },
)
