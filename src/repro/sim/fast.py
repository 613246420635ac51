"""The fleet loop's counted entry into the kernel's one event loop.

Every fleet run (the single-node engine and every fleet simulator, see
:mod:`repro.autoscale._loop`) replays its arrivals through
:meth:`~repro.sim.kernel.DiscreteEventKernel.run`: arrivals as
equal-time epochs read from the stream, everything else from the heap.
The loop itself lives in the kernel; what stays here is what callers
outside ``src/`` read by name:

* :data:`FAST_RUNS` and :func:`count_run`, the run counter benchmarks
  snapshot around a run to show the fleet loop engaged;
* :func:`drain`, the fleet loop's entry point, so a traced run books the
  fleet loop under its own span, apart from a genai run's ``kernel.run``.

``tests/fleet_oracle.py`` keeps the event-at-a-time loop (one ARRIVAL
event per request) as the oracle: the differential harnesses run every
fleet configuration on both and compare the reports, and
``tests/test_event_order.py`` compares the two loops' delivery order
directly under random interleavings.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List

from repro.sim.kernel import DiscreteEventKernel

__all__ = [
    "FAST_RUNS",
    "count_run",
    "drain",
]

#: Fleet runs since import (every fleet run takes :func:`drain`);
#: benchmarks snapshot it around a run to show the fleet loop engaged.
FAST_RUNS = 0


def count_run() -> None:
    """Bump :data:`FAST_RUNS` (called once per fleet run)."""
    global FAST_RUNS
    FAST_RUNS += 1


def drain(
    kernel: DiscreteEventKernel,
    arrivals: Iterable[Any],
    on_epoch: Callable[[float, List[Any]], None],
    handlers: Dict[int, Callable],
    profiler=None,
) -> float:
    """Count one fleet run, then run ``kernel`` on ``arrivals``.

    Args:
        kernel: The run's kernel.
        arrivals: Requests in arrival order: a list, or any iterable,
            which is read lazily.
        on_epoch: Callback for one equal-time arrival span.
        handlers: Heap handlers by ``int(EventKind)``.
        profiler: Optional :class:`~repro.obs.KernelProfiler`.

    Returns:
        The kernel clock after the run.
    """
    count_run()
    return kernel.run(
        handlers, arrivals=arrivals, on_epoch=on_epoch, profiler=profiler
    )
