"""Observability for the serving loops: spans, telemetry, self-profiling.

Three orthogonal instruments behind one optional hook:

* :class:`~repro.obs.trace.SpanRecorder` — per-request lifecycle spans
  (Chrome trace export, text waterfall, exact phase accounting);
* :class:`~repro.obs.telemetry.Telemetry` — a process-wide bus of
  counters/gauges/histograms with scoped labels;
* :class:`~repro.obs.profile.KernelProfiler` — per-event-kind counts and
  handler wall time inside the discrete-event kernel.

A :class:`RunObserver` bundles any subset and threads through every run
loop — ``OnlineServingEngine.run(..., obs=...)``, ``Cluster.run``,
``ElasticCluster.run``, ``HeteroElasticCluster.run``,
``GenerativeEngine.run`` — and down into
:meth:`~repro.sim.kernel.DiscreteEventKernel.run`.  The default
(``obs=None``) leaves every loop on its original code path: golden
traces stay bit-identical and the disabled cost is one branch per run,
not per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro._exports import lazy_exports

if TYPE_CHECKING:
    from repro.obs.profile import KernelProfiler
    from repro.obs.telemetry import Telemetry
    from repro.obs.trace import SpanRecorder

__all__ = [
    "Span",
    "SpanRecorder",
    "validate_chrome_trace",
    "Telemetry",
    "ScopedTelemetry",
    "BUS",
    "KernelProfiler",
    "KernelProfile",
    "RunObserver",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "trace": ("Span", "SpanRecorder", "validate_chrome_trace"),
        "telemetry": ("Telemetry", "ScopedTelemetry", "BUS"),
        "profile": ("KernelProfiler", "KernelProfile"),
    },
)


@dataclass
class RunObserver:
    """The optional ``obs=`` argument every run loop accepts.

    Any field may be ``None``; each engine checks per instrument, so a
    trace-only observer costs nothing in profiling and vice versa.
    """

    #: Span sink for request lifecycle tracing.
    spans: Optional[SpanRecorder] = None
    #: Kernel self-profiler (per-kind counts + handler wall time).
    profile: Optional[KernelProfiler] = None
    #: Telemetry bus the loops report run counts to.
    telemetry: Optional[Telemetry] = None

    @classmethod
    def tracing(cls, cap: int = 100_000) -> "RunObserver":
        """An observer that records spans only.

        Args:
            cap: Span ring capacity (see :class:`SpanRecorder`).
        """
        from repro.obs.trace import SpanRecorder

        return cls(spans=SpanRecorder(cap=cap))

    @classmethod
    def profiling(cls, sample_every: int = 50_000) -> "RunObserver":
        """An observer that self-profiles the kernel only.

        Args:
            sample_every: Events between timeline samples.
        """
        from repro.obs.profile import KernelProfiler

        return cls(profile=KernelProfiler(sample_every=sample_every))

    @classmethod
    def full(cls, cap: int = 100_000) -> "RunObserver":
        """Spans + profiler + a fresh enabled telemetry bus.

        Args:
            cap: Span ring capacity.
        """
        from repro.obs.profile import KernelProfiler
        from repro.obs.telemetry import Telemetry
        from repro.obs.trace import SpanRecorder

        return cls(
            spans=SpanRecorder(cap=cap),
            profile=KernelProfiler(),
            telemetry=Telemetry(enabled=True),
        )
