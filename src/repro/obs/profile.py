"""Kernel self-profiling: where a simulation run's *wall* time goes.

``BENCH_sim.json`` shows the hetero fleet loop pushing ~55k events/s
end-to-end while the bare kernel does ~600k — so the ROADMAP claims ~90%
of fleet-loop time is per-event Python churn in the handlers.  That
number was folklore; this module measures it.  A :class:`KernelProfiler`
rides :meth:`~repro.sim.kernel.DiscreteEventKernel.run` and records,
with ``perf_counter`` precision:

* per-:class:`~repro.sim.kernel.EventKind` event counts, batch counts,
  and **handler wall seconds** — handler share vs. kernel share is the
  churn claim, measured.  Only heap handlers are timed: an arrival
  epoch is counted (events, one ARRIVAL batch) but books no handler
  time, in fleet and genai runs alike;
* stream-vs-heap delivery counts — how much of the run rode the O(1)
  arrival stream vs. the O(log n) heap;
* an events/s timeline sampled every N events — throughput over the run,
  not just its mean.

The result is an immutable :class:`KernelProfile`.  Profiling is opt-in
per run: the kernel wraps its handlers once, before its one loop, so
with no profiler attached the disabled cost is one branch per
``run()`` call, not per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.sim.kernel import EventKind

__all__ = ["KernelProfiler", "KernelProfile"]


def _kind_name(kind: int) -> str:
    try:
        return EventKind(kind).name
    except ValueError:
        return f"KIND_{kind}"


class KernelProfiler:
    """Accumulating per-run kernel instrumentation.

    Attach via ``RunObserver(profile=KernelProfiler())``; one profiler
    may observe several kernel runs (a sweep, or an engine warm-up plus
    the measured run) and accumulates across them.

    Args:
        sample_every: Events between timeline samples (each sample is
            one ``(sim_t, wall_s, events)`` point).
    """

    __slots__ = (
        "counts",
        "batches",
        "handler_s",
        "events",
        "wall_s",
        "stream_events",
        "heap_events",
        "runs",
        "sample_every",
        "timeline",
        "_next_sample",
    )

    def __init__(self, sample_every: int = 50_000) -> None:
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        #: Events delivered per kind (int key — the raw EventKind value).
        self.counts: Dict[int, int] = {}
        #: Handler invocations (per-instant batches) per kind.
        self.batches: Dict[int, int] = {}
        #: Wall seconds spent inside each kind's handler.
        self.handler_s: Dict[int, float] = {}
        #: Total events observed across all profiled runs.
        self.events = 0
        #: Total wall seconds inside profiled run loops.
        self.wall_s = 0.0
        #: Events delivered from the O(1) arrival stream.
        self.stream_events = 0
        #: Events delivered from the heap.
        self.heap_events = 0
        #: Kernel runs this profiler observed.
        self.runs = 0
        self.sample_every = int(sample_every)
        #: ``(sim_t, wall_s, events)`` samples, one per ``sample_every``.
        self.timeline: List[tuple] = []
        self._next_sample = self.sample_every

    def __repr__(self) -> str:
        return (
            f"KernelProfiler(events={self.events}, runs={self.runs}, "
            f"wall_s={self.wall_s:.3f})"
        )

    def sample(self, sim_t: float, wall_s: float, events: int) -> None:
        """Record one timeline point (called by the kernel's run loop)."""
        self.timeline.append((sim_t, wall_s, events))
        self._next_sample = events + self.sample_every

    @property
    def next_sample(self) -> int:
        """Event count at which the kernel should take the next sample."""
        return self._next_sample

    def profile(self) -> "KernelProfile":
        """Freeze the accumulated state into a :class:`KernelProfile`."""
        return KernelProfile(
            events=self.events,
            wall_s=self.wall_s,
            counts={_kind_name(k): v for k, v in sorted(self.counts.items())},
            batches={_kind_name(k): v for k, v in sorted(self.batches.items())},
            handler_s={
                _kind_name(k): v for k, v in sorted(self.handler_s.items())
            },
            stream_events=self.stream_events,
            heap_events=self.heap_events,
            runs=self.runs,
            timeline=list(self.timeline),
        )


@dataclass(frozen=True)
class KernelProfile:
    """One frozen self-profile of (one or more) kernel runs."""

    #: Total events delivered.
    events: int
    #: Wall seconds inside the profiled run loops.
    wall_s: float
    #: Events per :class:`~repro.sim.kernel.EventKind` name.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Handler invocations (per-instant batches) per kind name.
    batches: Dict[str, int] = field(default_factory=dict)
    #: Wall seconds inside each kind's handler.
    handler_s: Dict[str, float] = field(default_factory=dict)
    #: Events delivered from the arrival stream.
    stream_events: int = 0
    #: Events delivered from the heap.
    heap_events: int = 0
    #: Kernel runs observed.
    runs: int = 0
    #: ``(sim_t, wall_s, events)`` throughput samples.
    timeline: List[tuple] = field(default_factory=list)

    @property
    def events_per_s(self) -> float:
        """Mean delivered events per wall second (0.0 for an empty run)."""
        if self.wall_s <= 0:
            return 0.0
        return self.events / self.wall_s

    @property
    def handler_total_s(self) -> float:
        """Wall seconds inside handlers, summed over kinds."""
        return sum(self.handler_s.values())

    @property
    def handler_share(self) -> float:
        """Fraction of run-loop wall time spent inside handlers — the
        measured value of the ROADMAP's "per-event Python churn" claim
        (the remainder is the kernel itself: heap/stream merging,
        batching, and clock bookkeeping)."""
        if self.wall_s <= 0:
            return 0.0
        return min(1.0, self.handler_total_s / self.wall_s)

    @property
    def stream_share(self) -> float:
        """Fraction of events delivered from the O(1) arrival stream
        rather than the heap."""
        total = self.stream_events + self.heap_events
        if total <= 0:
            return 0.0
        return self.stream_events / total

    def rows(self) -> List[Dict[str, Any]]:
        """Per-kind breakdown rows (for tables and charts), heaviest
        handler first."""
        out = []
        for name in sorted(
            self.counts, key=lambda n: -self.handler_s.get(n, 0.0)
        ):
            h = self.handler_s.get(name, 0.0)
            out.append(
                {
                    "kind": name,
                    "events": self.counts[name],
                    "batches": self.batches.get(name, 0),
                    "handler_ms": h * 1e3,
                    "share_pct": 100.0 * h / self.wall_s if self.wall_s > 0 else 0.0,
                }
            )
        return out

    def summary(self) -> str:
        """Multi-line human-readable digest of the profile."""
        lines = [
            f"kernel profile: {self.events} events in {self.wall_s:.3f}s wall "
            f"({self.events_per_s:,.0f} events/s, {self.runs} run(s))",
            f"  handler share {self.handler_share * 100:.1f}% "
            f"(kernel {100 - self.handler_share * 100:.1f}%), "
            f"stream-delivered {self.stream_share * 100:.1f}%",
        ]
        for r in self.rows():
            lines.append(
                f"  {r['kind']:>11}: {r['events']:>9} events "
                f"{r['batches']:>9} batches  {r['handler_ms']:>9.1f} ms "
                f"({r['share_pct']:.1f}%)"
            )
        return "\n".join(lines)
