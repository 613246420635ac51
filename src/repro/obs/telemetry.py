"""A process-wide telemetry bus: named counters, gauges, and histograms.

The report classes aggregate *per run*; telemetry aggregates *across*
runs and layers — one bus can watch a whole sweep, a fleet and its
nodes, or an engine and the kernel underneath it, keyed by metric name
plus a label set (``node=3, pool="gpu", backend="stepstone"``).  The
primitives are PR 6's streaming core: histograms ride
:class:`~repro.sim.stats.StreamStats` (exact count/mean/min/max plus the
:class:`~repro.sim.stats.QuantileSketch` percentile estimate), so a
histogram of 10M observations stays O(1) in memory.

Disabled buses are free: every write method returns after one attribute
check, allocates nothing, and touches no dict — the engines can leave
telemetry calls inline on hot paths without a measurable disabled cost.
The module-level :data:`BUS` is the process-wide default, disabled until
:meth:`Telemetry.enable` is called.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.sim.stats import StreamStats

__all__ = ["Telemetry", "ScopedTelemetry", "BUS", "record_fast_fallback"]

#: Canonical metric-key type: (name, sorted (label, value) pairs).
MetricKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _key(name: str, labels: Dict[str, Any]) -> MetricKey:
    return (name, tuple(sorted(labels.items())))


class Telemetry:
    """One bus of named counters/gauges/histograms with scoped labels."""

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        """Create a bus.

        Args:
            enabled: When ``False`` every write is a no-op costing one
                attribute check (flip later with :meth:`enable`).
        """
        self.enabled = enabled
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, StreamStats] = {}

    def __repr__(self) -> str:
        return (
            f"Telemetry(enabled={self.enabled}, counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def enable(self) -> "Telemetry":
        """Turn the bus on; returns ``self`` for chaining."""
        self.enabled = True
        return self

    def disable(self) -> "Telemetry":
        """Turn the bus off (writes become one-attribute-check no-ops)."""
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop every series (counters, gauges, histograms)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to the counter ``name`` under ``labels``."""
        if not self.enabled:
            return
        k = _key(name, labels)
        self._counters[k] = self._counters.get(k, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge ``name`` under ``labels`` to ``value``."""
        if not self.enabled:
            return
        self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Add one sample to the histogram ``name`` under ``labels``."""
        if not self.enabled:
            return
        k = _key(name, labels)
        h = self._histograms.get(k)
        if h is None:
            h = self._histograms[k] = StreamStats()
        h.add(value)

    def record_counts(self, scope: str, **counts: float) -> None:
        """Bump one counter per keyword under a ``scope`` label — the
        one-call form the run loops use at finalize time.

        Args:
            scope: Value of the ``scope`` label (``"engine"``,
                ``"cluster"``, ``"genai"``, ...).
            **counts: Counter name -> increment.
        """
        if not self.enabled:
            return
        for name, value in counts.items():
            self.inc(name, value, scope=scope)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def counter(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0.0 when never incremented)."""
        return self._counters.get(_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: Any) -> float:
        """Last value set on a gauge (NaN when never set)."""
        return self._gauges.get(_key(name, labels), float("nan"))

    def histogram(self, name: str, **labels: Any) -> StreamStats:
        """The histogram series (an empty one when never observed)."""
        return self._histograms.get(_key(name, labels), StreamStats())

    def scoped(self, **labels: Any) -> "ScopedTelemetry":
        """A view that stamps ``labels`` onto every write.

        Args:
            **labels: Labels merged into each call (call-site labels win
                on collision).

        Returns:
            A :class:`ScopedTelemetry` bound to this bus.
        """
        return ScopedTelemetry(self, labels)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every series as plain data (for dumps and assertions).

        Returns:
            ``{"counters": {...}, "gauges": {...}, "histograms": {...}}``
            keyed by ``name{label=value,...}`` strings; histogram values
            are ``{count, mean, min, max}`` dicts.
        """

        def fmt(k: MetricKey) -> str:
            name, labels = k
            if not labels:
                return name
            inner = ",".join(f"{lk}={lv}" for lk, lv in labels)
            return f"{name}{{{inner}}}"

        return {
            "counters": {fmt(k): v for k, v in sorted(self._counters.items())},
            "gauges": {fmt(k): v for k, v in sorted(self._gauges.items())},
            "histograms": {
                fmt(k): {
                    "count": h.count,
                    "mean": h.mean,
                    "min": h.min,
                    "max": h.max,
                }
                for k, h in sorted(self._histograms.items())
            },
        }


class ScopedTelemetry:
    """A label-bound view of a :class:`Telemetry` bus.

    Produced by :meth:`Telemetry.scoped`; every write delegates to the
    underlying bus with the bound labels merged in, so a node can hold
    ``bus.scoped(node=3, pool="gpu")`` and write unqualified names.
    """

    __slots__ = ("bus", "labels")

    def __init__(self, bus: Telemetry, labels: Dict[str, Any]) -> None:
        """Bind ``labels`` over ``bus`` (use :meth:`Telemetry.scoped`)."""
        self.bus = bus
        self.labels = dict(labels)

    def __repr__(self) -> str:
        return f"ScopedTelemetry({self.labels})"

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Counter increment with the bound labels merged in."""
        self.bus.inc(name, value, **{**self.labels, **labels})

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Gauge set with the bound labels merged in."""
        self.bus.gauge(name, value, **{**self.labels, **labels})

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Histogram sample with the bound labels merged in."""
        self.bus.observe(name, value, **{**self.labels, **labels})


#: The process-wide default bus — disabled until someone calls
#: ``BUS.enable()``, so importing this module costs nothing.
BUS = Telemetry(enabled=False)


def record_fast_fallback(loop: str, reason: str, obs: Any = None) -> None:
    """Count one declined fast-path engagement, labeled by cause.

    Genai's gate (``GenerativeEngine.run(fast=True)``) calls this with
    the *first* condition that disqualified the macro-stepped path
    (``"spans"`` or ``"profiler"``) — so a sweep that meant to run fast
    but silently fell back is visible as a labeled counter instead of a
    mystery slowdown.  The fleet loops have no gate: they always take
    the one drain.  The increment lands on the process-wide :data:`BUS`
    and, when the run carries its own telemetry, on that bus too.

    Args:
        loop: The run loop that fell back (``"genai"``).
        reason: The first failing gate condition.
        obs: The run's optional :class:`~repro.obs.RunObserver`.
    """
    BUS.inc("fast_fallback", loop=loop, reason=reason)
    bus = getattr(obs, "telemetry", None) if obs is not None else None
    if bus is not None and bus is not BUS:
        bus.inc("fast_fallback", loop=loop, reason=reason)
