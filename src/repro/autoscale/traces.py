"""Time-varying request-rate traces and their arrival-stream generators.

The single-node and fleet experiments drive everything with *stationary*
Poisson streams; real datacenter inference traffic (§I: "DL inference
queries play an important role in diverse internet services") is diurnal
and bursty.  A :class:`RateTrace` is a deterministic intensity function
``rate_at(t)`` in requests/second; :func:`nhpp_requests` turns any trace
into a seeded non-homogeneous Poisson arrival stream via Lewis-Shedler
thinning, emitting the same :class:`~repro.serving.engine.Request` objects
the serving engine and cluster simulator already consume — so every
existing layer runs unmodified under non-stationary load.

Trace zoo:

* :class:`ConstantTrace` — the stationary anchor (the capacity-planner
  cross-check runs on it);
* :class:`DiurnalTrace` — raised-cosine day/night swing between a trough
  and a peak rate;
* :class:`OnOffTrace` — a seeded two-state Markov-modulated Poisson
  process (MMPP): exponential dwell times alternating a base and a burst
  rate;
* :class:`SpikeTrace` — a flash crowd: linear rise to a spike, then
  exponential decay back to base;
* :class:`RampTrace` — linear growth/decay between two rates;
* :class:`ReplayTrace` — piecewise-linear replay of external ``(t, rate)``
  samples, loadable from a text file.

All traces are immutable after construction and all randomness is seeded,
so identical seeds reproduce identical streams bit-for-bit.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator, List, Mapping, Optional, Tuple, Union

from repro.serving.engine import Request

__all__ = [
    "RateTrace",
    "ConstantTrace",
    "DiurnalTrace",
    "OnOffTrace",
    "SpikeTrace",
    "RampTrace",
    "ReplayTrace",
    "ScaledTrace",
    "nhpp_requests",
    "nhpp_stream",
    "mix_requests",
    "mix_request_stream",
]


def _require_finite(trace: "RateTrace") -> None:
    """Reject NaN and infinite float parameters of a dataclass trace (NaN
    passes every ordered check, and an infinite one never finishes
    thinning or state draws)."""
    for f in fields(trace):
        value = getattr(trace, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


class RateTrace:
    """A deterministic request-rate intensity function (req/s over time)."""

    def rate_at(self, t: float) -> float:
        """Instantaneous offered rate at simulated second ``t``."""
        raise NotImplementedError

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """The maximum of ``rate_at`` over ``[start_s, end_s]``.

        Doubles as the thinning envelope for :func:`nhpp_requests` (over
        the whole stream window) and as the provisioning target of the
        predictive autoscaler (over its lookahead window) — so it must be
        *windowed*: a global bound would make lookahead provision for the
        all-time peak forever.
        """
        raise NotImplementedError

    def mean_rate(self, start_s: float, end_s: float, samples: int = 256) -> float:
        """Trapezoidal estimate of the average rate over a window."""
        if end_s <= start_s:
            return 0.0
        step = (end_s - start_s) / samples
        pts = [self.rate_at(start_s + i * step) for i in range(samples + 1)]
        return (sum(pts) - 0.5 * (pts[0] + pts[-1])) / samples

    def scaled(self, factor: float) -> "ScaledTrace":
        """This trace with every rate multiplied by ``factor`` (mix shares)."""
        return ScaledTrace(self, factor)


@dataclass(frozen=True)
class ScaledTrace(RateTrace):
    """A trace multiplied by a constant share (per-model mix splitting)."""

    base: RateTrace
    factor: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.factor < 0:
            raise ValueError("scale factor must be non-negative")

    def rate_at(self, t: float) -> float:
        """The base trace's rate at ``t`` times the scale factor."""
        return self.factor * self.base.rate_at(t)

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """The base trace's windowed peak times the scale factor."""
        return self.factor * self.base.peak_rate(start_s, end_s)


@dataclass(frozen=True)
class ConstantTrace(RateTrace):
    """Stationary load — the bridge back to the static capacity planner."""

    rate_rps: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.rate_rps < 0:
            raise ValueError("rate must be non-negative")

    def rate_at(self, t: float) -> float:
        """The constant rate, at every ``t``."""
        return self.rate_rps

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """The constant rate, over every window."""
        return self.rate_rps


@dataclass(frozen=True)
class DiurnalTrace(RateTrace):
    """Raised-cosine diurnal swing: trough at ``phase_s``, peak half a
    period later.  ``rate(t) = trough + (peak-trough) * (1 - cos(2pi
    (t-phase)/period)) / 2`` — starts the "day" at the trough so an
    autoscaled fleet grows into the peak and shrinks back."""

    trough_rps: float
    peak_rps: float
    period_s: float
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.trough_rps < 0 or self.peak_rps < self.trough_rps:
            raise ValueError("need 0 <= trough_rps <= peak_rps")
        if self.period_s <= 0:
            raise ValueError("period must be positive")

    def rate_at(self, t: float) -> float:
        """The raised-cosine rate at ``t``."""
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * (t - self.phase_s) / self.period_s))
        return self.trough_rps + (self.peak_rps - self.trough_rps) * swing

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """Exact windowed maximum of the diurnal curve."""
        # Summits sit at phase + (k + 1/2) * period; if the window holds
        # one the max is the peak, otherwise the curve is monotone between
        # extrema and an endpoint wins.
        u0 = (start_s - self.phase_s) / self.period_s - 0.5
        u1 = (end_s - self.phase_s) / self.period_s - 0.5
        if math.floor(u1) >= math.ceil(u0):
            return self.peak_rps
        return max(self.rate_at(start_s), self.rate_at(end_s))


@dataclass
class OnOffTrace(RateTrace):
    """Seeded two-state MMPP: the rate alternates between ``base_rps`` and
    ``burst_rps`` with exponentially distributed dwell times.

    The state-switch times are drawn once at construction (covering
    ``horizon_s``), so ``rate_at`` is a pure function afterwards — the same
    trace object answers lookahead queries and thinning consistently.
    Beyond the horizon the trace holds its last state.
    """

    base_rps: float
    burst_rps: float
    mean_base_s: float
    mean_burst_s: float
    horizon_s: float
    seed: int = 0
    #: Ascending switch instants; even intervals (before switch 0) are base.
    _switches: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.base_rps < 0 or self.burst_rps < 0:
            raise ValueError("rates must be non-negative")
        if self.mean_base_s <= 0 or self.mean_burst_s <= 0:
            raise ValueError("mean dwell times must be positive")
        if self.horizon_s <= 0:
            raise ValueError("horizon must be positive")
        rng = random.Random(self.seed)
        t, burst = 0.0, False
        switches: List[float] = []
        while t < self.horizon_s:
            t += rng.expovariate(1.0 / (self.mean_burst_s if burst else self.mean_base_s))
            switches.append(t)
            burst = not burst
        self._switches = switches

    def rate_at(self, t: float) -> float:
        """The current MMPP state's rate (base or burst) at ``t``."""
        burst = bisect.bisect_right(self._switches, t) % 2 == 1
        return self.burst_rps if burst else self.base_rps

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """Windowed maximum over the pre-drawn state switches."""
        # Both states appear in the window iff a switch falls inside it.
        if bisect.bisect_right(self._switches, end_s) != bisect.bisect_right(
            self._switches, start_s
        ):
            return max(self.base_rps, self.burst_rps)
        return self.rate_at(start_s)


@dataclass(frozen=True)
class SpikeTrace(RateTrace):
    """Flash crowd: base load, a linear rise to ``spike_rps`` starting at
    ``spike_at_s`` over ``rise_s`` seconds, then exponential decay back
    toward base with time constant ``decay_s``."""

    base_rps: float
    spike_rps: float
    spike_at_s: float
    rise_s: float = 0.5
    decay_s: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.base_rps < 0 or self.spike_rps < self.base_rps:
            raise ValueError("need 0 <= base_rps <= spike_rps")
        if self.rise_s <= 0 or self.decay_s <= 0:
            raise ValueError("rise and decay constants must be positive")

    def rate_at(self, t: float) -> float:
        """Base, linear rise, or exponential-decay rate at ``t``."""
        if t < self.spike_at_s:
            return self.base_rps
        lift = self.spike_rps - self.base_rps
        if t < self.spike_at_s + self.rise_s:
            return self.base_rps + lift * (t - self.spike_at_s) / self.rise_s
        dt = t - self.spike_at_s - self.rise_s
        return self.base_rps + lift * math.exp(-dt / self.decay_s)

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """Windowed maximum of the unimodal flash-crowd curve."""
        # Unimodal with its summit at the end of the rise.
        summit = self.spike_at_s + self.rise_s
        peak_t = min(max(summit, start_s), end_s)
        return max(self.rate_at(start_s), self.rate_at(end_s), self.rate_at(peak_t))


@dataclass(frozen=True)
class RampTrace(RateTrace):
    """Linear rate change from ``start_rps`` to ``end_rps`` over
    ``ramp_s`` seconds, holding ``end_rps`` afterwards."""

    start_rps: float
    end_rps: float
    ramp_s: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.start_rps < 0 or self.end_rps < 0:
            raise ValueError("rates must be non-negative")
        if self.ramp_s <= 0:
            raise ValueError("ramp duration must be positive")

    def rate_at(self, t: float) -> float:
        """The linearly interpolated ramp rate at ``t``."""
        if t <= 0:
            return self.start_rps
        if t >= self.ramp_s:
            return self.end_rps
        return self.start_rps + (self.end_rps - self.start_rps) * t / self.ramp_s

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """Windowed maximum (an endpoint — the ramp is monotone)."""
        return max(self.rate_at(start_s), self.rate_at(end_s))


@dataclass(frozen=True)
class ReplayTrace(RateTrace):
    """Piecewise-linear replay of external ``(t, rate)`` samples.

    Before the first sample the trace holds the first rate; after the last
    sample, the last rate.  Samples must be strictly increasing in time.
    """

    points: Tuple[Tuple[float, float], ...]
    #: Sample instants, precomputed once — ``rate_at`` runs per thinning
    #: candidate, so rebuilding this list per call would make replayed
    #: streams O(candidates x samples).
    _times: Tuple[float, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("replay trace needs at least one (t, rate) sample")
        if not all(math.isfinite(v) for point in self.points for v in point):
            raise ValueError("sample times and rates must be finite")
        times = tuple(t for t, _ in self.points)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        if any(r < 0 for _, r in self.points):
            raise ValueError("sampled rates must be non-negative")
        object.__setattr__(self, "_times", times)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ReplayTrace":
        """Parse a trace file: one ``t rate`` pair per line (whitespace or
        comma separated); blank lines and ``#`` comments are skipped."""
        points: List[Tuple[float, float]] = []
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 't rate', got {raw!r}"
                )
            points.append((float(parts[0]), float(parts[1])))
        return cls(points=tuple(points))

    def rate_at(self, t: float) -> float:
        """Piecewise-linear interpolation of the samples at ``t``."""
        i = bisect.bisect_right(self._times, t)
        if i == 0:
            return self.points[0][1]
        if i == len(self.points):
            return self.points[-1][1]
        (t0, r0), (t1, r1) = self.points[i - 1], self.points[i]
        return r0 + (r1 - r0) * (t - t0) / (t1 - t0)

    def peak_rate(self, start_s: float, end_s: float) -> float:
        """Windowed maximum over interior samples and the window edges."""
        inside = [
            r for t, r in self.points if start_s <= t <= end_s
        ]
        edges = [self.rate_at(start_s), self.rate_at(end_s)]
        return max(inside + edges)


# ---------------------------------------------------------------------- #
# Non-homogeneous Poisson stream generation (thinning)
# ---------------------------------------------------------------------- #


def nhpp_requests(
    trace: RateTrace,
    model: str,
    duration_s: float,
    seed: int = 0,
    slo_s: Optional[float] = None,
    start_id: int = 0,
) -> List[Request]:
    """Seeded non-homogeneous Poisson arrivals following ``trace``.

    Lewis-Shedler thinning: draw a homogeneous Poisson stream at the
    trace's peak rate over ``[0, duration_s)`` and keep each arrival at
    ``t`` with probability ``rate_at(t) / peak`` — exact for any bounded
    intensity, and deterministic per seed.  A zero-rate trace yields an
    empty stream.
    """
    return list(
        nhpp_stream(
            trace,
            model,
            duration_s=duration_s,
            seed=seed,
            slo_s=slo_s,
            start_id=start_id,
        )
    )


def nhpp_stream(
    trace: RateTrace,
    model: str,
    duration_s: float,
    seed: int = 0,
    slo_s: Optional[float] = None,
    start_id: int = 0,
) -> Iterator[Request]:
    """Lazy generator form of :func:`nhpp_requests` — identical output.

    Yields the exact same seeded request sequence as
    :func:`nhpp_requests` (which is now a thin ``list()`` wrapper around
    this) without materializing it: a day-long 10M-request trace costs
    one request of memory at a time.  Feed it to
    :meth:`repro.sim.kernel.DiscreteEventKernel.run` as ``arrivals`` or
    to an elastic run's ``presorted=True`` path.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    envelope = trace.peak_rate(0.0, duration_s)
    if envelope < 0:
        raise ValueError("peak rate must be non-negative")
    if envelope == 0:
        return
    rng = random.Random(seed)
    t = 0.0
    i = start_id
    while True:
        t += rng.expovariate(envelope)
        if t >= duration_s:
            return
        if rng.random() * envelope <= trace.rate_at(t):
            yield Request(req_id=i, model=model, arrival_s=t, slo_s=slo_s)
            i += 1


def mix_requests(
    trace: RateTrace,
    mix: Mapping[str, float],
    duration_s: float,
    seed: int = 0,
    slos: Optional[Mapping[str, Optional[float]]] = None,
    id_stride: int = 1_000_000,
) -> List[Request]:
    """One merged stream of a traffic mix riding a shared rate trace.

    ``mix`` maps model name to traffic share (normalized internally); each
    model gets an independent thinned stream of the trace scaled by its
    share (seeded ``seed + i`` in sorted-model order, ids offset by
    ``id_stride`` — the :class:`~repro.cluster.planner.CapacityPlanner`
    stream convention), then everything merges arrival-ordered.
    """
    return list(
        mix_request_stream(
            trace, mix, duration_s=duration_s, seed=seed, slos=slos, id_stride=id_stride
        )
    )


def mix_request_stream(
    trace: RateTrace,
    mix: Mapping[str, float],
    duration_s: float,
    seed: int = 0,
    slos: Optional[Mapping[str, Optional[float]]] = None,
    id_stride: int = 1_000_000,
) -> Iterator[Request]:
    """Lazy generator form of :func:`mix_requests` (which is a
    ``list()`` of this).

    The per-model streams are :func:`nhpp_stream` generators merged
    incrementally by ``(arrival_s, req_id)`` with :func:`heapq.merge`,
    so only one pending request per model is held in memory.  Ids are
    disjoint across models, so the merge key is unique and the order is
    that of sorting the concatenated streams.  Validation of the mix is
    eager; each model's stream validates, in sorted-model order, when
    the merge first reads it.
    """
    if not mix:
        raise ValueError("traffic mix must name at least one model")
    total = float(sum(mix.values()))
    if total <= 0 or any(w < 0 for w in mix.values()):
        raise ValueError("traffic shares must be non-negative, sum > 0")
    slos = slos or {}
    streams: List[Iterator[Request]] = []
    for i, (model, share) in enumerate(sorted(mix.items())):
        if share <= 0:
            continue
        streams.append(
            nhpp_stream(
                trace.scaled(share / total),
                model,
                duration_s=duration_s,
                seed=seed + i,
                slo_s=slos.get(model),
                start_id=i * id_stride,
            )
        )
    return heapq.merge(*streams, key=lambda r: (r.arrival_s, r.req_id))
