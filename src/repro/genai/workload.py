"""Generative request streams: timestamped prompts with seeded output lengths.

A generative request is not one unit of work — it is ``1 + max_new_tokens``
units revealed over time, and *the server does not know the output length
in advance*.  That asymmetry is what separates the two schedulers this
package compares: a static batcher must provision every slot for the
longest sequence in the batch, a continuous batcher reclaims each slot the
moment its sequence stops.  ``max_new_tokens`` here plays the role of the
hidden EOS position: the workload draws it from a seeded RNG, the engine
discovers it token by token.

Streams come in two shapes:

* :func:`gen_requests` — open-loop Poisson arrivals at a constant rate
  (the single-regime experiments);
* :func:`trace_gen_requests` — arrival times from any
  :class:`~repro.autoscale.traces.RateTrace` (diurnal, flash-crowd, ...)
  via the same seeded Lewis-Shedler thinning the autoscale layer uses,
  with prompt/output lengths layered on deterministically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:
    from repro.autoscale.traces import RateTrace

__all__ = ["GenRequest", "gen_requests", "trace_gen_requests"]


@dataclass(frozen=True)
class GenRequest:
    """One timestamped generation request.

    Args:
        req_id: Caller-chosen id (unique within a stream).
        arrival_s: Arrival instant on the simulated clock.
        prompt_tokens: Context tokens the request arrives with (processed
            in one prefill pass).
        max_new_tokens: Tokens the sequence will emit before stopping —
            drawn by the workload, unknown to the scheduler until emitted.
    """

    req_id: int
    arrival_s: float
    prompt_tokens: int
    max_new_tokens: int

    def __post_init__(self) -> None:
        # Written so NaN fails too: every comparison with NaN is False.
        if not 0 <= self.arrival_s < math.inf:
            raise ValueError(
                f"arrival time must be finite and non-negative, got {self.arrival_s}"
            )
        if self.prompt_tokens <= 0:
            raise ValueError("prompt_tokens must be positive")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")

    @property
    def total_tokens(self) -> int:
        """Worst-case cached footprint: prompt plus every emitted token."""
        return self.prompt_tokens + self.max_new_tokens


def _with_lengths(
    arrivals: List[float],
    prompt_range: Tuple[int, int],
    output_range: Tuple[int, int],
    seed: int,
    start_id: int,
) -> List[GenRequest]:
    """Attach seeded prompt/output lengths to a sorted arrival list."""
    lo_p, hi_p = prompt_range
    lo_o, hi_o = output_range
    if not (0 < lo_p <= hi_p and 0 < lo_o <= hi_o):
        raise ValueError("length ranges must be positive and ordered")
    rng = random.Random(seed)
    return [
        GenRequest(
            req_id=start_id + i,
            arrival_s=t,
            prompt_tokens=rng.randint(lo_p, hi_p),
            max_new_tokens=rng.randint(lo_o, hi_o),
        )
        for i, t in enumerate(arrivals)
    ]


def gen_requests(
    rate_rps: float,
    duration_s: float,
    prompt_range: Tuple[int, int] = (16, 64),
    output_range: Tuple[int, int] = (8, 96),
    seed: int = 0,
    start_id: int = 0,
) -> List[GenRequest]:
    """Open-loop Poisson generation stream with seeded lengths.

    Args:
        rate_rps: Mean arrival rate, sequences per second.
        duration_s: Arrival window.
        prompt_range: Inclusive ``(min, max)`` prompt lengths (uniform).
        output_range: Inclusive ``(min, max)`` output lengths (uniform).
        seed: RNG seed — one seed drives both arrivals and lengths, so
            equal seeds give identical streams.
        start_id: First request id.

    Returns:
        Arrival-ordered requests.
    """
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_rps)
        if t >= duration_s:
            break
        arrivals.append(t)
    return _with_lengths(arrivals, prompt_range, output_range, seed + 1, start_id)


def trace_gen_requests(
    trace: RateTrace,
    duration_s: float,
    prompt_range: Tuple[int, int] = (16, 64),
    output_range: Tuple[int, int] = (8, 96),
    seed: int = 0,
    start_id: int = 0,
) -> List[GenRequest]:
    """Generation stream whose arrival *rate* follows a traffic trace.

    Arrival instants come from the autoscale layer's seeded
    Lewis-Shedler thinning of ``trace`` (so a diurnal generative day and
    a diurnal classification day share arrival statistics); prompt and
    output lengths are layered on top from a derived seed.

    Args:
        trace: The time-varying rate profile.
        duration_s: Arrival window.
        prompt_range: Inclusive prompt-length bounds (uniform).
        output_range: Inclusive output-length bounds (uniform).
        seed: Drives both the thinning and the lengths.
        start_id: First request id.

    Returns:
        Arrival-ordered requests.
    """
    from repro.autoscale.traces import nhpp_requests

    arrivals = [
        r.arrival_s
        for r in nhpp_requests(trace, "gen", duration_s, seed=seed)
    ]
    return _with_lengths(arrivals, prompt_range, output_range, seed + 1, start_id)
