"""Shared measurement helpers for every simulation report.

One percentile definition, one windowing rule, one busy-time integration
— so the single-node :class:`~repro.serving.engine.ServingReport`, the
fleet's ``ClusterReport``, and the autoscaler's windowed timelines all
report comparable numbers.  They belong to the simulation substrate,
below every serving and fleet layer, which import them from here.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

__all__ = ["nearest_rank", "window_latencies", "BusyWindow"]


def nearest_rank(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (NaN when empty).

    Args:
        sorted_vals: Values in ascending order.
        q: Percentile in (0, 100].

    Returns:
        The nearest-rank percentile, or NaN for an empty sequence.

    Raises:
        ValueError: If ``q`` is outside (0, 100].
    """
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if not sorted_vals:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def window_latencies(
    completed: Iterable, start_s: float, end_s: float
) -> List[float]:
    """Sorted latencies of completions that *finished* in ``[start_s, end_s)``.

    Anchoring the window on finish time (not arrival) is what a live
    autoscaler can actually observe at ``end_s``: a request still in
    flight has no latency yet.  An empty or inverted window yields ``[]``
    (its percentile is NaN), matching "no signal this interval".

    Args:
        completed: Objects with ``latency_s`` and ``finish_s`` attributes
            (any layer's completed-request records).
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).

    Returns:
        Ascending latencies of the window's completions.
    """
    return sorted(
        c.latency_s for c in completed if start_s <= c.finish_s < end_s
    )


class BusyWindow:
    """Exact busy-seconds of one server across successive windows.

    A node credits a batch's full service time to ``busy_s`` at dispatch;
    a windowed observer must un-credit the part of the running batch that
    falls *past* the window edge and re-credit it once that window
    arrives.  Both elastic fleets carried this overhang bookkeeping as
    paired counters per node; this object is that accounting, stated
    once.
    """

    __slots__ = ("_total_prev", "_overhang_prev")

    def __init__(self) -> None:
        self._total_prev = 0.0
        self._overhang_prev = 0.0

    def observe(
        self, busy_total_s: float, busy_until_s: float, in_flight: bool, end_s: float
    ) -> float:
        """Busy seconds inside the window ending at ``end_s``.

        Args:
            busy_total_s: The server's cumulative credited busy seconds.
            busy_until_s: When its running batch finishes (if any).
            in_flight: Whether a batch is running at ``end_s``.
            end_s: The window's end instant.

        Returns:
            Busy seconds that actually fell inside this window: the
            credit gained since the previous call, minus the running
            batch's overhang past ``end_s``, plus the previously
            subtracted overhang that landed in this window.
        """
        overhang = max(0.0, busy_until_s - end_s) if in_flight else 0.0
        out = busy_total_s - self._total_prev - overhang + self._overhang_prev
        self._total_prev = busy_total_s
        self._overhang_prev = overhang
        return out
