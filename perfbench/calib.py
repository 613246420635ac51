"""Samples the host's speed while a child runs.

The host is shared.  A busy neighbour slows every instruction of a run,
in bursts of under a second to minutes; no process is descheduled, so
CPU time slows with wall time.  A :class:`SpeedSampler` therefore times
a short fixed reference loop every ``INTERVAL_S`` of wall time, from a
timer signal, while the child works.  The benchmark scales the child's
timings by how fast the loop ran around them (see README.md, "Host-speed
sampling").

The loop is pure standard-library Python in the style of the simulator:
attribute and dict traffic over a small working set, float arithmetic
and heap operations.  It imports nothing from ``src/``, so no change to
the library can move it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

#: Iterations of one sample: about 2 ms on a quiet 2-vCPU Xeon VM.
UNIT_ITERS = 1_500
#: Entries in the working set's table (about 0.5 MB of objects).
TABLE = 1 << 12
#: Wall seconds between samples: the sampler costs about 2% of a run.
INTERVAL_S = 0.1


class _Slot:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 0.0
        self.hits = 0

    def bump(self, x: float) -> float:
        self.hits += 1
        self.value = 0.75 * self.value + 0.25 * x
        return self.value


def _unit(table: dict, ring: list) -> float:
    heap: list = []
    acc = 0.0
    k = 1
    n = len(ring)
    for i in range(UNIT_ITERS):
        k = (k * 1103515245 + 12345) & 0x7FFFFFFF
        slot = table[k & (TABLE - 1)]
        acc += slot.bump((k >> 8) * 1e-6) / (1 + (i & 7))
        ring[i % n] = (acc, slot.key)
        heapq.heappush(heap, (slot.value, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


class SpeedSampler:
    """Times one reference unit every ``INTERVAL_S`` seconds of wall time.

    ``samples`` holds ``(at, seconds)`` pairs: the ``perf_counter`` stamp
    at which a unit started and how long it took.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self._table = {i: _Slot(i) for i in range(TABLE)}
        self._ring = [None] * 1024
        _unit(self._table, self._ring)

    def _sample(self, signum=None, frame=None) -> None:
        # A collection of the child's heap must not land inside a unit.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _unit(self._table, self._ring)
        self.samples.append((t0, time.perf_counter() - t0))
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
