"""The event-at-a-time fleet loop, kept as the oracle for the drain.

Every fleet run (``OnlineServingEngine.run``, ``Cluster``,
``ElasticCluster``, ``HeteroElasticCluster``) takes one event loop,
:func:`repro.sim.fast.drain`, which replays arrivals as equal-time
epochs from struct-of-arrays chunks instead of per-request heap
events.  :func:`reference_drain` has ``drain``'s signature but does it
the plain way: every arrival becomes an ARRIVAL event on the kernel
(preloaded from a list, or pulled lazily from any other iterable) and
``DiscreteEventKernel.run`` delivers each equal-time batch of them to
``on_epoch``.  :func:`oracle_run` swaps it in for one run, so the
differential harnesses compare every fleet configuration against it.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

from repro.sim import fast as fastmod
from repro.sim.kernel import Event, EventKind


def reference_drain(kernel, arrivals, on_epoch, handlers, profiler=None):
    """``drain``, one ARRIVAL event per request through ``kernel.run``."""
    events = (
        Event(r.arrival_s, EventKind.ARRIVAL, i, payload=r)
        for i, r in enumerate(arrivals)
    )
    if isinstance(arrivals, list):
        kernel.preload(events)
    else:
        kernel.preload_stream(events)
    handlers = dict(handlers)
    handlers[int(EventKind.ARRIVAL)] = lambda now, evs: on_epoch(
        now, [e.payload for e in evs]
    )
    obs = None if profiler is None else SimpleNamespace(profile=profiler)
    return kernel.run(handlers, obs=obs)


@contextmanager
def oracle_drain():
    """Route every fleet run inside the block through the oracle.

    Yields the list of drains run so far, so a caller can assert that
    the oracle really ran (fast == slow would be vacuous otherwise).
    """
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return reference_drain(*args, **kwargs)

    saved = fastmod.drain
    fastmod.drain = spy
    try:
        yield calls
    finally:
        fastmod.drain = saved


def oracle_run(run, *args, **kwargs):
    """``run(*args, **kwargs)`` on the oracle loop; asserts it ran once."""
    with oracle_drain() as calls:
        out = run(*args, **kwargs)
    assert len(calls) == 1, f"expected one oracle drain, saw {len(calls)}"
    return out
