"""The discrete-event simulation substrate under every serving layer.

Bottom of the serving stack: :mod:`repro.serving.engine` (one node),
:mod:`repro.cluster` (static fleets), :mod:`repro.autoscale` (elastic
and heterogeneous fleets) all run on this one kernel, through the one
fleet loop (:mod:`repro.autoscale._loop`) they configure.

* :mod:`~repro.sim.kernel` — :class:`SimClock`, typed :class:`Event`\\ s
  on one queue with an explicit, tested total order (time, then event
  kind priority, then entity id), epoch-batched delivery, and an O(1)
  path for pre-sorted bulk streams;
* :mod:`~repro.sim.metrics` — the shared measurement vocabulary
  (:func:`nearest_rank` percentiles, :func:`window_latencies`,
  :class:`BusyWindow` exact busy-time integration);
* :mod:`~repro.sim.failures` — :class:`FailureTrace` outage schedules
  (scripted or seeded MTBF/MTTR) that inject ``FAIL``/``RECOVER``
  events no pre-kernel loop could express;
* :mod:`~repro.sim.stats` — the streaming statistics core
  (:class:`MetricsRecorder`, :class:`StreamStats`,
  :class:`WindowRing`) every report layer accumulates through, with
  exact ``record="full"`` and flat-memory ``record="streaming"`` modes;
* :mod:`~repro.sim.sweep` — the multiprocess sweep runner
  (:func:`run_sweep`) that fans independent seeded configurations
  across cores with results identical to serial execution.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "failures": ("FailureTrace", "Outage"),
        "kernel": ("DiscreteEventKernel", "Event", "EventKind", "SimClock"),
        "metrics": ("BusyWindow", "nearest_rank", "window_latencies"),
        "stats": (
            "MetricsRecorder",
            "P2Quantile",
            "RecordingModeError",
            "StreamStats",
            "WindowRing",
        ),
        "sweep": ("SweepResult", "run_sweep"),
    },
)
