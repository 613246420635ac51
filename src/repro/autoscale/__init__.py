"""Trace-driven time-varying traffic and elastic fleet scaling.

The layer above :mod:`repro.cluster` for the load real services see (§I:
inference behind "diverse internet services" is diurnal and bursty, not a
stationary Poisson stream):

* :mod:`~repro.autoscale.traces` — deterministic request-rate traces
  (diurnal, MMPP on-off bursts, flash-crowd spikes, ramps, file replay)
  and seeded non-homogeneous Poisson stream generation via thinning;
* :mod:`~repro.autoscale.elastic` — the elastic fleet simulator: nodes
  provision (weight-copy delay), drain, and retire mid-run under a
  control loop;
* :mod:`~repro.autoscale.policies` — autoscaler policies behind one
  protocol: reactive target-utilization, windowed p99-SLO feedback with
  floor memory, predictive trace lookahead, and the static baseline;
* :mod:`~repro.autoscale.report` — cost/SLO accounting: node-seconds,
  Table II-grounded fleet energy, windowed goodput/violation timelines;
* :mod:`~repro.autoscale.hetero` — heterogeneous elasticity: one pool
  per :class:`~repro.serving.NodeSpec` (e.g. StepStone baseline + GPU
  burst), scaled independently on one clock, with per-pool $ accounting.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "elastic": ("ElasticCluster", "NodeState"),
        "hetero": (
            "BaselineBurstPolicy",
            "HeteroAutoscaleReport",
            "HeteroElasticCluster",
            "NodePool",
            "StaticMixPolicy",
        ),
        "policies": (
            "AutoscalePolicy",
            "ControlObservation",
            "HeteroAutoscalePolicy",
            "PerPoolPolicy",
            "PredictiveTracePolicy",
            "SLOFeedbackPolicy",
            "StaticPolicy",
            "TargetUtilizationPolicy",
            "node_capacity_rps",
        ),
        "report": ("AutoscaleReport", "ControlSample", "FleetPowerModel", "NodeLifetime"),
        "traces": (
            "ConstantTrace",
            "DiurnalTrace",
            "OnOffTrace",
            "RampTrace",
            "RateTrace",
            "ReplayTrace",
            "ScaledTrace",
            "SpikeTrace",
            "mix_request_stream",
            "mix_requests",
            "nhpp_requests",
            "nhpp_stream",
        ),
    },
)
