"""Multi-node fleet serving on simulated StepStone nodes.

The paper frames StepStone PIM as a datacenter substrate: cheap bandwidth
per node that a provider deploys as a *fleet*.  This package adds the layer
above :mod:`repro.serving` — many nodes on one shared simulated clock:

* :mod:`~repro.cluster.placement` — replicated, memory-capacity-aware
  assignment of model weights to nodes;
* :mod:`~repro.cluster.router` — pluggable request routing (round-robin,
  join-shortest-queue, model affinity with replica spillover);
* :mod:`~repro.cluster.node` — one StepStone node: queue, FIFO per-model
  batching, SLO admission, and the per-node dispatch policy;
* :mod:`~repro.cluster.fleet` — the discrete-event fleet simulator and its
  aggregated :class:`~repro.cluster.fleet.ClusterReport`;
* :mod:`~repro.cluster.planner` — capacity planning: the minimum node
  count sustaining a target load at a p99 SLO, and the heterogeneous
  cost-minimizing search (`HeteroCapacityPlanner`) over mixed
  CPU/GPU/StepStone fleets.

Nodes need not be StepStone: every node carries a
:class:`~repro.serving.NodeSpec` (backend, memory, $/hr, power), and an
all-StepStone spec list reproduces the homogeneous fleet request for
request.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "fleet": ("Cluster", "ClusterReport"),
        "node": ("ClusterNode",),
        "placement": ("DEFAULT_NODE_CAPACITY_BYTES", "ModelPlacement", "PlacementError"),
        "planner": (
            "CapacityPlan",
            "CapacityPlanner",
            "HeteroCapacityPlan",
            "HeteroCapacityPlanner",
        ),
        "router": (
            "ROUTER_POLICIES",
            "AffinityRouter",
            "BackendAffinityRouter",
            "LeastLoadedRouter",
            "RoundRobinRouter",
            "Router",
            "make_router",
        ),
    },
)
