"""Hardware node specifications for heterogeneous serving fleets.

The paper's headline results (Figs. 6 and 8) are *cross-substrate*
comparisons — StepStone PIM vs. CPU vs. GPU at small batch — and its cost
argument is a datacenter one: which substrate serves a given traffic mix
cheapest?  A :class:`NodeSpec` makes the substrate an explicit, first-class
property of a fleet node so the cluster and autoscale layers can mix them:

* ``backend`` selects the latency model one node charges per batch —
  ``stepstone`` (the §V-B chunked PIM path, with ``cpu``/``pim``/``hybrid``
  dispatch), ``cpu`` (the calibrated Xeon substitute), or ``gpu`` (the
  Titan Xp roofline of Figs. 1 and 7, weights resident in device memory);
* ``memory_bytes`` bounds which model weights the node can host (a GPU's
  device memory is an order of magnitude smaller than a buffered-DIMM
  StepStone socket — placement must know);
* ``hourly_cost`` and the idle/busy power pair turn fleet reports into
  the paper's economics: $/hr for a fleet and J/request for its service.

The default specs (:data:`STEPSTONE_NODE`, :data:`CPU_NODE`,
:data:`GPU_NODE`) are calibrated to public server pricing ratios and TDPs,
not measured invoices — like the CPU latency model, the *ratios* carry the
argument, not the absolute dollars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.baselines.cpu import CpuConfig
from repro.baselines.gpu import GpuConfig, TITAN_XP

__all__ = [
    "BACKENDS",
    "NodeSpec",
    "STEPSTONE_NODE",
    "CPU_NODE",
    "GPU_NODE",
    "DEFAULT_CATALOG",
]

#: Hardware backends a fleet node can be built on.
BACKENDS: Tuple[str, ...] = ("cpu", "gpu", "stepstone")


@dataclass(frozen=True)
class NodeSpec:
    """One node type: hardware backend, capacity, cost, and power.

    Args:
        backend: One of :data:`BACKENDS` — selects the batch-latency model.
        name: Catalog label; defaults to the backend name.
        memory_bytes: Weight capacity (DRAM for cpu/stepstone, device
            memory for gpu) — the placement layer's per-node budget.
        hourly_cost: Machine price in $/hr, the capacity planner's
            objective.
        idle_w: Power floor of the powered-on node, watts.
        busy_w: Power while serving a batch, watts (``>= idle_w``).
        gpu: GPU hardware override for ``backend="gpu"`` (default
            :data:`~repro.baselines.gpu.TITAN_XP`).
        cpu: CPU hardware override for ``backend="cpu"`` (default: the
            engine's shared :class:`~repro.serving.scheduler.BatchServer`
            CPU model).
    """

    backend: str
    name: str = ""
    memory_bytes: float = 128e9
    hourly_cost: float = 1.85
    idle_w: float = 90.0
    busy_w: float = 194.0
    gpu: Optional[GpuConfig] = None
    cpu: Optional[CpuConfig] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if not self.name:
            object.__setattr__(self, "name", self.backend)
        for name in ("memory_bytes", "hourly_cost", "idle_w", "busy_w"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.hourly_cost < 0:
            raise ValueError("hourly_cost must be non-negative")
        if self.idle_w < 0 or self.busy_w < self.idle_w:
            raise ValueError("need 0 <= idle_w <= busy_w")

    @property
    def latency_key(self) -> Tuple:
        """Hashable identity of everything that shapes this spec's latency.

        Two specs sharing a ``latency_key`` are guaranteed the same batch
        latencies, so the engine's memo cache may share entries between
        them; two specs with different hardware never share (the cache-key
        contract of :meth:`OnlineServingEngine.batch_latency`).  Memory,
        cost, and power are deliberately excluded — they do not change
        service time.
        """
        if self.backend == "gpu":
            return ("gpu", self.gpu or TITAN_XP)
        if self.backend == "cpu":
            return ("cpu", self.cpu)
        # StepStone latency comes from the engine's shared BatchServer.
        return ("stepstone",)

    def effective_policy(self, policy: str) -> str:
        """The dispatch policy this node actually runs.

        Args:
            policy: The fleet-level StepStone dispatch policy
                (``cpu``/``pim``/``hybrid``).

        Returns:
            ``policy`` unchanged on a StepStone node; the backend name on
            cpu/gpu nodes, whose hardware admits exactly one dispatch.
        """
        if self.backend == "stepstone":
            return policy
        return self.backend

    def fits(self, weight_bytes: float) -> bool:
        """Whether ``weight_bytes`` of model weights fit in node memory."""
        return weight_bytes <= self.memory_bytes

    def energy_j(self, node_seconds: float, busy_seconds: float) -> float:
        """Joules one node consumes over its lifetime.

        Args:
            node_seconds: Total powered-on (paid) seconds.
            busy_seconds: Seconds of that spent serving batches.

        Returns:
            ``idle_w`` over the idle share plus ``busy_w`` over the busy
            share, in joules.
        """
        idle_s = max(0.0, node_seconds - busy_seconds)
        return idle_s * self.idle_w + min(busy_seconds, node_seconds) * self.busy_w


#: A StepStone socket: buffered DIMMs in main memory, host CPU included.
#: Busy power is the platform floor + the host CPU's active share + ~38 W
#: of DRAM weight streaming (Table II off-chip pJ/bit at 2 channels of
#: DDR4-2400 — the same grounding as
#: :class:`repro.autoscale.report.FleetPowerModel`).
STEPSTONE_NODE = NodeSpec(
    backend="stepstone",
    name="stepstone",
    memory_bytes=128e9,
    hourly_cost=1.85,
    idle_w=90.0,
    busy_w=194.0,
)

#: A plain Xeon server (the measured-CPU substitute): same platform floor,
#: busy power at the socket TDP, slightly cheaper than the StepStone node
#: (no buffered-DIMM premium).
CPU_NODE = NodeSpec(
    backend="cpu",
    name="cpu",
    memory_bytes=128e9,
    hourly_cost=1.60,
    idle_w=90.0,
    busy_w=295.0,
)

#: A Titan Xp host: 12 GB of device memory bounds what it can host, the
#: card's TDP (plus the host's active share) dominates busy power, and the
#: hourly price carries the accelerated-instance premium (~4x the plain
#: host — the low end of public cloud GPU/CPU instance price ratios).
GPU_NODE = NodeSpec(
    backend="gpu",
    name="gpu",
    memory_bytes=TITAN_XP.device_memory_bytes,
    hourly_cost=6.40,
    idle_w=105.0,
    busy_w=420.0,
)

#: The default three-substrate catalog heterogeneous planners search over.
DEFAULT_CATALOG: Tuple[NodeSpec, ...] = (STEPSTONE_NODE, CPU_NODE, GPU_NODE)
