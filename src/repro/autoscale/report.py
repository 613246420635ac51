"""Cost and SLO accounting for one elastic-fleet run.

The static fleet's report answers "what latency at what throughput"; the
elastic question adds "at what *cost*".  :class:`AutoscaleReport` keeps
the per-node serving reports (same objects the cluster layer produces),
the node lifecycle records, and the control-tick timeline, and derives:

* **node-seconds** — machine time paid for, provisioning included (a node
  copying weights is a node on the bill);
* **energy** — via :class:`FleetPowerModel`, which grounds the busy-power
  increment in the paper's Table II energy constants
  (:data:`repro.energy.model.ENERGY_TABLE2`): a busy StepStone node
  streams weights from DRAM at channel bandwidth, so its marginal power is
  the streamed bits/s times the off-chip pJ/bit, plus the host CPU's
  active share;
* **SLO timelines** — windowed goodput and p99 per control interval
  (reusing the engine's shared nearest-rank/window helpers), and the
  fraction of offered requests shed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.cluster.fleet import _FleetReport
from repro.serving.engine import FailedRequest, ServingReport
from repro.sim.stats import MetricsRecorder

if TYPE_CHECKING:
    from repro.energy.model import EnergyTable

__all__ = [
    "NodeLifetime",
    "ControlSample",
    "FleetPowerModel",
    "AutoscaleReport",
]


@dataclass
class NodeLifetime:
    """One node's lifecycle timestamps (NaN-free: None = never happened)."""

    node_id: int
    #: When the node was ordered (starts paying) — 0.0 for the initial fleet.
    ordered_s: float
    #: When it finished provisioning and joined the routing set.
    ready_s: Optional[float] = None
    #: When it stopped taking new requests.
    drain_s: Optional[float] = None
    #: When it finished its backlog and left the fleet.
    retired_s: Optional[float] = None

    def seconds(self, sim_end_s: float) -> float:
        """Paid machine time: ordered to retired (or to the end of the run)."""
        end = self.retired_s if self.retired_s is not None else sim_end_s
        return max(0.0, end - self.ordered_s)


@dataclass(frozen=True)
class ControlSample:
    """One control tick of the autoscale timeline."""

    t: float
    active: int
    provisioning: int
    draining: int
    desired: int
    arrivals: int
    completions: int
    rejections: int
    window_p99_s: float
    utilization: float
    backlog: int
    failed: int = 0

    def as_row(self, interval_s: float) -> Dict[str, Any]:
        """A chart/table row (rates in req/s, p99 in ms)."""
        return {
            "t_s": round(self.t, 6),
            "nodes": self.active,
            "provisioning": self.provisioning,
            "failed": self.failed,
            "offered_rps": self.arrivals / interval_s if interval_s > 0 else 0.0,
            "goodput_rps": self.completions / interval_s if interval_s > 0 else 0.0,
            "p99_ms": self.window_p99_s * 1e3,
            "util": self.utilization,
        }


def _energy_table2() -> EnergyTable:
    # Imported on first use: a serving run never prices energy.
    from repro.energy.model import ENERGY_TABLE2

    return ENERGY_TABLE2


@dataclass(frozen=True)
class FleetPowerModel:
    """Per-node power for fleet energy accounting.

    ``idle_w`` is the platform floor of a powered server.  The busy
    increment is split into the host CPU's active share (``cpu_active_w``
    — the hybrid policy keeps the CPU computing alongside the PIM sweep)
    and the DRAM streaming power, derived from the Table II energy
    constants: ``stream_gbps`` of weight traffic at the off-chip pJ/bit
    (every StepStone level at or above the device crosses the I/O pins;
    Fig. 14's in-device rate differs by ~2x, which is noise next to the
    platform floor).
    """

    idle_w: float = 90.0
    cpu_active_w: float = 65.0
    #: Streamed weight bandwidth while serving: 2 channels of DDR4-2400.
    stream_gbps: float = 38.4
    table: EnergyTable = field(default_factory=_energy_table2)

    @property
    def dram_stream_w(self) -> float:
        """Watts of DRAM traffic at ``stream_gbps`` per Table II."""
        return self.stream_gbps * 1e9 * 8 * self.table.off_chip_pj_per_bit * 1e-12

    @classmethod
    def from_spec(cls, spec) -> "FleetPowerModel":
        """A power model matching one :class:`~repro.serving.NodeSpec`.

        Args:
            spec: The node spec whose ``idle_w``/``busy_w`` to mirror (the
                busy increment lands in ``cpu_active_w``; no separate DRAM
                stream term, since the spec's busy watts already include
                its substrate's streaming power).

        Returns:
            A :class:`FleetPowerModel` with the spec's idle/busy watts.
        """
        return cls(
            idle_w=spec.idle_w,
            cpu_active_w=spec.busy_w - spec.idle_w,
            stream_gbps=0.0,
        )

    @property
    def busy_w(self) -> float:
        """Total watts while serving a batch."""
        return self.idle_w + self.cpu_active_w + self.dram_stream_w

    def energy_j(self, node_seconds: float, busy_seconds: float) -> float:
        """Joules for a fleet that existed ``node_seconds`` and served
        batches for ``busy_seconds`` of them."""
        idle_s = max(0.0, node_seconds - busy_seconds)
        return idle_s * self.idle_w + busy_seconds * self.busy_w


@dataclass
class AutoscaleReport(_FleetReport):
    """Outcome of one elastic run: serving quality plus machine cost.

    In ``record="full"`` runs per-request records are reachable through
    the node reports and statistics are exact; in ``record="streaming"``
    runs the ``stats`` recorder (parent of every node recorder the run
    created) answers run-wide percentiles from sketches and the
    per-request list properties raise
    :class:`~repro.sim.stats.RecordingModeError`.  The serving-quality
    queries (``served``, ``p99_s``, ``goodput_rps``, ...) are the ones
    :class:`~repro.cluster.fleet.ClusterReport` answers.
    """

    policy: str
    autoscaler: str
    control_interval_s: float
    node_reports: Dict[int, ServingReport] = field(default_factory=dict)
    lifetimes: Dict[int, NodeLifetime] = field(default_factory=dict)
    samples: List[ControlSample] = field(default_factory=list)
    node_busy_s: Dict[int, float] = field(default_factory=dict)
    sim_end_s: float = 0.0
    last_arrival_s: float = 0.0
    #: Arrivals no routable node could take (failure injection); kept
    #: only in full-recording runs (streaming runs count them instead).
    dropped: List[FailedRequest] = field(default_factory=list)
    #: Unrouted-arrival drops counted without records (streaming runs).
    n_dropped: int = 0
    #: Kernel events this run processed (simulator diagnostics).
    events_processed: int = 0
    #: The run-wide recorder of a streaming run (``None`` on full runs).
    stats: Optional[MetricsRecorder] = None

    def _nodes(self):
        return self.node_reports.values()

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered requests rejected at admission."""
        return self.rejected_count / self.offered if self.offered else 0.0

    # ------------------------------------------------------------------ #
    # Cost
    # ------------------------------------------------------------------ #

    @property
    def node_seconds(self) -> float:
        """Total machine time paid, provisioning included."""
        return sum(
            life.seconds(self.sim_end_s) for life in self.lifetimes.values()
        )

    @property
    def busy_seconds(self) -> float:
        """Seconds of the paid machine time spent serving batches."""
        return sum(self.node_busy_s.values())

    @property
    def mean_fleet_size(self) -> float:
        """Average paid nodes over the run (node-seconds / horizon)."""
        if self.sim_end_s <= 0:
            return 0.0
        return self.node_seconds / self.sim_end_s

    @property
    def peak_fleet_size(self) -> int:
        """Largest owned fleet (active + provisioning) at any tick."""
        return max((s.active + s.provisioning for s in self.samples), default=0)

    def energy_j(self, power: Optional[FleetPowerModel] = None) -> float:
        """Fleet energy under a per-node power model (defaults grounded in
        the Table II constants — see :class:`FleetPowerModel`)."""
        return (power or FleetPowerModel()).energy_j(
            self.node_seconds, self.busy_seconds
        )

    # ------------------------------------------------------------------ #
    # Timelines
    # ------------------------------------------------------------------ #

    def timeline_rows(self) -> List[Dict[str, Any]]:
        """Chart rows: one per control tick (the ``timeline`` chart kind)."""
        return [s.as_row(self.control_interval_s) for s in self.samples]

    def violation_fraction(self, p99_slo_s: float) -> float:
        """Fraction of control windows whose windowed p99 broke the SLO
        (windows that completed nothing don't count either way)."""
        scored = [s for s in self.samples if s.window_p99_s == s.window_p99_s]
        if not scored:
            return 0.0
        bad = sum(1 for s in scored if s.window_p99_s > p99_slo_s)
        return bad / len(scored)

    def converged_nodes(self, tail_fraction: float = 0.25) -> int:
        """The fleet size held longest over the trailing window of the
        arrival horizon — "where the autoscaler settled".

        Counts active + provisioning (owned nodes) per sample over the last
        ``tail_fraction`` of the offered window; ties break toward the
        *later* count, so a clean final plateau wins.
        """
        if not 0 < tail_fraction <= 1:
            raise ValueError("tail_fraction must be in (0, 1]")
        horizon = self.last_arrival_s or self.sim_end_s
        cutoff = horizon * (1.0 - tail_fraction)
        tail = [s for s in self.samples if s.t >= cutoff] or self.samples
        if not tail:
            return 0
        dwell: Dict[int, float] = {}
        latest: Dict[int, float] = {}
        for s in tail:
            fleet = s.active + s.provisioning
            dwell[fleet] = dwell.get(fleet, 0.0) + 1.0
            latest[fleet] = s.t
        return max(dwell, key=lambda n: (dwell[n], latest[n]))

    def summary(self) -> str:
        """One-line outcome: counts, tail, rate, node-seconds, energy."""
        p99 = self.p99_s
        p99_txt = f"{p99 * 1e3:.2f} ms" if p99 == p99 else "n/a"
        return (
            f"{self.autoscaler}/{self.policy}: {self.served} served, "
            f"{self.rejected_count} rejected | p99 {p99_txt} | "
            f"{self.goodput_rps:.0f} req/s | "
            f"{self.node_seconds:.1f} node-s "
            f"(mean {self.mean_fleet_size:.2f}, peak {self.peak_fleet_size}), "
            f"{self.energy_j() / 1e3:.2f} kJ"
        )
