"""Request-level online serving engine on a simulated clock.

The batch policies in :mod:`repro.serving.scheduler` answer "how fast is one
batch"; this module answers the paper's *online* question (§V-A: throughput
under a latency constraint, §I: the CPU stays free for concurrent work):
given a stream of timestamped inference requests, what latency distribution
and sustained throughput does each dispatch policy deliver?

The engine is a deterministic discrete-event simulator — the one-node
configuration of the fleet loop (:mod:`repro.autoscale._loop`):

* requests arrive on a simulated clock (Poisson or uniform streams, seeded);
* while the memory system is busy serving one batch, later arrivals queue;
* when it frees up, the engine forms the next batch FIFO from the oldest
  pending request's model (batches never mix models), capped at
  ``max_batch`` requests;
* requests that can no longer meet their latency SLO — queueing delay plus
  the predicted batch service time — are rejected at admission, shrinking
  the batch until every admitted request fits its SLO;
* the batch dispatches under one of three policies: ``cpu`` (all GEMMs on
  the measured-CPU model), ``pim`` (StepStone chunked splitting, §V-B), or
  ``hybrid`` (the per-GEMM concurrent CPU+PIM split of
  :meth:`~repro.serving.scheduler.BatchServer.hybrid_split`).

Batch service time composes per-GEMM latencies across a model's invocations
(via :func:`repro.models.layers.pow2_partition`, like the Fig. 8 engine) and
adds the model's CPU-resident ops; everything is memoized so long streams
cost O(requests), not O(requests x GEMMs).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.gpu import GpuGemmModel
from repro.core.gemm import GemmShape
from repro.models.inference import all_models
from repro.models.layers import ModelSpec, pow2_partition
from repro.serving.nodespec import STEPSTONE_NODE, NodeSpec
from repro.serving.scheduler import BatchServer, _check_batch

# Back-compat re-exports: these helpers moved to the simulation substrate
# (`repro.sim.metrics`) but remain importable from here, where every
# pre-kernel caller found them.
from repro.sim.metrics import nearest_rank, window_latencies
from repro.sim.stats import MetricsRecorder

__all__ = [
    "POLICIES",
    "Request",
    "CompletedRequest",
    "RejectedRequest",
    "FailedRequest",
    "ServingReport",
    "OnlineServingEngine",
    "slo_admit",
    "nearest_rank",
    "window_latencies",
    "poisson_requests",
    "uniform_requests",
    "merge_streams",
]

#: Dispatch policies understood by :meth:`OnlineServingEngine.run`.
POLICIES: Tuple[str, ...] = ("cpu", "pim", "hybrid")


def _check_policy(policy: str, backend: str = "stepstone") -> None:
    """Reject a policy a ``backend`` node cannot dispatch: any of
    :data:`POLICIES`, plus the backend's own name off-StepStone."""
    allowed = POLICIES if backend == "stepstone" else POLICIES + (backend,)
    if policy not in allowed:
        raise ValueError(f"unknown policy {policy!r}; choose from {allowed}")


# ---------------------------------------------------------------------- #
# Requests and outcomes
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Request:
    """One timestamped inference request for one model."""

    req_id: int
    model: str
    arrival_s: float
    #: End-to-end latency bound (queueing + service); ``None`` = best effort.
    slo_s: Optional[float] = None

    def __post_init__(self) -> None:
        # Written so NaN fails too: every comparison with NaN is False.
        if not 0 <= self.arrival_s < math.inf:
            raise ValueError(
                f"arrival time must be finite and non-negative, got {self.arrival_s}"
            )
        if self.slo_s is not None and not 0 < self.slo_s < math.inf:
            raise ValueError(
                f"SLO must be positive and finite when given, got {self.slo_s}"
            )


@dataclass(frozen=True)
class CompletedRequest:
    """A served request with its queueing/service accounting."""

    request: Request
    dispatch_s: float
    finish_s: float
    batch: int

    @property
    def queue_s(self) -> float:
        return self.dispatch_s - self.request.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.dispatch_s

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.request.arrival_s


@dataclass(frozen=True)
class RejectedRequest:
    """A request dropped at admission because its SLO became infeasible."""

    request: Request
    rejected_at_s: float


@dataclass(frozen=True)
class FailedRequest:
    """A request lost to a node failure (or dropped with no node to take it).

    ``reason`` distinguishes how it was lost: ``"in-flight-lost"`` (its
    batch was running on the node that died), ``"queue-dropped"`` (it was
    waiting on the dead node), or ``"unrouted"`` (it arrived while every
    replica of its model was down).
    """

    request: Request
    failed_at_s: float
    node_id: Optional[int] = None
    reason: str = "queue-dropped"


class ServingReport:
    """Latency distribution and sustained throughput of one policy run.

    All accumulation goes through one shared
    :class:`~repro.sim.stats.MetricsRecorder`, ``stats``, which the
    kernel's FINISH, admission and failure paths record into:
    ``record="full"`` (the default) keeps exact per-request columns,
    ``record="streaming"`` keeps only flat-memory aggregates — the
    per-request list properties (``completed``, ``latencies_s``, ...)
    then raise :class:`~repro.sim.stats.RecordingModeError` instead of
    silently returning nothing.
    """

    def __init__(
        self,
        policy: str,
        sim_end_s: float = 0.0,
        record: str = "full",
        stats: Optional[MetricsRecorder] = None,
    ) -> None:
        """Create an empty report.

        Args:
            policy: Dispatch policy label the run used.
            sim_end_s: Simulated end time (set by the engine after a run).
            record: ``"full"`` or ``"streaming"`` (ignored when ``stats``
                is given).
            stats: An externally built recorder — fleets pass recorders
                chained to a fleet-level parent here.
        """
        self.policy = policy
        self.sim_end_s = sim_end_s
        self.stats = stats if stats is not None else MetricsRecorder(record=record)
        #: Kernel events the run processed (the run loop's
        #: :meth:`~repro.sim.kernel.DiscreteEventKernel.finalize` count) —
        #: the denominator benchmarks divide wall time by.
        self.events_processed = 0

    @property
    def record(self) -> str:
        """The recording mode: ``"full"`` or ``"streaming"``."""
        return self.stats.record

    def __repr__(self) -> str:
        return (
            f"ServingReport(policy={self.policy!r}, record={self.record!r}, "
            f"served={self.served}, rejected={self.rejected_count}, "
            f"failed={self.failed_count}, sim_end_s={self.sim_end_s})"
        )

    # ------------------------------------------------------------------ #
    # Per-request access (full mode; streaming raises)
    # ------------------------------------------------------------------ #

    @property
    def completed(self) -> List[CompletedRequest]:
        """Per-request completion records, built on each read
        (``record="full"`` only)."""
        return self.stats.completed

    @property
    def rejected(self) -> List[RejectedRequest]:
        """Per-request rejection records (``record="full"`` only)."""
        return self.stats.rejected

    @property
    def failed(self) -> List[FailedRequest]:
        """Per-request failure records (``record="full"`` only)."""
        return self.stats.failed

    @property
    def latencies_s(self) -> List[float]:
        """Completed-request latencies, sorted (memoized per completion
        count; ``record="full"`` only — streaming mode answers
        percentiles from the sketch instead)."""
        return self.stats.latencies_s

    # ------------------------------------------------------------------ #
    # Aggregates (both modes)
    # ------------------------------------------------------------------ #

    @property
    def served(self) -> int:
        """Requests completed (works in both recording modes)."""
        return self.stats.completed_count

    @property
    def rejected_count(self) -> int:
        """Requests rejected at admission (works in both modes)."""
        return self.stats.rejected_count

    @property
    def failed_count(self) -> int:
        """Requests lost to failures (works in both modes)."""
        return self.stats.failed_count

    @property
    def offered(self) -> int:
        """Total requests that reached this node (served + shed + lost)."""
        return self.served + self.rejected_count + self.failed_count

    def latency_percentile(self, q: float) -> float:
        """Percentile of completed-request latency (seconds): exact
        nearest-rank in full mode, sketch estimate in streaming mode."""
        return self.stats.percentile(q)

    def window_percentile(self, q: float, start_s: float, end_s: float) -> float:
        """Latency percentile over completions finishing in
        ``[start_s, end_s)`` — NaN when the window saw none (empty stream,
        all-rejected interval, or a window before the first finish).
        Exact in full mode; in streaming mode answered from the window
        ring (snapped to rolled window boundaries)."""
        return self.stats.window_percentile(q, start_s, end_s)

    @property
    def p50_s(self) -> float:
        """Median completed latency (seconds)."""
        return self.latency_percentile(50)

    @property
    def p95_s(self) -> float:
        """95th-percentile completed latency (seconds)."""
        return self.latency_percentile(95)

    @property
    def p99_s(self) -> float:
        """99th-percentile completed latency (seconds)."""
        return self.latency_percentile(99)

    @property
    def mean_queue_s(self) -> float:
        """Mean queueing delay (NaN when nothing completed)."""
        return self.stats.mean_queue_s

    @property
    def mean_service_s(self) -> float:
        """Mean batch service time (NaN when nothing completed)."""
        return self.stats.mean_service_s

    @property
    def mean_batch(self) -> float:
        """Mean dispatched batch size (NaN when nothing completed)."""
        return self.stats.mean_batch

    @property
    def throughput_rps(self) -> float:
        """Sustained rate: completed requests per simulated second."""
        if self.sim_end_s <= 0:
            return 0.0
        return self.served / self.sim_end_s

    def summary(self) -> str:
        """One-line human-readable digest of the run."""
        return (
            f"{self.policy:>6}: {self.served} served, "
            f"{self.rejected_count} rejected | "
            f"p50 {self.p50_s * 1e3:.2f} ms, p99 {self.p99_s * 1e3:.2f} ms | "
            f"{self.throughput_rps:.0f} req/s "
            f"(mean batch {self.mean_batch:.1f})"
        )


# ---------------------------------------------------------------------- #
# Arrival streams (seeded, deterministic)
# ---------------------------------------------------------------------- #


def poisson_requests(
    model: str,
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
    slo_s: Optional[float] = None,
    start_id: int = 0,
) -> List[Request]:
    """Open-loop Poisson arrivals at ``rate_rps`` over ``duration_s``."""
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    out: List[Request] = []
    t = 0.0
    i = start_id
    while True:
        t += rng.expovariate(rate_rps)
        if t >= duration_s:
            return out
        out.append(Request(req_id=i, model=model, arrival_s=t, slo_s=slo_s))
        i += 1


def uniform_requests(
    model: str,
    rate_rps: float,
    duration_s: float,
    slo_s: Optional[float] = None,
    start_id: int = 0,
) -> List[Request]:
    """Evenly spaced arrivals at ``rate_rps`` over ``duration_s``.

    Delivers exactly ``round(rate_rps * duration_s)`` requests, the first
    at t=0 — so ``len(requests) / duration_s`` matches the asked-for rate.
    """
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    gap = 1.0 / rate_rps
    n = int(round(duration_s * rate_rps))
    return [
        Request(req_id=start_id + i, model=model, arrival_s=i * gap, slo_s=slo_s)
        for i in range(n)
    ]


def merge_streams(*streams: Sequence[Request]) -> List[Request]:
    """Merge per-model streams into one arrival-ordered stream."""
    merged = [r for s in streams for r in s]
    merged.sort(key=lambda r: (r.arrival_s, r.req_id))
    return merged


# ---------------------------------------------------------------------- #
# SLO admission
# ---------------------------------------------------------------------- #


def slo_admit(
    batch: Sequence[Request],
    clock: float,
    service_for_size: Callable[[int], float],
) -> Tuple[List[Request], List[Request], float]:
    """Shrink ``batch`` until every admitted request meets its SLO.

    A smaller batch serves faster (``service_for_size`` is non-decreasing in
    size), so requests are dropped one at a time, least SLO headroom first
    (``slo - wait``) — and whenever any request violates, the one with the
    least headroom violates too.  That makes a single pass over the batch
    sorted by headroom equivalent to re-scanning for violators after every
    drop, turning the O(b^2) shrink into O(b log b).

    Returns ``(admitted, rejected, service_s)``; ``admitted`` preserves the
    input order, ``rejected`` is in drop order (ascending headroom), and
    ``service_s`` is the service time of the admitted batch (0.0 when every
    request was rejected).  Requests without an SLO are never rejected.
    """

    def headroom(r: Request) -> float:
        if r.slo_s is None:
            return math.inf
        return r.slo_s - (clock - r.arrival_s)

    order = sorted(batch, key=headroom)  # stable: ties keep batch order
    drop = 0
    service = 0.0
    while drop < len(order):
        service = service_for_size(len(order) - drop)
        if headroom(order[drop]) >= service:
            break
        drop += 1
    rejected = order[:drop]
    if drop == len(order):
        return [], rejected, 0.0
    if drop == 0:
        return list(batch), [], service
    dropped = {id(r) for r in rejected}
    admitted = [r for r in batch if id(r) not in dropped]
    return admitted, rejected, service


# ---------------------------------------------------------------------- #
# The engine
# ---------------------------------------------------------------------- #


class OnlineServingEngine:
    """Simulated-clock online serving of model inference request streams."""

    def __init__(
        self,
        server: Optional[BatchServer] = None,
        models: Optional[Dict[str, ModelSpec]] = None,
        max_batch: int = 64,
    ) -> None:
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.server = server or BatchServer()
        self.models = dict(models) if models is not None else all_models()
        self.max_batch = max_batch
        # Memoized batch service times.  The key includes the node spec's
        # hardware identity (`NodeSpec.latency_key`), not just
        # (model, policy, batch): two node specs with different hardware
        # must never share cached latencies, while any number of StepStone
        # specs share this engine's one BatchServer and therefore one cache
        # line per (model, policy, batch).
        self._latency_cache: Dict[Tuple[str, str, int, Tuple], float] = {}

    # ------------------------------------------------------------------ #
    # Batch service-time model
    # ------------------------------------------------------------------ #

    def batch_latency(
        self,
        model: str,
        policy: str,
        batch: int,
        spec: Optional[NodeSpec] = None,
    ) -> float:
        """Service seconds for one batch of ``batch`` requests of ``model``.

        Per-GEMM latencies compose across the model's invocations, tiled to
        powers of two like the Fig. 8 engine; the activation dimension scales
        with the request batch.  CPU-resident ops (attention, softmax, ...)
        always run on the host and are charged to every backend.

        Args:
            model: A model name known to this engine.
            policy: StepStone dispatch policy (one of :data:`POLICIES`).
                Non-StepStone specs admit exactly one dispatch, so the
                backend name itself is also accepted there.
            batch: Number of requests in the batch (a positive integer).
            spec: Hardware the batch runs on; ``None`` means the default
                StepStone node backed by this engine's ``BatchServer``.
                GPU specs charge the device-resident Titan-Xp-class
                roofline (note: *not* monotone in ``batch`` at tiny sizes,
                where occupancy dominates); CPU specs charge the
                calibrated Xeon model.

        Returns:
            Seconds to serve the batch on that hardware.
        """
        backend = spec.backend if spec is not None else "stepstone"
        _check_policy(policy, backend)
        eff_policy = policy if backend == "stepstone" else backend
        _check_batch("batch", batch)
        key = (
            model,
            eff_policy,
            batch,
            spec.latency_key if spec is not None else ("stepstone",),
        )
        hit = self._latency_cache.get(key)
        if hit is not None:
            return hit
        try:
            mspec = self.models[model]
        except KeyError as exc:
            raise KeyError(
                f"unknown model {model!r}; available: {sorted(self.models)}"
            ) from exc
        srv = self.server
        gpu_model: Optional[GpuGemmModel] = None
        if backend == "gpu":
            gpu_model = GpuGemmModel(spec.gpu) if spec.gpu is not None else GpuGemmModel()
        cpu_model = None
        if backend == "cpu" and spec is not None and spec.cpu is not None:
            from repro.baselines.cpu import CpuGemmModel

            cpu_model = CpuGemmModel(spec.cpu)
        total = 0.0
        for inv in mspec.gemms:
            n = max(1, (inv.shape.n * batch) // mspec.batch_size)
            for tile in pow2_partition(inv.shape):
                if gpu_model is not None:
                    t = gpu_model.gemm_seconds(GemmShape(tile.m, tile.k, n))
                elif cpu_model is not None:
                    t = cpu_model.gemm_seconds(GemmShape(tile.m, tile.k, n))
                elif eff_policy == "cpu":
                    t = srv.cpu_latency(tile.m, tile.k, n)
                elif eff_policy == "pim":
                    t = srv.pim_latency(tile.m, tile.k, n)
                else:
                    t = srv.hybrid_split(tile.m, tile.k, n).latency_s
                total += t * inv.count
        # Host-resident ops run on the node's own CPU when the spec
        # overrides it; otherwise on the engine's shared CPU model.
        host_cfg = cpu_model.config if cpu_model is not None else srv.cpu.config
        total += mspec.cpu_other_seconds(host_cfg) * batch / mspec.batch_size
        self._latency_cache[key] = total
        return total

    def mix_capacity_rps(
        self,
        mix: Dict[str, float],
        policy: str,
        batch: Optional[int] = None,
        spec: Optional[NodeSpec] = None,
    ) -> float:
        """Optimistic steady-state req/s one node sustains on a traffic mix.

        Full-batch service of the share-weighted mix (harmonic mean over
        per-request service time).  With a ``spec``, mix models that do
        not fit the node's memory are excluded — the node will never host
        them — so the estimate covers only the traffic share the node can
        absorb.  This is the single capacity formula shared by the
        heterogeneous capacity planner's pruning bound and the autoscale
        policies' demand sizing.

        Args:
            mix: Model name -> traffic share (normalized internally).
            policy: StepStone dispatch policy (``cpu``/``pim``/``hybrid``).
            batch: Batch size the estimate assumes; defaults to
                ``max_batch``.
            spec: Node hardware; ``None`` means the default StepStone node.

        Returns:
            Requests per second at steady state; ``0.0`` when no mix
            model fits the spec's memory.

        Raises:
            ValueError: If the shares do not sum positive.
        """
        total = float(sum(mix.values()))
        if total <= 0:
            raise ValueError("traffic mix shares must sum > 0")
        b = batch if batch is not None else self.max_batch
        per_req_s = 0.0
        served_share = 0.0
        for model, share in mix.items():
            if share <= 0:
                continue
            if spec is not None and not spec.fits(
                self.models[model].total_weight_bytes
            ):
                continue
            served_share += share / total
            per_req_s += (
                (share / total) * self.batch_latency(model, policy, b, spec=spec) / b
            )
        if served_share <= 0 or per_req_s <= 0:
            return 0.0
        # Requests the node can serve arrive at served_share of the total
        # rate and cost per_req_s / served_share each once renormalized to
        # the hosted sub-mix, so its request capacity is
        # served_share / per_req_s.
        return served_share / per_req_s

    def min_latency(
        self, model: str, policy: str, spec: Optional[NodeSpec] = None
    ) -> float:
        """Best-case (batch-1, zero-queue) latency — the SLO feasibility floor.

        On GPU specs batch 1 is a *conservative* floor, not the true
        minimum: occupancy roll-off makes tiny batches slower per batch
        than slightly larger ones.
        """
        return self.batch_latency(model, policy, 1, spec=spec)

    # ------------------------------------------------------------------ #
    # Simulation loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        requests: Iterable[Request],
        policy: str,
        record: str = "full",
        obs=None,
        fast: bool = False,
    ) -> ServingReport:
        """Serve an arrival-ordered request stream under one policy.

        The engine is a one-node fleet: one static
        :class:`~repro.cluster.node.ClusterNode` hosting every model, on
        the fleet loop (:mod:`repro.autoscale._loop`) without control
        ticks.  Arrivals come before finishes at equal instants, so a
        request landing exactly at a batch boundary joins the next batch
        — the same contract the fleet simulators obey.

        ``record="streaming"`` accumulates flat-memory aggregates instead
        of per-request columns (see :class:`~repro.sim.stats.MetricsRecorder`).

        ``obs`` takes an optional :class:`~repro.obs.RunObserver`: spans
        land as ``queued``/``serve``/``rejected`` per request plus one
        ``batch`` execution span per dispatch, carrying the exact floats
        this report accounts with (span sums tie out with ``==``).  The
        default runs the original untraced path.

        ``fast`` is accepted and ignored: every run takes the kernel's
        one event loop, :meth:`repro.sim.kernel.DiscreteEventKernel.run`.
        The keyword stays because existing callers still pass it.

        Raises:
            ValueError: On an unknown policy.
            KeyError: If a request names a model this engine does not
                know (before the run has any side effect).
        """
        _check_policy(policy)
        requests = list(requests)
        unknown = {r.model for r in requests} - self.models.keys()
        if unknown:
            raise KeyError(
                f"unknown model {min(unknown)!r}; available: {sorted(self.models)}"
            )
        # Lazy: the fleet layers import this module.
        from repro.autoscale._loop import FleetLoop, Pool
        from repro.cluster.fleet import ClusterReport
        from repro.cluster.node import ClusterNode
        from repro.cluster.router import RoundRobinRouter

        node = ClusterNode(
            0,
            engine=self,
            policy=policy,
            models=set(self.models),
            max_batch=self.max_batch,
        )
        # A static fleet's loop reads only its router and record mode.
        fleet = SimpleNamespace(router=RoundRobinRouter(), record=record)
        loop = FleetLoop(
            "engine",
            fleet,
            {"engine": Pool(spec=STEPSTONE_NODE, hosted=[])},
            nodes=[node],
        )
        fleet_report = ClusterReport(
            policy=policy,
            router=fleet.router.name,
            node_reports=[],
            specs=[STEPSTONE_NODE],
        )
        loop.run(fleet_report, requests, obs=obs)
        node.report.events_processed = fleet_report.events_processed
        return node.report

    def run_policies(
        self, requests: Sequence[Request], policies: Sequence[str] = POLICIES
    ) -> Dict[str, ServingReport]:
        """Serve the same stream under several policies (shared arrivals)."""
        return {p: self.run(list(requests), p) for p in policies}
