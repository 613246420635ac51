"""One fleet node (StepStone, CPU, or GPU) inside a simulated cluster.

A node is the per-machine half of the fleet simulator: it owns a request
queue, forms FIFO per-model batches, applies single-pass SLO admission,
and charges batch service time through the engine's memoized
:meth:`~repro.serving.engine.OnlineServingEngine.batch_latency`.  This
is the only batching and admission code: the single-node
:class:`~repro.serving.engine.OnlineServingEngine` runs as a one-node
fleet of these.
Nodes share one engine instance so the latency model is computed once for
the whole fleet, not once per node.

Heterogeneity enters through the node's :class:`~repro.serving.NodeSpec`:
the spec picks the hardware latency model (and therefore the *effective*
dispatch policy — a CPU or GPU node has exactly one way to run a batch),
while queueing, batching, and SLO admission stay identical across
backends, so fleets of mixed substrates remain directly comparable.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.serving.engine import (
    FailedRequest,
    OnlineServingEngine,
    RejectedRequest,
    Request,
    ServingReport,
    slo_admit,
)
from repro.serving.nodespec import STEPSTONE_NODE, NodeSpec

__all__ = ["ClusterNode"]


class ClusterNode:
    """Queue + dispatch state of one node; driven by the fleet simulator.

    Args:
        node_id: Fleet-unique id (also the event tie-break order).
        engine: The shared latency model / simulator vocabulary.
        policy: StepStone dispatch policy (``cpu``/``pim``/``hybrid``).
            Non-StepStone specs override it with their only dispatch —
            ``self.policy`` holds the *effective* policy.
        models: Models this node hosts weights for; ``None``/empty means
            every model (full replication).
        max_batch: Per-batch request cap; defaults to the engine's.
        spec: Hardware spec of this node (default: the StepStone node).
    """

    def __init__(
        self,
        node_id: int,
        engine: OnlineServingEngine,
        policy: str,
        models: Optional[Set[str]] = None,
        max_batch: Optional[int] = None,
        spec: NodeSpec = STEPSTONE_NODE,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.spec = spec
        self.policy = spec.effective_policy(policy)
        self.models: Set[str] = set(models) if models else set()
        self.max_batch = max_batch if max_batch is not None else engine.max_batch
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.queue: List[Request] = []
        self.in_flight: List[Request] = []
        self.busy_until: float = 0.0
        self.busy_s: float = 0.0
        #: Bumped on every failure; a pending finish event carrying an
        #: older epoch is stale (its batch was lost) and must be ignored.
        self.epoch: int = 0
        self._dispatch_s: float = 0.0
        self._service_s: float = 0.0
        #: Optional :class:`~repro.obs.trace.SpanRecorder` the owning
        #: fleet attaches for a traced run (``None`` = no tracing).
        self.obs_spans = None
        # Batch-1 latency per model: a hardware property of this node,
        # so it survives runs.  The SLO-feasibility routers ask for it
        # once per replica per arrival — caching here keeps that hot
        # path a dict hit instead of re-keying the engine's memo.
        self._min_lat: dict = {}
        self.report = ServingReport(policy=self.policy)

    @property
    def idle(self) -> bool:
        """True when no batch is in flight on this node."""
        return not self.in_flight

    def backlog(self) -> int:
        """Requests on this node (queued + in the running batch) — the
        join-shortest-queue load signal."""
        return len(self.queue) + len(self.in_flight)

    def min_latency(self, model: str) -> float:
        """Batch-1 service seconds for ``model`` on this node's hardware —
        the feasibility floor routers compare against a request's SLO."""
        hit = self._min_lat.get(model)
        if hit is None:
            hit = self.engine.batch_latency(model, self.policy, 1, spec=self.spec)
            self._min_lat[model] = hit
        return hit

    def eta_s(self, clock: float) -> float:
        """Seconds until this node could *start* a new batch at ``clock``
        (the remaining service time of the in-flight batch, if any)."""
        if self.in_flight:
            return max(0.0, self.busy_until - clock)
        return 0.0

    def enqueue(self, request: Request) -> None:
        """Queue one routed request.

        Args:
            request: An arrival whose model this node must host.

        Raises:
            ValueError: If the node does not host the request's model.
        """
        if self.models and request.model not in self.models:
            raise ValueError(
                f"node {self.node_id} does not host {request.model!r}"
            )
        self.queue.append(request)

    def try_dispatch(self, clock: float) -> Optional[float]:
        """Launch the next admissible batch if idle; return its finish time.

        The one dispatch path of every request loop, the single-node
        engine included: the batch is FIFO from the oldest queued
        request's model, capped at ``max_batch``, shrunk by SLO admission
        (a smaller batch serves faster, so a violator at this size may fit
        at the next).  If admission rejects an entire batch the loop moves
        on to the next head-of-queue model without advancing time.

        Args:
            clock: Current simulated time.

        Returns:
            The batch finish time, or ``None`` when nothing dispatched
            (busy node or empty/fully-rejected queue).
        """
        while self.idle and self.queue:
            head_model = self.queue[0].model
            # FIFO batch: the first max_batch head-model requests in
            # queue order (early-exit scan; long mixed queues stay O(b)).
            candidates = []
            cap = self.max_batch
            for r in self.queue:
                if r.model == head_model:
                    candidates.append(r)
                    if len(candidates) == cap:
                        break
            admitted, rejected, service = slo_admit(
                candidates,
                clock,
                lambda size: self.engine.batch_latency(
                    head_model, self.policy, size, spec=self.spec
                ),
            )
            spans = self.obs_spans
            for r in rejected:
                self.report.stats.record_rejection(
                    RejectedRequest(request=r, rejected_at_s=clock)
                )
                if spans is not None:
                    spans.emit(
                        r.req_id,
                        "rejected",
                        r.arrival_s,
                        clock - r.arrival_s,
                        node=self.node_id,
                        model=r.model,
                    )
            # admitted + rejected partition the candidates, which are the
            # first len(candidates) head-model requests in queue order —
            # drop exactly that many matches instead of id-set filtering.
            ncand = len(candidates)
            if ncand == len(self.queue):
                self.queue = []
            else:
                newq = []
                dropped = 0
                for r in self.queue:
                    if dropped < ncand and r.model == head_model:
                        dropped += 1
                    else:
                        newq.append(r)
                self.queue = newq
            if admitted:
                self.in_flight = admitted
                self._dispatch_s = clock
                self._service_s = service
                self.busy_until = clock + service
                self.busy_s += service
                if spans is not None:
                    for r in admitted:
                        spans.emit(
                            r.req_id,
                            "queued",
                            r.arrival_s,
                            clock - r.arrival_s,
                            node=self.node_id,
                            batch=len(admitted),
                            model=r.model,
                        )
                return self.busy_until
        return None

    def finish_batch(self, clock: float) -> None:
        """Record the running batch's completions at ``clock`` (one
        ``record_batch`` call), then its ``serve`` and ``batch`` spans
        when the run is traced."""
        batch = self.in_flight
        self.in_flight = []
        self.report.stats.record_batch(self._dispatch_s, clock, batch)
        spans = self.obs_spans
        if spans is None or not batch:
            return
        b = len(batch)
        for r in batch:
            spans.emit(
                r.req_id,
                "serve",
                self._dispatch_s,
                clock - self._dispatch_s,
                node=self.node_id,
                batch=b,
                model=r.model,
            )
        spans.emit(
            -1,
            "batch",
            self._dispatch_s,
            self._service_s,
            node=self.node_id,
            batch=b,
            model=batch[0].model,
        )

    def fail(self, clock: float) -> List[Request]:
        """Lose everything this node holds at ``clock`` (a node failure).

        The in-flight batch never completes (its requests are recorded
        as failed with reason ``"in-flight-lost"`` and the busy-time
        credit taken at dispatch is truncated to the seconds actually
        served), queued requests are dropped (``"queue-dropped"``), and
        the epoch bump invalidates the pending finish event.

        Args:
            clock: The failure instant.

        Returns:
            The lost requests (in-flight first, then queue order).
        """
        lost = list(self.in_flight) + list(self.queue)
        spans = self.obs_spans
        if self.in_flight:
            self.busy_s -= max(0.0, self.busy_until - clock)
            if spans is not None:
                # The truncated execution: dispatch to the failure
                # instant, never to the scheduled finish.
                spans.emit(
                    -1,
                    "batch",
                    self._dispatch_s,
                    clock - self._dispatch_s,
                    node=self.node_id,
                    batch=len(self.in_flight),
                    model=self.in_flight[0].model,
                )
            for r in self.in_flight:
                self.report.stats.record_failure(
                    FailedRequest(
                        request=r,
                        failed_at_s=clock,
                        node_id=self.node_id,
                        reason="in-flight-lost",
                    )
                )
                if spans is not None:
                    spans.emit(
                        r.req_id,
                        "failed",
                        r.arrival_s,
                        clock - r.arrival_s,
                        node=self.node_id,
                        model=r.model,
                    )
        for r in self.queue:
            self.report.stats.record_failure(
                FailedRequest(
                    request=r,
                    failed_at_s=clock,
                    node_id=self.node_id,
                    reason="queue-dropped",
                )
            )
            if spans is not None:
                spans.emit(
                    r.req_id,
                    "failed",
                    r.arrival_s,
                    clock - r.arrival_s,
                    node=self.node_id,
                    model=r.model,
                )
        self.queue = []
        self.in_flight = []
        self.busy_until = clock
        self.epoch += 1
        return lost
