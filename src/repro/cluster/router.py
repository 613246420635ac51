"""Pluggable request routing across a model's replica nodes.

The router sees each request at its arrival instant and picks one node
among those hosting the model's weights (the placement's replica list,
primary first).  Four policies:

* ``round-robin`` — cycle a per-model counter over the replica list;
  oblivious to load, the classic baseline.
* ``least-loaded`` — join-shortest-queue: the replica with the smallest
  backlog (queued + in-flight requests), ties toward the lower node id.
  Adapts to skewed per-model traffic that round-robin spreads blindly.
* ``affinity`` — prefer the primary replica until its backlog reaches a
  spill threshold, then fall back to join-shortest-queue over all
  replicas.  Concentrating a model's traffic yields larger same-model
  batches (better amortization of weight streaming) while the spillover
  bounds queueing under bursts.
* ``backend-affinity`` — the heterogeneous-fleet economics policy: among
  replicas whose hardware can still meet the request's SLO (remaining
  busy time plus batch-1 service under the bound), pick the *cheapest*
  ($/hr), breaking ties join-shortest-queue.  Cheap StepStone nodes
  absorb baseline traffic until their queues make them infeasible, at
  which point requests spill to faster, pricier substrates — exactly the
  mixed-fleet behavior the cost-aware planner sizes for.  Without an SLO
  (or with no feasible replica) it degrades to join-shortest-queue with a
  cost tie-break, so load still spreads.

All policies are deterministic: same request stream, same decisions.

**Call protocol.**  The fleet loop drives every router the same way:
:meth:`Router.reset` once per run, :meth:`Router.route` at each arrival instant,
:meth:`Router.invalidate_backlogs` after every dispatch attempt, and
:meth:`Router.invalidate_all` after every READY, CONTROL, FAIL and
RECOVER batch.  Between two hooks node backlogs change only through the
router's own picks, so the builtin policies cache replica lists and
advance backlog heaps by their own picks instead of scanning every
replica per arrival.  A custom router may ignore the hooks and read
``replicas_for`` afresh on every call.
"""

from __future__ import annotations

from heapq import heapify, heappush, heapreplace
from numbers import Integral
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.node import ClusterNode
from repro.serving.engine import Request

__all__ = [
    "ROUTER_POLICIES",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "AffinityRouter",
    "BackendAffinityRouter",
    "make_router",
]

#: Routing policies understood by :func:`make_router`.
ROUTER_POLICIES: Tuple[str, ...] = (
    "round-robin",
    "least-loaded",
    "affinity",
    "backend-affinity",
)


class Router:
    """Base router: picks one node among a model's routable replicas."""

    name = "base"

    def reset(self, replicas_for: Callable[[str], List[ClusterNode]]) -> None:
        """Start a run, binding the loop's live view: the nodes that can
        take a model now, primary first (possibly none)."""
        self.replicas_for = replicas_for

    def route(self, request: Request, clock: float) -> Optional[ClusterNode]:
        """Pick the node that will queue ``request`` at its arrival
        instant ``clock``; ``None`` when no replica can take it."""
        raise NotImplementedError

    def invalidate_backlogs(self) -> None:
        """Some node's queue or in-flight batch changed (a dispatch)."""

    def invalidate_all(self) -> None:
        """Fleet membership or node state changed."""


def _jsq_heap(replicas: List[ClusterNode]) -> list:
    # The unique node_id settles every tie before tuple comparison could
    # reach the trailing node payload.
    heap = [(n.backlog(), n.node_id, n) for n in replicas]
    heapify(heap)
    return heap


def _jsq_pick(heap: list) -> ClusterNode:
    b, nid, node = heap[0]
    heapreplace(heap, (b + 1, nid, node))
    return node


class _CachedRouter(Router):
    """Caches each model's replica list until :meth:`invalidate_all`;
    ``_key`` marks the backlog lifetime :meth:`invalidate_backlogs` ends."""

    def reset(self, replicas_for: Callable[[str], List[ClusterNode]]) -> None:
        """Start a run with empty caches."""
        super().reset(replicas_for)
        self._reps: Dict[str, List[ClusterNode]] = {}
        self._key = None

    def invalidate_backlogs(self) -> None:
        """End the backlog lifetime."""
        self._key = None

    def invalidate_all(self) -> None:
        """End the backlog lifetime and drop the cached replica lists."""
        self._key = None
        self._reps.clear()

    def _replicas(self, model: str) -> List[ClusterNode]:
        reps = self._reps.get(model)
        if reps is None:
            reps = self._reps[model] = self.replicas_for(model)
        return reps


class RoundRobinRouter(_CachedRouter):
    """Cycle each model's requests over its replica list."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next: dict = {}

    def reset(self, replicas_for: Callable[[str], List[ClusterNode]]) -> None:
        """Restart every model's cycle at its primary replica."""
        super().reset(replicas_for)
        self._next.clear()

    def invalidate_backlogs(self) -> None:
        """Cycling ignores load."""

    def route(self, request: Request, clock: float) -> Optional[ClusterNode]:
        """Return the next replica in the model's cycle."""
        reps = self._replicas(request.model)
        if not reps:
            return None
        i = self._next.get(request.model, 0)
        self._next[request.model] = i + 1
        return reps[i % len(reps)]


class LeastLoadedRouter(_CachedRouter):
    """Join-shortest-queue over the model's replicas."""

    name = "least-loaded"

    def route(self, request: Request, clock: float) -> Optional[ClusterNode]:
        """Return the replica with the smallest backlog (ties: lower id)."""
        model = request.model
        if self._key != model:
            reps = self._replicas(model)
            if not reps:
                return None
            self._key = model
            self._heap = _jsq_heap(reps)
        return _jsq_pick(self._heap)


class AffinityRouter(_CachedRouter):
    """Primary replica first; spill to join-shortest-queue under pressure.

    Within a backlog lifetime the primary's backlog only grows, so
    spilling is monotone and the join-shortest-queue heap is built at
    the first spill.

    Args:
        spill_backlog: Backlog at which the primary stops absorbing new
            requests; ``None`` defaults to the node's batch cap (one full
            batch wave already waiting) at route time.

    Raises:
        ValueError: If ``spill_backlog`` is not ``None`` or a
            non-negative integer.
    """

    name = "affinity"

    def __init__(self, spill_backlog: Optional[int] = None) -> None:
        if spill_backlog is not None and (
            isinstance(spill_backlog, bool)
            or not isinstance(spill_backlog, Integral)
            or spill_backlog < 0
        ):
            raise ValueError(
                "spill_backlog must be None or a non-negative int, "
                f"got {spill_backlog!r}"
            )
        #: Backlog at which the primary stops absorbing new requests;
        #: ``None`` defaults to the node's batch cap (one full batch wave
        #: already waiting) at route time.
        self.spill_backlog = spill_backlog

    def route(self, request: Request, clock: float) -> Optional[ClusterNode]:
        """Return the primary while below the spill threshold, else JSQ."""
        model = request.model
        if self._key != model:
            reps = self._replicas(model)
            if not reps:
                return None
            self._key = model
            self._primary = primary = reps[0]
            sb = self.spill_backlog
            self._limit = sb if sb is not None else primary.max_batch
            self._pb = primary.backlog()
            self._heap = None
        if self._pb < self._limit:
            self._pb += 1
            return self._primary
        if self._heap is None:
            self._heap = _jsq_heap(self._replicas(model))
        return _jsq_pick(self._heap)


class BackendAffinityRouter(_CachedRouter):
    """Cheapest SLO-feasible backend first; join-shortest-queue fallback.

    A replica is *feasible* for a request when its remaining busy time
    plus a batch-1 service on its hardware still fits the request's SLO —
    a deliberately cheap estimate (queued work behind the in-flight batch
    is ignored, and batching will usually do better than batch-1) that
    only has to rank substrates, not predict latency.

    Precondition: each request is routed at its own arrival instant
    (``clock == request.arrival_s``, as the fleet loop does), so its
    slack is exactly its SLO.

    State is kept per ``(model, slo)`` key.  Within a backlog lifetime a
    node's eta only shrinks as the clock grows, so feasibility is
    monotone: busy infeasible nodes go on a watch list re-evaluated per
    arrival, idle ones stay infeasible.  Another key's picks can grow a
    node's queue behind a cached heap, so heap backlogs only ever
    under-estimate live ones; a stale top is re-keyed and re-sifted,
    never wrongly chosen.
    """

    name = "backend-affinity"

    def reset(self, replicas_for: Callable[[str], List[ClusterNode]]) -> None:
        """Start a run with no per-key state."""
        super().reset(replicas_for)
        #: (model, slo) -> [feasible heap | None, watch, fallback heap | None]
        self._states: Dict[tuple, list] = {}
        self._ckey = None  # memo of the last key looked up …
        self._cst = None  # … and its state, skipping the dict round-trip

    def invalidate_backlogs(self) -> None:
        """Drop every key's state."""
        if self._states:
            self._states.clear()
        self._cst = None

    def invalidate_all(self) -> None:
        """Drop every key's state and the cached replica lists."""
        self.invalidate_backlogs()
        self._reps.clear()

    def route(self, request: Request, clock: float) -> Optional[ClusterNode]:
        """Return the cheapest feasible replica (ties: backlog, node id).

        Without an SLO — or when every replica is already infeasible —
        falls back to join-shortest-queue with an hourly-cost tie-break,
        so best-effort traffic still spreads by load.
        """
        model = request.model
        slo = request.slo_s
        st = self._cst
        ck = self._ckey
        if st is None or ck[0] != model or ck[1] != slo:
            key = (model, slo)
            st = self._cst = self._states.get(key)
            self._ckey = key
        if st is None:
            reps = self._replicas(model)
            if not reps:
                return None
            feas = None
            watch: list = []
            if slo is not None:
                # The feasibility test is n.eta_s(clock) + min_latency <=
                # slo, inlined; never rearrange it (it could round
                # differently).
                feas = []
                for n in reps:
                    ml = n.min_latency(model)
                    if n.in_flight:
                        if max(0.0, n.busy_until - clock) + ml <= slo:
                            feas.append((n.spec.hourly_cost, n.backlog(), n.node_id, n))
                        else:
                            watch.append((n, ml))
                    elif 0.0 + ml <= slo:
                        feas.append((n.spec.hourly_cost, n.backlog(), n.node_id, n))
                heapify(feas)
            st = self._cst = self._states[key] = [feas, watch, None]
        fheap, watch, fbheap = st
        if slo is not None:
            if watch:
                still = []
                for n, ml in watch:
                    if max(0.0, n.busy_until - clock) + ml <= slo:
                        heappush(fheap, (n.spec.hourly_cost, n.backlog(), n.node_id, n))
                    else:
                        still.append((n, ml))
                if len(still) != len(watch):
                    st[1] = still
            while fheap:
                c, b, nid, node = fheap[0]
                live = len(node.queue) + len(node.in_flight)
                if live != b:
                    heapreplace(fheap, (c, live, nid, node))
                    continue
                heapreplace(fheap, (c, b + 1, nid, node))
                return node
        if fbheap is None:
            fbheap = st[2] = [
                (n.backlog(), n.spec.hourly_cost, n.node_id, n)
                for n in self._replicas(model)
            ]
            heapify(fbheap)
        while True:
            b, c, nid, node = fbheap[0]
            live = len(node.queue) + len(node.in_flight)
            if live != b:
                heapreplace(fbheap, (live, c, nid, node))
                continue
            heapreplace(fbheap, (b + 1, c, nid, node))
            return node


def make_router(policy: str, **kwargs) -> Router:
    """Build a router by policy name.

    Args:
        policy: One of :data:`ROUTER_POLICIES`.
        **kwargs: Forwarded to the router's constructor (e.g.
            ``spill_backlog`` for ``affinity``).

    Returns:
        A fresh :class:`Router`.

    Raises:
        ValueError: On an unknown policy name.
    """
    if policy == "round-robin":
        return RoundRobinRouter(**kwargs)
    if policy == "least-loaded":
        return LeastLoadedRouter(**kwargs)
    if policy == "affinity":
        return AffinityRouter(**kwargs)
    if policy == "backend-affinity":
        return BackendAffinityRouter(**kwargs)
    raise ValueError(
        f"unknown router policy {policy!r}; choose from {ROUTER_POLICIES}"
    )
