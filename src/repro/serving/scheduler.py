"""Batch-level serving policies on top of the GEMM engines.

The paper's §V-B observation: StepStone saturates around batch 32 (scratch-
pad and SIMD limits), but larger request batches can be *split* into
batch-32 GEMMs — "StepStone PIM outperforms the CPU until N = 12 x 32 =
384" for BERT.  §I adds that the CPU stays free for "larger-batch and
colocated tasks", which enables a *hybrid* dispatch: run part of a large
batch on the CPU concurrently with the PIM sweep.

This module implements both policies and the latency-constrained throughput
search used by the §V-A claims.  The hybrid split bisects its CPU shares:
two families of shares in chunk quanta, on each of which the CPU time
never falls and the PIM time strictly does, so the best split costs
O(log(n / chunk)) scalar CPU-model calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Tuple

from repro.baselines.cpu import CpuGemmModel
from repro.core.gemm import GemmShape
from repro.core.memo import PRICING_MEMO
from repro.core.scheduler import choose_execution
from repro.core.system import StepStoneSystem

__all__ = ["ServingPoint", "HybridSplit", "BatchServer"]

_DRAM_HZ = 1.2e9


def _check_batch(name: str, n) -> None:
    """Raise ``ValueError`` unless ``n`` is a positive integer."""
    if type(n) is int and n >= 1:
        return  # the common case, without the slower ABC check
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class ServingPoint:
    """Latency/throughput of serving one batch."""

    batch: int
    latency_s: float
    backend: str

    @property
    def throughput(self) -> float:
        return self.batch / self.latency_s


@dataclass(frozen=True)
class HybridSplit:
    """A concurrent CPU+PIM split of one large batch."""

    cpu_batch: int
    pim_batch: int
    latency_s: float

    @property
    def total(self) -> int:
        return self.cpu_batch + self.pim_batch


class BatchServer:
    """Serving policies for one weight matrix on one StepStone system."""

    def __init__(
        self,
        system: Optional[StepStoneSystem] = None,
        cpu: Optional[CpuGemmModel] = None,
        max_pim_batch: int = 32,
    ) -> None:
        _check_batch("max_pim_batch", max_pim_batch)
        self.system = system or StepStoneSystem.default()
        self.cpu = cpu or CpuGemmModel()
        self.max_pim_batch = max_pim_batch

    # ------------------------------------------------------------------ #
    # Primitive latencies
    # ------------------------------------------------------------------ #

    def _pim_chunk_seconds(self, m: int, k: int, n: int) -> float:
        """Seconds of one PIM chunk, read through the process-wide
        ``chunk`` memo: servers on equal hardware share entries."""
        config, mapping = self.system.config, self.system.mapping
        return PRICING_MEMO.lookup(
            "chunk",
            (config.hardware_key, mapping.hardware_key, m, k, n),
            lambda: choose_execution(config, mapping, GemmShape(m, k, n)).cycles / _DRAM_HZ,
        )

    def pim_latency(self, m: int, k: int, n: int) -> float:
        """Latency of batch *n* on the PIMs, split into <=max_pim_batch
        chunks executed back to back (the §V-B splitting policy)."""
        _check_batch("batch", n)
        full, rem = divmod(n, self.max_pim_batch)
        t = full * self._pim_chunk_seconds(m, k, self.max_pim_batch) if full else 0.0
        if rem:
            t += self._pim_chunk_seconds(m, k, rem)
        return t

    def cpu_latency(self, m: int, k: int, n: int) -> float:
        _check_batch("batch", n)
        return self.cpu.gemm_seconds(GemmShape(m, k, n))

    def serve(self, m: int, k: int, n: int) -> ServingPoint:
        """Best single-engine dispatch for one batch."""
        pim = self.pim_latency(m, k, n)
        cpu = self.cpu_latency(m, k, n)
        if pim <= cpu:
            return ServingPoint(batch=n, latency_s=pim, backend="pim")
        return ServingPoint(batch=n, latency_s=cpu, backend="cpu")

    # ------------------------------------------------------------------ #
    # Paper-claim searches
    # ------------------------------------------------------------------ #

    def break_even_batch(self, m: int, k: int, n_max: int = 4096) -> int:
        """Largest batch (multiple of max_pim_batch) where PIM still beats
        the CPU — the §V-B "until N = 384" quantity for BERT's MLP."""
        _check_batch("n_max", n_max)
        best = 0
        n = self.max_pim_batch
        while n <= n_max:
            if self.pim_latency(m, k, n) < self.cpu_latency(m, k, n):
                best = n
            n += self.max_pim_batch
        return best

    def _candidate_batches(self, n_max: int) -> Tuple[int, ...]:
        """Batch sizes worth probing: powers of two (the classic sweep) plus
        every multiple of ``max_pim_batch``, where PIM chunking is exact."""
        cands = set()
        n = 1
        while n <= n_max:
            cands.add(n)
            n *= 2
        cands.update(range(self.max_pim_batch, n_max + 1, self.max_pim_batch))
        return tuple(sorted(cands))

    def throughput_under_latency(
        self, m: int, k: int, constraint_s: float, n_max: int = 1024
    ) -> ServingPoint:
        """Max-throughput batch meeting a latency constraint (§V-A).

        Probes powers of two *and* multiples of ``max_pim_batch``: chunk
        multiples are where PIM splitting is exact, and on the CPU side the
        fixed weight-streaming cost amortizes further at every extra sample,
        so the best feasible batch is often not a power of two.
        """
        if not (math.isfinite(constraint_s) and constraint_s > 0):
            raise ValueError(
                f"constraint_s must be finite and positive, got {constraint_s!r}"
            )
        _check_batch("n_max", n_max)
        best: Optional[ServingPoint] = None
        for n in self._candidate_batches(n_max):
            for backend, t in (
                ("pim", self.pim_latency(m, k, n)),
                ("cpu", self.cpu_latency(m, k, n)),
            ):
                if t <= constraint_s:
                    p = ServingPoint(batch=n, latency_s=t, backend=backend)
                    if best is None or p.throughput > best.throughput:
                        best = p
        if best is None:
            raise ValueError(f"no batch meets the {constraint_s:.2e}s constraint")
        return best

    def hybrid_split(self, m: int, k: int, n: int) -> HybridSplit:
        """Split one large batch across CPU and PIMs running concurrently.

        Minimizes ``max(t_cpu(share), t_pim(n - share))`` over CPU shares
        in PIM-chunk quanta — the §I colocation benefit expressed as a
        scheduling policy — priced bitwise as :meth:`cpu_latency` and
        :meth:`pim_latency` price them; ties go to the smallest CPU share.
        With ``F, r = divmod(n, step)`` the shares are two families: ``i *
        step`` (the PIMs run ``F - i`` chunks and the remainder) and, when
        ``r > 0``, ``r + i * step`` (``F - i`` whole chunks), for ``i`` in
        ``0..F``; so both endpoints (0 = all-PIM, n = all-CPU) are there.
        Within a family the PIM time strictly falls as ``i`` grows and the
        CPU time never does, so ``t_cpu >= t_pim`` holds from some first
        ``i`` on: a bisection finds it, and the family's best is that share
        or the one before it.
        """
        _check_batch("batch", n)
        step = self.max_pim_batch
        full, rem = divmod(n, step)
        # Every PIM share is whole chunks plus a remainder of 0 or rem,
        # so two chunk prices cover every share.
        chunk_s = self._pim_chunk_seconds(m, k, step) if full else 0.0
        rem_s = self._pim_chunk_seconds(m, k, rem) if rem else 0.0
        cpu_seconds = self.cpu.seconds
        splits = []  # (seconds, share) of each family's best two shares
        for first, tail in ((0, rem_s), (rem, 0.0)) if rem else ((0, 0.0),):
            # The first i in 0..full with t_cpu >= t_pim (full + 1: none).
            lo, hi = 0, full + 1
            while lo < hi:
                mid = (lo + hi) // 2
                share = first + mid * step
                t_cpu = cpu_seconds(m, k, share) if share else 0.0
                if t_cpu >= (full - mid) * chunk_s + tail:
                    hi, t_hi = mid, t_cpu
                else:
                    lo = mid + 1
            # Before lo the PIM side is the slower one, from lo the CPU.
            if lo:
                splits.append(((full - lo + 1) * chunk_s + tail, first + (lo - 1) * step))
            if lo <= full:
                splits.append((t_hi, first + lo * step))
        best_t, best_share = min(splits)
        return HybridSplit(cpu_batch=best_share, pim_batch=n - best_share, latency_s=best_t)
