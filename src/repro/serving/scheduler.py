"""Batch-level serving policies on top of the GEMM engines.

The paper's §V-B observation: StepStone saturates around batch 32 (scratch-
pad and SIMD limits), but larger request batches can be *split* into
batch-32 GEMMs — "StepStone PIM outperforms the CPU until N = 12 x 32 =
384" for BERT.  §I adds that the CPU stays free for "larger-batch and
colocated tasks", which enables a *hybrid* dispatch: run part of a large
batch on the CPU concurrently with the PIM sweep.

This module implements both policies and the latency-constrained throughput
search used by the §V-A claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Tuple

import numpy as np

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
        t = full * self._pim_chunk_seconds(m, k, self.max_pim_batch)
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

        Searches CPU shares in PIM-chunk quanta and minimizes
        ``max(t_cpu(share), t_pim(n - share))`` — the §I colocation benefit
        expressed as a scheduling policy.  Every share is evaluated in one
        whole-array pass, bitwise what :meth:`cpu_latency` and
        :meth:`pim_latency` give per share; ties go to the smallest CPU
        share.
        """
        _check_batch("batch", n)
        step = self.max_pim_batch
        # CPU shares in chunk quanta, the *remainder* shares that leave the
        # PIM side an exact multiple of the chunk, and always both endpoints
        # (0 = all-PIM, n = all-CPU) — so a batch smaller than one chunk, or
        # one whose tail chunk is slow, can still fall back to pure CPU.
        shares = {0, n}
        shares.update(range(step, n, step))
        shares.update(n - j for j in range(step, n, step))
        cpu = np.array(sorted(shares))
        # Every PIM share is whole chunks plus a remainder of 0 or
        # n mod step, so two chunk prices cover the grid.
        full, rem = np.divmod(n - cpu, step)
        chunk_s = self._pim_chunk_seconds(m, k, step) if n >= step else 0.0
        rem_s = self._pim_chunk_seconds(m, k, n % step) if n % step else 0.0
        t_pim = full * chunk_s + np.where(rem > 0, rem_s, 0.0)
        busy = cpu > 0
        t_cpu = np.zeros(len(cpu))
        t_cpu[busy] = self.cpu.gemm_seconds_many(m, k, cpu[busy])
        t = np.maximum(t_cpu, t_pim)
        i = int(np.argmin(t))
        cpu_share = int(cpu[i])
        return HybridSplit(
            cpu_batch=cpu_share, pim_batch=n - cpu_share, latency_s=float(t[i])
        )
