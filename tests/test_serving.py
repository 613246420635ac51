"""Tests for the batch-serving layer (§V-A/V-B policies)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cpu import CpuGemmModel
from repro.core.gemm import GemmShape
from repro.serving.scheduler import BatchServer, HybridSplit


@pytest.fixture(scope="module")
def srv():
    return BatchServer()


class TestPrimitive:
    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            BatchServer(max_pim_batch=0)

    @pytest.mark.parametrize("chunk", [-1, 2.5, math.nan, True])
    def test_chunk_must_be_a_positive_integer(self, chunk):
        with pytest.raises(ValueError, match="max_pim_batch"):
            BatchServer(max_pim_batch=chunk)

    @pytest.mark.parametrize("method", ["pim_latency", "cpu_latency", "serve", "hybrid_split"])
    @pytest.mark.parametrize("n", [0, -5, 2.5, math.nan])
    def test_impossible_batches_are_rejected(self, srv, method, n):
        # pim_latency(1024, 1024, -5) used to price a negative latency.
        with pytest.raises(ValueError, match="positive integer"):
            getattr(srv, method)(1024, 1024, n)

    @pytest.mark.parametrize("constraint", [math.nan, math.inf, 0.0, -1e-3])
    def test_bad_latency_constraint_is_rejected_up_front(self, srv, constraint):
        with pytest.raises(ValueError, match="constraint_s must be finite and positive"):
            srv.throughput_under_latency(1024, 1024, constraint)

    def test_pim_latency_splits(self, srv):
        t32 = srv.pim_latency(1024, 4096, 32)
        t64 = srv.pim_latency(1024, 4096, 64)
        assert t64 == pytest.approx(2 * t32)

    def test_remainder_chunk(self, srv):
        t40 = srv.pim_latency(1024, 4096, 40)
        t32 = srv.pim_latency(1024, 4096, 32)
        assert t40 > t32
        assert t40 < 2 * t32  # the 8-sample tail is cheaper than a full chunk

    def test_serve_prefers_pim_small_batch(self, srv):
        p = srv.serve(1024, 4096, 4)
        assert p.backend == "pim"

    def test_serve_prefers_cpu_huge_batch(self, srv):
        p = srv.serve(1024, 4096, 2048)
        assert p.backend == "cpu"


class TestClaims:
    def test_break_even_past_saturation(self, srv):
        """§V-B: splitting keeps PIM ahead well past batch 32."""
        be = srv.break_even_batch(1024, 4096, n_max=1024)
        assert be >= 64
        # And the crossover exists: the CPU eventually wins.
        assert be < 1024

    def test_throughput_under_cpu_batch1_latency(self, srv):
        constraint = srv.cpu_latency(1024, 4096, 1)
        p = srv.throughput_under_latency(1024, 4096, constraint)
        assert p.backend == "pim"
        assert p.throughput > 20 * (1.0 / constraint)  # the §V-A 77x family

    def test_impossible_constraint(self, srv):
        with pytest.raises(ValueError):
            srv.throughput_under_latency(1024, 4096, 1e-9)

    def test_probes_chunk_multiples_not_just_pow2(self, srv):
        """Regression: a power-of-two-only sweep misses the best batch.

        With the constraint set to the CPU latency of batch 416 (a multiple
        of the 32-sample chunk), the pow2 sweep tops out at 256 (512 misses
        the constraint) while 416 amortizes the weight stream further and is
        strictly better.
        """
        m, k = 1024, 4096
        constraint = srv.cpu_latency(m, k, 416)
        pow2_best = 0.0
        n = 1
        while n <= 1024:
            for t in (srv.pim_latency(m, k, n), srv.cpu_latency(m, k, n)):
                if t <= constraint:
                    pow2_best = max(pow2_best, n / t)
            n *= 2
        p = srv.throughput_under_latency(m, k, constraint, n_max=1024)
        assert p.batch % srv.max_pim_batch == 0
        assert p.batch == 416
        assert p.throughput > pow2_best


class TestHybrid:
    def test_hybrid_no_worse_than_pim_only(self, srv):
        n = 512
        pim_only = srv.pim_latency(1024, 4096, n)
        h = srv.hybrid_split(1024, 4096, n)
        assert h.latency_s <= pim_only
        assert h.total == n

    def test_hybrid_uses_both_for_large_batches(self, srv):
        h = srv.hybrid_split(1024, 4096, 512)
        assert h.cpu_batch > 0 and h.pim_batch > 0

    def test_hybrid_small_batch_stays_on_pim(self, srv):
        h = srv.hybrid_split(1024, 4096, 16)
        assert h.cpu_batch == 0

    def test_invalid_batch(self, srv):
        with pytest.raises(ValueError):
            srv.hybrid_split(1024, 4096, 0)

    def test_hybrid_evaluates_all_cpu_endpoint(self):
        """Regression: for n=40 < one 64-sample chunk, the old chunk-quanta
        share grid was {0}, so the all-CPU split was never evaluated even
        when the CPU wins the whole batch outright."""
        srv = BatchServer(max_pim_batch=64)
        m, k, n = 256, 256, 40
        assert srv.cpu_latency(m, k, n) < srv.pim_latency(m, k, n)
        h = srv.hybrid_split(m, k, n)
        assert h.cpu_batch == n and h.pim_batch == 0
        assert h.latency_s == pytest.approx(srv.cpu_latency(m, k, n))

    def test_hybrid_never_worse_than_either_backend(self, srv):
        """With both endpoints in the share grid, the hybrid split is a
        relaxation of single-backend dispatch for any n, pow2 or not."""
        for m, k, n in [(256, 256, 40), (1024, 4096, 40), (1024, 4096, 100)]:
            h = srv.hybrid_split(m, k, n)
            assert h.total == n
            assert h.latency_s <= srv.cpu_latency(m, k, n)
            assert h.latency_s <= srv.pim_latency(m, k, n)

    def test_hybrid_probes_remainder_shares(self, srv):
        """CPU shares that leave the PIM side an exact chunk multiple are in
        the grid: for n=40 the winning split keeps 8 samples off the PIMs."""
        h = srv.hybrid_split(256, 256, 40)
        assert h.cpu_batch in (32, 8, 40)  # quanta, remainder, or endpoint
        assert h.pim_batch + h.cpu_batch == 40

    def test_chunk_cache_reused(self):
        from repro.core.memo import PRICING_MEMO

        srv = BatchServer()
        srv.pim_latency(1024, 4096, 96)
        n1 = PRICING_MEMO.size("chunk")
        srv.pim_latency(1024, 4096, 960)
        assert PRICING_MEMO.size("chunk") == n1


# --------------------------------------------------------------------------
# Oracle: the per-share scan ``hybrid_split`` ran before it evaluated the
# whole share grid as arrays.  The array pass must return the very same
# split, float for float, including the scan's first-minimum tie-break.
# --------------------------------------------------------------------------


def _scan_hybrid_split(srv, m, k, n):
    step = srv.max_pim_batch
    shares = {0, n}
    shares.update(range(step, n, step))
    shares.update(n - j for j in range(step, n, step))
    best = None
    for cpu_share in sorted(shares):
        pim_share = n - cpu_share
        t_cpu = srv.cpu_latency(m, k, cpu_share) if cpu_share else 0.0
        t_pim = srv.pim_latency(m, k, pim_share) if pim_share else 0.0
        t = max(t_cpu, t_pim)
        if best is None or t < best.latency_s:
            best = HybridSplit(cpu_batch=cpu_share, pim_batch=pim_share, latency_s=t)
    return best


_ORACLE_SERVERS = {}


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([64, 256, 1024]),
    k=st.sampled_from([256, 1024, 4096]),
    n=st.integers(1, 700),
    step=st.sampled_from([8, 16, 32, 64]),
)
def test_hybrid_split_matches_the_share_scan(m, k, n, step):
    srv = _ORACLE_SERVERS.setdefault(step, BatchServer(max_pim_batch=step))
    got = srv.hybrid_split(m, k, n)
    want = _scan_hybrid_split(srv, m, k, n)
    assert got == want
    assert type(got.cpu_batch) is int and type(got.latency_s) is float


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 8192),
    k=st.integers(1, 8192),
    ns=st.lists(st.integers(1, 4096), min_size=1, max_size=20),
)
def test_cpu_array_formula_matches_scalar(m, k, ns):
    """``gemm_seconds_many`` is ``gemm_seconds`` per batch, bitwise."""
    cpu = CpuGemmModel()
    got = cpu.gemm_seconds_many(m, k, np.array(ns)).tolist()
    assert got == [cpu.gemm_seconds(GemmShape(m, k, n)) for n in ns]


class _FlatCpu:
    """A CPU whose every GEMM takes the same time (forces ties)."""

    def gemm_seconds(self, shape):
        return 3.5

    def gemm_seconds_many(self, m, k, ns):
        return np.full(len(ns), 3.5)


def test_hybrid_split_ties_go_to_the_smallest_cpu_share(monkeypatch):
    """Every share that leaves the PIMs at most three chunks ties at the
    CPU's 3.5 s; the scan kept the first (smallest) of them, so must
    the array pass."""
    srv = BatchServer(cpu=_FlatCpu(), max_pim_batch=32)
    monkeypatch.setattr(srv, "_pim_chunk_seconds", lambda m, k, n: 1.0)
    got = srv.hybrid_split(1024, 4096, 100)
    assert got == _scan_hybrid_split(srv, 1024, 4096, 100)
    assert got == HybridSplit(cpu_batch=4, pim_batch=96, latency_s=3.5)
