"""Generative serving metrics: TTFT, inter-token latency, token goodput.

Request latency is the wrong unit for generation — a sequence that streams
its first token in 300 ms and then types at 20 tokens/s *feels* fast even
if its last token lands 5 s after arrival.  A :class:`GenReport` therefore
tracks the three numbers the serving literature (and the paper's
small-batch thesis) actually argue about:

* **TTFT** — time to first token, arrival to prefill completion.  The
  queueing metric: static batching destroys it (arrivals wait for the
  running batch to drain), continuous batching protects it;
* **ITL** — inter-token latency, the gap between consecutive emitted
  tokens of one sequence.  The smoothness metric: it reflects decode-step
  cost at the running batch width, plus any stalls from prefills and
  preemptions cutting in;
* **tokens/s** — emitted tokens per simulated second, the goodput that
  divides into :meth:`GenReport.cost_per_1k_tokens` for the economics.

TTFT and ITL accumulate in :class:`~repro.sim.stats.StreamStats`
sketches in both modes.  ``record="full"`` also keeps the per-sequence
:class:`GenCompletion` records in a plain append-only list;
``record="streaming"`` keeps only the flat-memory aggregates and raises
:class:`~repro.sim.stats.RecordingModeError` on per-sequence access —
counts, means, and TTFT answers match full mode exactly (percentiles are
sketched past the exact reservoir).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.genai.workload import GenRequest
from repro.serving.nodespec import NodeSpec
from repro.sim.stats import RecordingModeError, StreamStats

__all__ = ["GenCompletion", "GenRejection", "GenReport"]

_RECORD_MODES = ("full", "streaming")


@dataclass(frozen=True)
class GenCompletion:
    """One finished sequence with its phase timestamps."""

    request: GenRequest
    first_token_s: float
    finish_s: float
    tokens_out: int
    preemptions: int = 0

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival to prefill completion."""
        return self.first_token_s - self.request.arrival_s

    @property
    def e2e_s(self) -> float:
        """End-to-end latency: arrival to last token."""
        return self.finish_s - self.request.arrival_s


@dataclass(frozen=True)
class GenRejection:
    """A request refused at arrival (it could never fit the KV budget)."""

    request: GenRequest
    rejected_at_s: float
    reason: str = "exceeds-kv-capacity"


class GenReport:
    """Streaming TTFT/ITL/goodput accounting for one generative run."""

    def __init__(self, scheduler: str, record: str = "full") -> None:
        """Create an empty report.

        Args:
            scheduler: Label of the batching scheduler the run used.
            record: ``"full"`` keeps per-sequence records;
                ``"streaming"`` keeps aggregates only.

        Raises:
            ValueError: On an unknown recording mode.
        """
        if record not in _RECORD_MODES:
            raise ValueError(
                f"unknown record mode {record!r}; choose from {_RECORD_MODES}"
            )
        self.scheduler = scheduler
        self.record = record
        self.sim_end_s = 0.0
        self.tokens_out = 0
        self.preemptions = 0
        #: Peak depth of the admission queue — the saturation signal.
        self.peak_waiting = 0
        #: Peak KV tokens reserved at any event time (engine-filled).
        self.kv_high_water_tokens = 0
        #: The budget the run was admitted against (engine-filled).
        self.kv_capacity_tokens = 0
        #: Kernel events the run processed (engine-filled) — the
        #: denominator benchmarks divide wall time by.
        self.events_processed = 0
        #: Simulated seconds spent in prompt passes (engine-filled).
        #: Kept per phase so traced ``prefill-pass`` spans tie out with
        #: ``==`` — one accumulator per phase, same accumulation order.
        self.busy_prefill_s = 0.0
        #: Simulated seconds spent in decode boundaries (engine-filled).
        self.busy_decode_s = 0.0
        self._ttft = StreamStats()
        self._itl = StreamStats()
        self._rejected = 0
        self._completions: Optional[List[GenCompletion]] = (
            [] if record == "full" else None
        )

    def __repr__(self) -> str:
        return (
            f"GenReport(scheduler={self.scheduler!r}, record={self.record!r}, "
            f"served={self.served}, tokens_out={self.tokens_out}, "
            f"sim_end_s={self.sim_end_s:.3f})"
        )

    # ------------------------------------------------------------------ #
    # Recording (the engine's event paths)
    # ------------------------------------------------------------------ #

    def record_completion(self, c: GenCompletion) -> None:
        """Record one finished sequence (TTFT sample + token count)."""
        self._ttft.add(c.ttft_s)
        self.tokens_out += c.tokens_out
        if self._completions is not None:
            self._completions.append(c)

    def record_itl(self, gap_s: float) -> None:
        """Record one inter-token gap (every token after a sequence's
        first contributes exactly one)."""
        self._itl.add(gap_s)

    def record_itl_run(self, gap_s: float, n: int) -> None:
        """Record ``n`` consecutive inter-token gaps of one width.

        A decode boundary emits the same gap for every sequence that was
        active at the previous boundary, and a macro-stepped segment
        emits one gap per boundary for its whole batch — one run per
        boundary, however the boundaries are cut into segments, so the
        means and percentiles do not depend on the cut (run-batched P²
        updates included).
        """
        self._itl.add_run(gap_s, n)

    def record_rejection(self, r: GenRejection) -> None:
        """Record one arrival-time rejection."""
        self._rejected += 1

    # ------------------------------------------------------------------ #
    # Per-sequence access (full mode; streaming raises)
    # ------------------------------------------------------------------ #

    @property
    def completions(self) -> List[GenCompletion]:
        """Per-sequence completion records (``record="full"`` only).

        Raises:
            RecordingModeError: In streaming mode.
        """
        if self._completions is None:
            raise RecordingModeError(
                "per-sequence completions are not kept in streaming mode; "
                're-run with record="full"'
            )
        return self._completions

    # ------------------------------------------------------------------ #
    # Aggregates (both modes)
    # ------------------------------------------------------------------ #

    @property
    def served(self) -> int:
        """Sequences that finished (both modes)."""
        return self._ttft.count

    @property
    def rejected_count(self) -> int:
        """Arrivals refused at admission (both modes)."""
        return self._rejected

    @property
    def mean_ttft_s(self) -> float:
        """Mean time to first token (NaN when nothing finished)."""
        return self._ttft.mean

    def ttft_percentile(self, q: float) -> float:
        """TTFT percentile: exact nearest-rank up to the sketch's
        reservoir, P² estimate beyond it."""
        return self._ttft.percentile(q)

    @property
    def p95_ttft_s(self) -> float:
        """95th-percentile time to first token."""
        return self.ttft_percentile(95)

    @property
    def mean_itl_s(self) -> float:
        """Mean inter-token gap (NaN when no sequence emitted twice)."""
        return self._itl.mean

    def itl_percentile(self, q: float) -> float:
        """Inter-token-latency percentile (sketched like TTFT)."""
        return self._itl.percentile(q)

    @property
    def itl_samples(self) -> int:
        """Inter-token gaps recorded (= tokens_out − first tokens −
        resumed-prefill emissions folded in; both modes)."""
        return self._itl.count

    @property
    def busy_s(self) -> float:
        """Simulated seconds a phase (prefill pass or decode boundary)
        was in flight — ``busy_prefill_s + busy_decode_s``, the busy
        total a traced run's engine spans reproduce bit-for-bit."""
        return self.busy_prefill_s + self.busy_decode_s

    @property
    def tokens_per_s(self) -> float:
        """Goodput: emitted tokens per simulated second."""
        if self.sim_end_s <= 0:
            return 0.0
        return self.tokens_out / self.sim_end_s

    def cost_per_1k_tokens(self, spec: NodeSpec) -> float:
        """Dollars per 1000 emitted tokens when ``spec`` ran this trace.

        Args:
            spec: The node whose hourly price paid for the run.

        Returns:
            ``hourly_cost x hours / kilotokens`` — infinity for a run
            that emitted nothing.
        """
        if self.tokens_out <= 0:
            return float("inf")
        hours = self.sim_end_s / 3600.0
        return spec.hourly_cost * hours / (self.tokens_out / 1000.0)

    def summary(self) -> str:
        """One-line human-readable digest of the run."""
        return (
            f"{self.scheduler:>10}: {self.served} seqs, "
            f"{self.tokens_out} tokens | "
            f"TTFT mean {self.mean_ttft_s * 1e3:.0f} ms "
            f"p95 {self.p95_ttft_s * 1e3:.0f} ms | "
            f"ITL mean {self.mean_itl_s * 1e3:.1f} ms | "
            f"{self.tokens_per_s:.1f} tok/s"
        )
