"""The process-wide GEMM pricing memo.

Pricing one GEMM chunk walks its block groups and the AGEN's per-step
iterations, but almost all of that work depends only on the *weight
footprint* — mapping, PIM level, padded M x K, base and pinned ID bits —
never on the batch N.  This memo keeps each such fact once per process,
in five named tables:

* ``footprint`` — per footprint: its
  :class:`~repro.mapping.analysis.FootprintAnalysis` (three GF(2)
  eliminations; the per-(PIM, group) work table is built on first read),
  built by a plan (:func:`repro.core.gemm.plan_gemm`) or added by a
  search candidate once priced;
* ``profile`` — per footprint and config: the critical PIM's per-group
  cadence histograms and row-miss counts, read once per priced candidate
  (:func:`repro.core.executor._price`);
* ``unit`` — per (config, unit): a
  :class:`~repro.core.executor._UnitConstants` of the unit, DMA, launch
  and refresh constants, with each partitioning and fill stream on the
  unit computed once;
* ``candidates`` — per (config, mapping, padded m, k) and search space
  (levels, pinned-bit bound): one :class:`~repro.core.executor._Candidate`
  per (level, pinned ID bits), holding its footprint's analysis, the
  critical-PIM totals the search bound reads and the memo keys, so a new
  width of a known weight shape starts from arithmetic
  (:func:`repro.core.scheduler.choose_execution`);
* ``chunk`` — per (config, mapping, m, k, n): the seconds of one
  ``choose_execution`` chunk (:class:`repro.serving.scheduler.BatchServer`).

Every key is a value-based hardware identity
(:attr:`StepStoneConfig.hardware_key <repro.core.config.StepStoneConfig.hardware_key>`,
:attr:`XORAddressMapping.hardware_key
<repro.mapping.xor_mapping.XORAddressMapping.hardware_key>`, frozen
dataclasses), never ``id()``: an id is reused once its object is
collected, which would serve stale entries.  Equal hardware therefore
shares entries across engines, and different hardware never collides.
Entries hold no n_blk-long traces: a profile is a few scalars per group
of the critical PIM (its O(n_cols) per-access tuples are built only when
read), every other PIM is a count in the analysis, and an analysis is a
few echelon bases (its array views are built only when read).

Hits and misses are counted on the telemetry bus
(:data:`repro.obs.telemetry.BUS`) as ``pricing.memo.hit`` /
``pricing.memo.miss`` labeled ``memo=<table>``; while the bus is disabled
the count is one attribute check.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

from repro.obs.telemetry import BUS

__all__ = ["PricingMemo", "PRICING_MEMO"]


class PricingMemo:
    """Named memo tables shared by every pricing call in the process."""

    TABLES = ("footprint", "profile", "unit", "candidates", "chunk")

    def __init__(self) -> None:
        self._tables: Dict[str, Dict[Hashable, Any]] = {name: {} for name in self.TABLES}

    def lookup(self, table: str, key: Hashable, build: Callable[[], Any]) -> Any:
        """The entry of ``table`` under ``key``, built by ``build()`` on a miss."""
        entries = self._tables[table]
        value = entries.get(key)
        if value is None:
            value = entries[key] = build()
            if BUS.enabled:
                BUS.inc("pricing.memo.miss", memo=table)
        elif BUS.enabled:
            BUS.inc("pricing.memo.hit", memo=table)
        return value

    def size(self, table: str) -> int:
        """Number of entries in ``table``."""
        return len(self._tables[table])

    def clear(self) -> None:
        """Drop every entry of every table, so the next pricing is cold
        (cold-start measurements and tests)."""
        for entries in self._tables.values():
            entries.clear()


#: The one memo every planner, executor and batch server reads through.
PRICING_MEMO = PricingMemo()
