"""Shared experiment plumbing: result container and table formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Rows + metadata regenerating one paper table/figure."""

    experiment_id: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    paper_reference: str = ""
    notes: List[str] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Optional chart spec: {"kind": "stacked"|"grouped"|"line", ...kwargs}.
    chart: Optional[Dict[str, Any]] = None
    #: Columns measured on the host's wall clock (timings, rates), which
    #: differ from run to run; every other cell is deterministic.
    timing_columns: Tuple[str, ...] = ()

    def add(self, **kwargs: Any) -> None:
        self.rows.append(kwargs)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def check(self, name: str, ok: bool) -> None:
        """Record a paper-shape assertion (who wins / crossover / direction)."""
        self.checks[name] = bool(ok)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        return cols

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Render the rows as a fixed-width text table."""
        cols = self.columns()
        rows = self.rows if max_rows is None else self.rows[:max_rows]

        def fmt(v: Any) -> str:
            if isinstance(v, float):
                if v == 0:
                    return "0"
                if abs(v) >= 1e5 or abs(v) < 1e-3:
                    return f"{v:.3e}"
                return f"{v:.3f}"
            return str(v)

        table = [[fmt(r.get(c, "")) for c in cols] for r in rows]
        widths = [
            max(len(c), *(len(t[i]) for t in table)) if table else len(c)
            for i, c in enumerate(cols)
        ]
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
        ]
        if self.paper_reference:
            lines.append(f"   (paper: {self.paper_reference})")
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for t in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(t, widths)))
        for n in self.notes:
            lines.append(f"note: {n}")
        for name, ok in self.checks.items():
            lines.append(f"check[{'PASS' if ok else 'FAIL'}]: {name}")
        return "\n".join(lines)

    def render_chart(self) -> str:
        """Render this result's figure-shaped ASCII chart (if declared)."""
        if not self.chart:
            return "(no chart declared for this experiment)"
        from repro.reporting import (
            cost_bars,
            grouped_bars,
            line_plot,
            phase_breakdown,
            scaling_plot,
            stacked_bars,
            timeline_plot,
        )

        spec = dict(self.chart)
        kind = spec.pop("kind")
        spec.setdefault("title", f"{self.experiment_id}: {self.title}")
        rows = spec.pop("rows", None) or self.rows
        if kind == "stacked":
            return stacked_bars(rows, **spec)
        if kind == "grouped":
            return grouped_bars(rows, **spec)
        if kind == "line":
            return line_plot(rows, **spec)
        if kind == "scaling":
            return scaling_plot(rows, **spec)
        if kind == "timeline":
            return timeline_plot(rows, **spec)
        if kind == "cost":
            return cost_bars(rows, **spec)
        if kind == "phases":
            return phase_breakdown(rows, **spec)
        raise ValueError(f"unknown chart kind {kind!r}")
