"""Tests for ASCII chart rendering."""

import pytest

from repro.experiments.common import ExperimentResult
from repro.reporting.charts import grouped_bars, line_plot, stacked_bars


ROWS = [
    {"cfg": "BG-1", "gemm": 100.0, "loc": 20.0, "red": 10.0},
    {"cfg": "DV-1", "gemm": 300.0, "loc": 5.0, "red": 2.0},
]


class TestStacked:
    def test_renders_all_rows(self):
        out = stacked_bars(ROWS, "cfg", ["gemm", "loc", "red"])
        assert "BG-1" in out and "DV-1" in out
        assert "legend" in out

    def test_longest_bar_fills_width(self):
        out = stacked_bars(ROWS, "cfg", ["gemm", "loc", "red"], width=40)
        dv_line = next(ln for ln in out.splitlines() if ln.startswith("DV-1"))
        bar = dv_line.split("|")[1]
        assert bar.count(" ") <= 1  # the max row nearly fills the width

    def test_proportions(self):
        out = stacked_bars(ROWS, "cfg", ["gemm", "loc", "red"], width=40)
        bg_line = next(ln for ln in out.splitlines() if ln.startswith("BG-1"))
        bar = bg_line.split("|")[1]
        assert 0 < len(bar.replace(" ", "")) < 30

    def test_empty(self):
        assert stacked_bars([], "x", ["y"]) == "(no data)"

    def test_missing_components_treated_zero(self):
        out = stacked_bars([{"cfg": "a", "gemm": 1.0}], "cfg", ["gemm", "loc"])
        assert "a" in out


class TestGrouped:
    def test_values_shown(self):
        rows = [{"m": "a", "v": 2.0}, {"m": "b", "v": 4.0}]
        out = grouped_bars(rows, "m", "v")
        assert "2.00" in out and "4.00" in out

    def test_relative_lengths(self):
        rows = [{"m": "a", "v": 1.0}, {"m": "b", "v": 2.0}]
        out = grouped_bars(rows, "m", "v", width=20)
        a = next(ln for ln in out.splitlines() if ln.startswith("a"))
        b = next(ln for ln in out.splitlines() if ln.startswith("b"))
        assert b.count("#") == 2 * a.count("#")

    def test_empty(self):
        assert grouped_bars([], "x", "y") == "(no data)"


class TestLine:
    def test_basic_grid(self):
        rows = [{"x": 10.0 ** i, "y": 10.0 ** i} for i in range(4)]
        out = line_plot(rows, "x", ["y"], width=20, height=8)
        assert out.count("|") >= 16  # bordered grid rows
        assert "legend" in out

    def test_nan_and_nonpositive_skipped(self):
        rows = [{"x": 1.0, "y": float("nan")}, {"x": 2.0, "y": -1.0}]
        assert "(no plottable data)" in line_plot(rows, "x", ["y"])

    def test_multiple_series_glyphs(self):
        rows = [{"x": 1.0, "a": 1.0, "b": 10.0}, {"x": 10.0, "a": 2.0, "b": 20.0}]
        out = line_plot(rows, "x", ["a", "b"])
        assert "#" in out and "=" in out

    def test_empty(self):
        assert line_plot([], "x", ["y"]) == "(no data)"


class TestExperimentIntegration:
    def test_render_chart_no_spec(self):
        r = ExperimentResult("x", "t")
        assert "no chart" in r.render_chart()

    def test_render_chart_stacked(self):
        r = ExperimentResult("x", "t")
        r.add(cfg="a", gemm=1.0, loc=2.0)
        r.chart = {"kind": "stacked", "category_key": "cfg", "component_keys": ["gemm", "loc"]}
        assert "legend" in r.render_chart()

    def test_render_chart_unknown_kind(self):
        r = ExperimentResult("x", "t")
        r.chart = {"kind": "pie"}
        with pytest.raises(ValueError):
            r.render_chart()

    def test_every_figure_declares_a_chart(self):
        from repro.experiments.registry import run_experiment

        for eid in ("fig06", "fig09", "fig13", "fig14"):
            res = run_experiment(eid, fast=True)
            assert res.chart is not None
            assert len(res.render_chart()) > 50


class TestScalingPlot:
    ROWS = [
        {"nodes": 1, "cpu": 100.0, "hybrid": 200.0},
        {"nodes": 2, "cpu": 200.0, "hybrid": 400.0},
        {"nodes": 4, "cpu": 400.0, "hybrid": 400.0},
    ]

    def test_grid_and_value_table(self):
        from repro.reporting import scaling_plot

        out = scaling_plot(self.ROWS, "nodes", ["cpu", "hybrid"])
        assert "legend" in out
        assert "nodes" in out and "cpu" in out and "hybrid" in out
        # the value table carries the exact series values
        assert "400.00" in out and "100.00" in out

    def test_missing_series_value_dashed(self):
        from repro.reporting import scaling_plot

        rows = [{"nodes": 1, "cpu": 1.0}, {"nodes": 2, "cpu": 2.0, "hybrid": 4.0}]
        out = scaling_plot(rows, "nodes", ["cpu", "hybrid"])
        assert "-" in out.splitlines()[-2] + out.splitlines()[-1]

    def test_empty(self):
        from repro.reporting import scaling_plot

        assert scaling_plot([], "x", ["y"]) == "(no data)"

    def test_render_chart_scaling_with_row_override(self):
        r = ExperimentResult("x", "t")
        r.add(section="other", foo=1)
        r.chart = {
            "kind": "scaling",
            "rows": TestScalingPlot.ROWS,
            "x_key": "nodes",
            "y_keys": ["cpu", "hybrid"],
        }
        out = r.render_chart()
        assert "legend" in out and "400.00" in out


class TestTimelinePlot:
    ROWS = [
        {"t_s": 0.5, "nodes": 1, "offered_rps": 60.0, "p99_ms": 120.0},
        {"t_s": 1.0, "nodes": 2, "offered_rps": 200.0, "p99_ms": float("nan")},
        {"t_s": 1.5, "nodes": 4, "offered_rps": 500.0, "p99_ms": 380.0},
    ]

    def test_series_normalized_with_ranges_in_legend(self):
        from repro.reporting import timeline_plot

        out = timeline_plot(self.ROWS, "t_s", ["nodes", "offered_rps", "p99_ms"])
        assert "nodes [1.00 .. 4.00]" in out
        assert "offered_rps [60.00 .. 500.00]" in out
        assert "x: t_s [0.50 .. 1.50]" in out

    def test_nan_points_are_skipped(self):
        from repro.reporting import timeline_plot

        out = timeline_plot(self.ROWS, "t_s", ["p99_ms"])
        # two real points survive; the NaN window draws nothing
        grid = [ln for ln in out.splitlines() if ln.startswith("|")]
        assert sum(ln.count("#") for ln in grid) == 2

    def test_empty_and_all_nan(self):
        from repro.reporting import timeline_plot

        assert timeline_plot([], "t_s", ["nodes"]) == "(no data)"
        rows = [{"t_s": 0.0, "y": float("nan")}]
        out = timeline_plot(rows, "t_s", ["y"])
        assert "nan" in out.lower()  # legend shows an empty range

    def test_render_chart_timeline(self):
        r = ExperimentResult("x", "t")
        r.chart = {
            "kind": "timeline",
            "rows": TestTimelinePlot.ROWS,
            "x_key": "t_s",
            "y_keys": ["nodes"],
        }
        out = r.render_chart()
        assert "nodes [1.00 .. 4.00]" in out
