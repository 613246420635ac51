"""Terminal rendering of experiment results as figure-shaped charts."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "charts": (
            "cost_bars",
            "grouped_bars",
            "line_plot",
            "phase_breakdown",
            "scaling_plot",
            "stacked_bars",
            "timeline_plot",
        ),
    },
)
