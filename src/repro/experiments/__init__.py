"""Experiment runners: one module per paper table/figure.

Each runner returns an :class:`~repro.experiments.common.ExperimentResult`
whose rows regenerate the corresponding artifact's data series.  Run them
from the CLI::

    python -m repro.experiments fig06
    python -m repro.experiments all

or programmatically::

    from repro.experiments import run_experiment
    result = run_experiment("fig09")
    print(result.to_table())
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "common": ("ExperimentResult",),
        "registry": ("EXPERIMENTS", "run_experiment"),
    },
)
