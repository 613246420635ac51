"""Golden fixture of every experiment's ``--fast`` rows.

``tests/fixtures/experiments_fast.json`` maps each experiment id to its
rows in order, every float stored as its ``repr`` (so a change in the last
bit shows), ints, bools, strings and ``None`` as themselves.  The
columns an experiment names in ``ExperimentResult.timing_columns`` hold
host wall time and are left out.  ``tests/test_experiments.py`` compares
each experiment's rows with it in ``test_runner_fast_mode``.

Regenerate only when a change is meant to move experiment output, and
name the cells that moved in CHANGES.md:

    PYTHONPATH=src python tests/experiments_fixture.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "experiments_fast.json"


def _cell(value: Any) -> Any:
    if isinstance(value, float):
        return repr(float(value))
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def pinned_rows(result) -> List[Dict[str, Any]]:
    """``result``'s rows as stored in the fixture: floats by ``repr``,
    timing columns left out."""
    skip = set(result.timing_columns)
    return [{k: _cell(v) for k, v in row.items() if k not in skip} for row in result.rows]


def load() -> Dict[str, List[Dict[str, Any]]]:
    return json.loads(FIXTURE.read_text())


def regenerate() -> None:
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    rows = {eid: pinned_rows(run_experiment(eid, fast=True)) for eid in sorted(EXPERIMENTS)}
    FIXTURE.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, rows.values()))} rows of {len(rows)} experiments to {FIXTURE}")


if __name__ == "__main__":
    regenerate()
