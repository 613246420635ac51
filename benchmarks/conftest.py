"""Shared benchmark plumbing.

Every benchmark regenerates one paper artifact via its experiment runner,
times it with pytest-benchmark, and prints the data series (the rows the
paper's table/figure reports).  Heavy experiments run in ``fast`` mode for
the timed iterations and full mode once for the printed table.

Each bench module also leaves a machine-readable perf artifact behind:
``BENCH_<name>.json`` next to the module (``bench_serving.py`` ->
``BENCH_serving.json``), holding the mean per-round wall time plus key
metrics per entry.  Committed across PRs, these files are the repo's perf
trajectory — diff them to see what a change did to the hot paths.  Every
artifact follows the schema pinned in :mod:`schema` (``wall_s`` per
entry, a ``machine`` tag at top level, normalized ``*_per_s`` throughput
keys) and is validated before being written.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.core.memo import PRICING_MEMO
from repro.experiments.registry import run_experiment

_SCHEMA_SPEC = importlib.util.spec_from_file_location(
    "bench_schema", Path(__file__).resolve().parent / "schema.py"
)
_schema = importlib.util.module_from_spec(_SCHEMA_SPEC)
_SCHEMA_SPEC.loader.exec_module(_schema)

_printed = set()
#: bench name -> entry name -> {"wall_s": ..., **metrics}
_PERF: Dict[str, Dict[str, Dict[str, Any]]] = {}


def _bench_name(request) -> str:
    """``benchmarks/bench_serving.py`` -> ``serving``."""
    stem = Path(str(request.node.fspath)).stem
    return stem[len("bench_"):] if stem.startswith("bench_") else stem


def record_perf(bench: str, entry: str, wall_s: float, **metrics: Any) -> None:
    """Register one perf data point for this session's BENCH_<bench>.json."""
    _PERF.setdefault(bench, {})[entry] = _schema.migrate_entry(
        {"wall_s": round(wall_s, 6), **metrics}
    )


@pytest.fixture(autouse=True)
def cold_pricing_memo():
    """Start every benchmark from an empty process-wide pricing memo, so
    its figure does not depend on which benchmarks ran before it."""
    PRICING_MEMO.clear()


@pytest.fixture
def perf_record(request):
    """Per-module recorder: ``perf_record("entry", benchmark, **metrics)``
    pulls the mean per-round seconds from the finished benchmark fixture,
    so every artifact entry has the same timing semantics."""

    def _rec(entry: str, benchmark: Any, **metrics: Any) -> None:
        record_perf(
            _bench_name(request),
            entry,
            float(benchmark.stats.stats.mean),
            **metrics,
        )

    return _rec


def pytest_sessionfinish(session, exitstatus):
    if exitstatus != 0:
        return  # don't let a failed/partial run corrupt the perf trajectory
    outdir = Path(__file__).resolve().parent
    for bench, entries in sorted(_PERF.items()):
        path = outdir / f"BENCH_{bench}.json"
        merged: Dict[str, Any] = {}
        if path.exists():  # partial runs (-k, single module) keep old entries
            try:
                old = json.loads(path.read_text()).get("entries", {})
                merged = {k: _schema.migrate_entry(v) for k, v in old.items()}
            except (json.JSONDecodeError, AttributeError):
                merged = {}
        merged.update(entries)
        payload = {
            "bench": bench,
            "machine": _schema.machine_tag(),
            "entries": {k: merged[k] for k in sorted(merged)},
        }
        _schema.validate_bench_payload(payload)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def bench_experiment(
    benchmark, capsys, experiment_id: str, fast_timing: bool = True, recorder=None
):
    """Benchmark an experiment runner and print its full-result table once."""
    timed = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"fast": fast_timing},
        rounds=1,
        iterations=1,
    )
    if recorder is not None:
        recorder(
            f"experiment:{experiment_id}",
            benchmark,
            fast=fast_timing,
            rows=len(timed.rows),
            checks_pass=timed.all_checks_pass,
        )
    if experiment_id not in _printed:
        _printed.add(experiment_id)
        result = run_experiment(experiment_id, fast=False)
        with capsys.disabled():
            print()
            print(result.to_table())
        assert result.all_checks_pass, f"shape checks failed for {experiment_id}"


@pytest.fixture
def run_bench(benchmark, capsys, perf_record):
    def _run(experiment_id: str, fast_timing: bool = True):
        bench_experiment(
            benchmark, capsys, experiment_id, fast_timing, recorder=perf_record
        )

    return _run
