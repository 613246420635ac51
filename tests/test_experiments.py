"""Integration tests: every experiment runner executes and its paper-shape
checks pass (fast mode where sweeps allow), and its fast-mode rows equal
the golden fixture (``tests/experiments_fixture.py``) bit for bit."""

import pytest
from experiments_fixture import load, pinned_rows

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment

FAST_OK = sorted(EXPERIMENTS)
GOLDEN = load()


class TestRegistry:
    def test_all_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "fig01",
            "tab01",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "claims",
            "ablations",
            "serve",
            "serve-cluster",
            "serve-autoscale",
            "serve-genai",
            "serve-hetero",
            "serve-chaos",
            "serve-scale",
            "serve-observe",
            "serve-fast",
        }

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")


@pytest.mark.parametrize("eid", FAST_OK)
def test_runner_fast_mode(eid):
    result = run_experiment(eid, fast=True)
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{eid} produced no rows"
    assert result.experiment_id == eid
    failed = [name for name, ok in result.checks.items() if not ok]
    assert not failed, f"{eid} shape checks failed: {failed}"
    got, want = pinned_rows(result), GOLDEN[eid]
    assert len(got) == len(want), f"{eid}: {len(got)} rows, fixture has {len(want)}"
    for i, (row, pinned) in enumerate(zip(got, want)):
        assert row == pinned, f"{eid} row {i} differs from tests/fixtures/experiments_fast.json"


@pytest.mark.parametrize("eid", ["fig09", "fig10", "fig14"])
def test_runner_full_mode_spot(eid):
    """Spot-run a few cheap experiments at full fidelity."""
    result = run_experiment(eid, fast=False)
    assert result.all_checks_pass


class TestResultContainer:
    def test_table_rendering(self):
        r = ExperimentResult("x01", "demo", paper_reference="Fig. X")
        r.add(a=1, b=2.5)
        r.add(a=3, b=1e7)
        r.note("a note")
        r.check("always", True)
        text = r.to_table()
        assert "x01" in text and "demo" in text and "Fig. X" in text
        assert "a note" in text
        assert "check[PASS]: always" in text
        assert "1.000e+07" in text

    def test_columns_union(self):
        r = ExperimentResult("x", "t")
        r.add(a=1)
        r.add(b=2)
        assert r.columns() == ["a", "b"]

    def test_all_checks_pass_default_true(self):
        assert ExperimentResult("x", "t").all_checks_pass

    def test_failed_check_flagged(self):
        r = ExperimentResult("x", "t")
        r.check("bad", False)
        assert not r.all_checks_pass
        assert "check[FAIL]: bad" in r.to_table()

    def test_max_rows_truncation(self):
        r = ExperimentResult("x", "t")
        for i in range(10):
            r.add(i=i)
        assert r.to_table(max_rows=3).count("\n") < r.to_table().count("\n")


class TestCli:
    def test_cli_single(self, capsys):
        from repro.experiments.cli import main

        rc = main(["fig14", "--fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig14" in out

    def test_cli_unknown(self, capsys):
        from repro.experiments.cli import main

        assert main(["nope"]) == 2
