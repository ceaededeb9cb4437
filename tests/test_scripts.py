"""The command-line scripts under ``scripts/``, run in-process."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name, monkeypatch):
    """The script ``name`` as a module (registered, as its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_the_counterexample_sweep_prints_one_row_per_claim_and_size(capsys, monkeypatch):
    sweep = _load("counterexample_sweep", monkeypatch)
    assert sweep.main(["--states", "1,2"]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["claim", "n"]
    assert set(rule) == {"-"}
    assert [tuple(row.split()[:2]) for row in rows] == [
        (claim, n) for claim in sweep.DEFAULT_CLAIMS for n in ("1", "2")
    ]
    assert all("not found" in row for row in rows)


def test_the_counterexample_sweep_refuses_an_empty_family_before_any_row(capsys, monkeypatch):
    sweep = _load("counterexample_sweep", monkeypatch)
    with pytest.raises(SystemExit) as exit_:
        sweep.main(["--states", "1,3", "--denominator", "2", "--full-support"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: denominator too small for a full-support prior on the powerset\n")


def test_the_agreement_experiment_finds_no_violation_and_equal_values_at_p_1(
    capsys, monkeypatch
):
    experiment = _load("agreement_experiment", monkeypatch)
    assert experiment.run(experiment.parse_args(["--models", "20", "--states", "3"])) == 0
    out = capsys.readouterr().out
    assert "no bound violations" in out
    # the p = 1 row: p, cases, max spread, bound 1 - p, tight
    (row,) = [line.split() for line in out.splitlines() if line.split()[:1] == ["1"]]
    assert row[2:4] == ["0", "0"] and int(row[1]) > 0
