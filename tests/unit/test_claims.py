"""Tests for the claims check (:mod:`repro.analysis.claims`) and the
experiments CLI's exit code 4."""

import pytest

import repro.analysis.experiments as experiments_mod
from repro.analysis.claims import CLAIMS, broken_claims
from repro.analysis.experiments import EXPERIMENTS, main
from repro.analysis.report import ExperimentResult


def _table1(mismatch: bool, **meta) -> ExperimentResult:
    rows = [["issue width", 8, 8], ["window", 64 if mismatch else 128, 128]]
    return ExperimentResult(
        experiment_id="table1", title="t",
        headers=["parameter", "ours", "paper"], rows=rows, meta=meta,
    )


def test_every_experiment_has_claims():
    assert set(CLAIMS) == set(EXPERIMENTS)


def test_mismatched_row_is_reported_by_name():
    assert broken_claims("table1", _table1(mismatch=False)) == []
    [claim] = broken_claims("table1", _table1(mismatch=True))
    assert claim.startswith("window:")


def test_broken_claim_exits_four(monkeypatch, capsys):
    monkeypatch.setitem(
        experiments_mod.EXPERIMENTS, "table1", lambda: _table1(mismatch=True),
    )
    assert main(["table1"]) == 4
    captured = capsys.readouterr()
    assert "claim broken: table1: window:" in captured.err
    assert "1 experiment(s) with broken claims: table1" in captured.err
    assert "table1" in captured.out  # the table still renders


def test_partial_result_exits_three_unchecked(monkeypatch, capsys):
    failures = [{"job": "gcc[lru]", "kind": "error", "error": "boom"}]
    partial = _table1(mismatch=True, failures=failures)
    monkeypatch.setitem(experiments_mod.EXPERIMENTS, "table1", lambda: partial)
    assert main(["table1"]) == 3
    assert "claim broken" not in capsys.readouterr().err

    # Failed jobs outrank a broken claim elsewhere in the batch.
    monkeypatch.setitem(experiments_mod.EXPERIMENTS, "fig1", lambda: partial)
    monkeypatch.setitem(
        experiments_mod.EXPERIMENTS, "table1", lambda: _table1(mismatch=True),
    )
    assert main(["fig1", "table1"]) == 3
    assert "claim broken: table1: window:" in capsys.readouterr().err


def test_suite_typo_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_SUITE", "shrot")
    with pytest.raises(ValueError, match="'full' or 'short'"):
        experiments_mod._names()
