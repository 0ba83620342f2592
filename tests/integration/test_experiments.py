"""Integration tests for the experiment harness.

Every paper artifact function must run end to end at tiny scale and
return a well-formed, renderable result whose content passes basic
sanity checks.
"""

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.report import ExperimentResult, render

SCALE = 0.12

FAST_EXPERIMENTS = [
    "table1", "fig1", "fig2", "fig9", "fig10", "table2", "predictor",
]


@pytest.fixture(autouse=True)
def short_suite(monkeypatch):
    monkeypatch.setenv("REPRO_SUITE", "short")
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))


@pytest.mark.parametrize("name", FAST_EXPERIMENTS)
def test_experiment_runs_and_renders(name):
    result = EXPERIMENTS[name]()
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{name} produced no rows"
    for row in result.rows:
        assert len(row) == len(result.headers)
    text = render(result)
    assert result.experiment_id in text


def test_registry_covers_all_paper_artifacts():
    expected = {
        "table1", "fig1", "fig2", "fig6", "fig7", "fig8", "fig9",
        "fig10", "table2", "fig11", "fig12", "tuning_max_use",
        "tuning_defaults", "predictor", "s34_noise", "ablations",
    }
    assert expected == set(EXPERIMENTS)


def test_fig2_live_below_allocated():
    result = EXPERIMENTS["fig2"]()
    assert result.meta["live_p50"] < result.meta["alloc_p50"]


def test_fig8_small():
    result = EXPERIMENTS["fig8"]()
    # Six rows: three schemes x two indexing modes.
    assert len(result.rows) == 6
    for row in result.rows:
        scheme, indexing, filtered, capacity, conflict, total = row
        assert total == pytest.approx(filtered + capacity + conflict,
                                      abs=1e-9)


def test_fig11_small():
    result = EXPERIMENTS["fig11"](sizes=(16, 64))
    numeric_rows = [r for r in result.rows if isinstance(r[0], int)]
    assert {r[0] for r in numeric_rows} == {16, 64}
    for row in numeric_rows:
        for ipc in row[1:]:
            assert 0 < ipc < 8


def test_fig12_small():
    result = EXPERIMENTS["fig12"](latencies=(1, 4))
    numeric_rows = [r for r in result.rows if isinstance(r[0], int)]
    lat1 = next(r for r in numeric_rows if r[0] == 1)
    lat4 = next(r for r in numeric_rows if r[0] == 4)
    # Higher backing latency never helps any caching scheme.
    for col in range(1, 4):
        assert lat4[col] <= lat1[col] + 0.02


def test_tuning_max_use_small():
    result = EXPERIMENTS["tuning_max_use"](values=(2, 7))
    assert len(result.rows) == 2


def test_cli_main_runs(capsys):
    from repro.analysis.experiments import main
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out


def test_module_cli_runs_without_runtime_warning():
    """``python -m repro.analysis.experiments`` must not find its own
    module already imported by the package (a RuntimeWarning)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.analysis.experiments", "table1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "table1" in proc.stdout


def test_cli_main_rejects_unknown():
    from repro.analysis.experiments import main
    assert main(["figZZ"]) == 2


def test_cli_main_no_args_usage():
    from repro.analysis.experiments import main
    assert main([]) == 1


def test_cli_main_failed_experiment_exits_three(monkeypatch, capsys):
    import repro.analysis.experiments as experiments_mod
    from repro.errors import EngineError

    def boom():
        raise EngineError("1 of 9 jobs failed; first: gcc[register_cache]")

    monkeypatch.setitem(experiments_mod.EXPERIMENTS, "boom", boom)
    assert experiments_mod.main(["boom", "table1"]) == 3
    captured = capsys.readouterr()
    # The failure is reported on stderr; later experiments still render.
    assert "boom: FAILED" in captured.err
    assert "1 experiment(s) with failing jobs: boom" in captured.err
    assert "table1" in captured.out


def test_cli_main_verbose_and_quiet_flags(monkeypatch):
    import logging

    from repro.analysis.experiments import main
    from repro.obs.log import ROOT_LOGGER

    monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
    assert main(["--verbose", "table1"]) == 0
    assert logging.getLogger(ROOT_LOGGER).level == logging.INFO
    assert main(["-q", "table1"]) == 0
    assert logging.getLogger(ROOT_LOGGER).level == logging.ERROR
