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


def test_each_registry_entry_submits_one_engine_call(tmp_path, monkeypatch):
    """Every figure hands its whole grid to the engine at once.

    The engine call is stubbed: each job gets the real statistics of its
    trace under one lifetime-logging config, so every entry can
    aggregate and render without simulating its grid.
    """
    from repro.analysis.engine import ExperimentEngine, SimJob, configure
    from repro.core.config import use_based_config

    real = ExperimentEngine(workers=1, cache_dir=tmp_path)
    stats_of: dict[str, object] = {}
    calls: list[int] = []

    def one_call(jobs, **kwargs):
        jobs = list(jobs)
        calls.append(len(jobs))
        for job in jobs:
            if job.trace_name not in stats_of:
                probe = SimJob(
                    config=use_based_config(record_lifetimes=True),
                    trace_name=job.trace_name, scale=job.scale, seed=job.seed,
                )
                stats_of[job.trace_name] = real.run([probe])[0]
        return [stats_of[job.trace_name] for job in jobs]

    monkeypatch.setenv("REPRO_SCALE", "0.02")
    engine = configure(workers=1, cache_dir=tmp_path)
    monkeypatch.setattr(engine, "run", one_call)
    try:
        for name, runner in EXPERIMENTS.items():
            calls.clear()
            result = runner()
            render(result)
            expected = 0 if name == "table1" else 1
            assert len(calls) == expected, (name, calls)
    finally:
        configure()


def test_tuning_defaults_runs_its_default_config_once(tmp_path, monkeypatch):
    """The grid names the default config twice (unknown 1 and fill 0):
    on an empty cache 48 of its 56 slots execute, and all 56 fill."""
    from repro.analysis.engine import configure

    monkeypatch.setenv("REPRO_SUITE", "full")
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    engine = configure(workers=1, cache_dir=tmp_path)
    try:
        result = EXPERIMENTS["tuning_defaults"]()
    finally:
        configure()
    meta = result.meta["engine"]
    assert (meta["jobs"], meta["executed"], meta["cache_hits"]) == (56, 48, 8)
    assert "failures" not in result.meta
    unknown_1 = next(row for row in result.rows if row[:2] == ["unknown", 1])
    fill_0 = next(row for row in result.rows if row[:2] == ["fill", 0])
    assert unknown_1[2] == fill_0[2] > 0
    assert engine.counters.executed == 48


def test_fig2_reuses_the_lifetime_logs_fig1_decoded(tmp_path, monkeypatch):
    """fig1 and fig2 share one config, so on a filled cache the pair
    reads and decodes each of the 8 lifetime-carrying results once."""
    from repro.analysis.engine import ExperimentEngine, configure

    monkeypatch.setenv("REPRO_SUITE", "full")
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    configure(workers=1, cache_dir=tmp_path)
    try:
        EXPERIMENTS["fig1"]()  # fill the cache
        loads: list[str] = []
        real = ExperimentEngine._cache_load

        def counted(self, job, key=None):
            loads.append(key)
            return real(self, job, key=key)

        monkeypatch.setattr(ExperimentEngine, "_cache_load", counted)
        engine = configure(workers=1, cache_dir=tmp_path)
        fig1 = EXPERIMENTS["fig1"]()
        fig2 = EXPERIMENTS["fig2"]()
    finally:
        configure()
    assert len(loads) == len(set(loads)) == 8
    assert engine.counters.executed == 0
    assert fig1.meta["engine"]["cache_hits"] == 8
    assert fig2.meta["engine"]["cache_hits"] == 8
