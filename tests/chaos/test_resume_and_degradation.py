"""Chaos suite: interrupted sweeps resume; broken results degrade.

Two end-to-end recovery stories. First, a sweep killed mid-run (a
``KeyboardInterrupt`` raised by the pipeline of one of its jobs) has
already cached every job it finished, so re-running it executes *only*
the missing jobs. Second, a result the differential oracle rejects
becomes an explicit hole: the experiment still renders (with its
failures called out) and the CLI exits 3 instead of publishing
silently-partial data.
"""

import random
from itertools import compress

import pytest

from repro.analysis import experiments
from repro.analysis.engine import ExperimentEngine, SimJob, configure
from repro.analysis.report import render
from repro.core.config import use_based_config
from repro.workloads.suite import SHORT_SUITE
from tests.faulty import arm, draw_hits

pytestmark = pytest.mark.chaos

SCALE = 0.05
NAMES = ("compress", "pointer_chase", "hash_dict")


def _jobs():
    return [
        SimJob(config=use_based_config(), trace_name=name, scale=SCALE)
        for name in NAMES
    ]


def test_interrupted_sweep_resumes_only_missing_jobs(
    chaos_seed, tmp_path, monkeypatch,
):
    jobs = _jobs()
    # Spare the first job, so there is finished work to resume.
    interrupted = random.Random(chaos_seed).randrange(1, len(jobs))
    cache = tmp_path / "rcache"
    arm(monkeypatch, "interrupt", [jobs[interrupted]])
    first = ExperimentEngine(workers=1, cache_dir=cache)
    with pytest.raises(KeyboardInterrupt):
        first.run(jobs)
    # Every job finished before the interrupt was already folded in.
    assert first.counters.executed == interrupted

    arm(monkeypatch, None)
    second = ExperimentEngine(workers=1, cache_dir=cache)
    results = second.run(_jobs())
    assert all(stats.retired > 0 for stats in results)
    assert second.counters.cache_hits == interrupted
    assert second.counters.executed == len(jobs) - interrupted


def test_invalid_results_degrade_to_partial_experiment(
    chaos_seed, tmp_path, monkeypatch,
):
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    monkeypatch.setenv("REPRO_SUITE", "short")
    # The jobs fig1 runs: one lifetime-recording config per trace.
    jobs = [
        SimJob(config=use_based_config(record_lifetimes=True),
               trace_name=name, scale=SCALE)
        for name in SHORT_SUITE
    ]
    arm(monkeypatch, "invalid", compress(jobs, draw_hits(len(jobs), chaos_seed)))
    configure(workers=1, cache_dir=tmp_path / "rcache")
    try:
        result = experiments.fig1_lifetimes()
        failures = result.meta["failures"]
        assert failures
        assert all(f["kind"] == "invalid" for f in failures)
        assert len(failures) < len(jobs)  # partial, not empty
        text = render(result)
        assert "failed:" in text

        # The CLI renders the partial figure but refuses exit code 0.
        assert experiments.main(["fig1", "--quiet"]) == 3
    finally:
        configure()
