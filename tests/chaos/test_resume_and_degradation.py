"""Chaos suite: interrupted sweeps resume; broken results degrade.

Two end-to-end recovery stories. First, a sweep killed mid-run (an
injected ``KeyboardInterrupt`` between jobs) has already cached every
job it finished, so re-running it executes *only* the missing jobs.
Second, a result the differential oracle rejects becomes an explicit
hole: the experiment still renders (with its failures called out) and
the CLI exits 3 instead of publishing silently-partial data.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.engine import ExperimentEngine, SimJob, configure
from repro.analysis.report import render
from repro.core.config import use_based_config
from repro.testing import faults
from repro.workloads.suite import SHORT_SUITE
from repro.analysis.sweeps import load_traces

pytestmark = pytest.mark.chaos

SCALE = 0.05
NAMES = ("compress", "pointer_chase", "hash_dict")


def _jobs():
    return [
        SimJob(config=use_based_config(), trace_name=name, scale=SCALE)
        for name in NAMES
    ]


def _probe_seed(site, identities, start):
    """First seed >= *start* whose plan fires mid-sweep.

    The fault must spare the first job (so there is finished work to
    resume / a partial result to render) but hit at least one other.
    Decisions are pure in (seed, site, identity), so this probe costs
    a few hashes, not simulations.
    """
    for seed in range(start, start + 10_000):
        plan = faults.FaultPlan(
            seed=seed, rates=faults.MappingProxyType({site: 0.5}),
        )
        fires = [
            plan.decide(site, identity)
            for identity in identities
        ]
        if not fires[0] and any(fires):
            return seed, fires.index(True)
    pytest.fail(f"no workable {site} seed within 10000 of {start}")


def test_interrupted_sweep_resumes_only_missing_jobs(
    chaos_seed, tmp_path, monkeypatch,
):
    jobs = _jobs()
    seed, fire_index = _probe_seed(
        "interrupt", [job.fault_identity() for job in jobs], chaos_seed,
    )
    cache = tmp_path / "rcache"
    monkeypatch.setenv(
        "REPRO_FAULTS", f"interrupt=0.5,times=1,seed={seed}",
    )
    first = ExperimentEngine(workers=1, cache_dir=cache)
    with pytest.raises(KeyboardInterrupt):
        first.run(jobs)
    # Every job finished before the interrupt was already folded in.
    assert first.counters.executed == fire_index

    monkeypatch.delenv("REPRO_FAULTS")
    faults.reset()
    second = ExperimentEngine(workers=1, cache_dir=cache)
    results = second.run(_jobs())
    assert all(stats.retired > 0 for stats in results)
    assert second.counters.cache_hits == fire_index
    assert second.counters.executed == len(jobs) - fire_index


def test_invalid_results_degrade_to_partial_experiment(
    chaos_seed, tmp_path, monkeypatch,
):
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    monkeypatch.setenv("REPRO_SUITE", "short")
    traces = load_traces(SHORT_SUITE, SCALE)
    jobs = [
        SimJob.for_trace(trace, use_based_config(), label=name)
        for name, trace in traces.items()
    ]
    seed, _ = _probe_seed(
        "bad_stats", [job.fault_identity() for job in jobs], chaos_seed,
    )
    monkeypatch.setenv(
        "REPRO_FAULTS", f"bad_stats=0.5,times=1,seed={seed}",
    )
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
