"""Chaos suite: every injected failure mode must recover.

Each test arms exactly one fault site through ``REPRO_FAULTS``, runs a
real sweep, and asserts two things: the run converges to the
*fault-free* result (bitwise, where the fault allows it), and the
recovery left the expected observability trail — the error, repair and
refused-write counts a production run would alarm on. The differential
oracle cross-checks every recovered sweep against a replay of its
traces. Every job gets one attempt, so a job-level fault must stay in
the slot of the job it hit, leave every other slot of the sweep
untouched, and a re-run with the plan disarmed must execute only the
holes.
"""

import itertools
import json

import pytest

from repro.analysis.engine import ExperimentEngine, JobFailure, SimJob
from repro.core.config import (
    lru_config,
    monolithic_config,
    non_bypass_config,
    two_level_config,
    use_based_config,
)
from repro.frontend.fetch import branch_plan_for
from repro.obs.manifest import read_manifest
from repro.testing import faults, oracle
from repro.workloads.suite import (
    clear_trace_memo,
    load_trace,
    trace_counters,
)
from tests.result_entries import entry_path, read_entry

pytestmark = pytest.mark.chaos

SCALE = 0.05
NAMES = ("compress", "pointer_chase")


def _jobs():
    return [
        SimJob(config=use_based_config(), trace_name=name, scale=SCALE)
        for name in NAMES
    ]


def _assert_oracle_clean(results):
    traces = {name: load_trace(name, scale=SCALE) for name in NAMES}
    by_name = dict(zip(NAMES, results))
    assert oracle.check_results(traces, by_name) == {}


def test_corrupt_result_cache_entry_repaired(
    chaos_seed, tmp_path, monkeypatch,
):
    """A cache entry corrupted at write time is never served: the next
    run detects it, re-simulates, and heals the entry in place."""
    cache = tmp_path / "rcache"
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)
    monkeypatch.setenv(
        "REPRO_FAULTS", f"corrupt_cache=1.0,times=1,seed={chaos_seed}",
    )
    first_engine = ExperimentEngine(workers=1, cache_dir=cache)
    first = first_engine.run([job])[0]
    path = entry_path(first_engine, job.cache_key())
    assert path.exists()
    with pytest.raises(ValueError):
        json.loads(path.read_text())  # the stored entry is garbage

    second_engine = ExperimentEngine(workers=1, cache_dir=cache)
    second = second_engine.run([job])[0]
    assert second.to_dict() == first.to_dict()
    assert second_engine.counters.executed == 1  # re-simulated, not served

    # The healed entry loads in the next process (a fresh engine).
    third_engine = ExperimentEngine(workers=1, cache_dir=cache)
    third = third_engine.run([job])[0]
    assert third.to_dict() == first.to_dict()
    assert third_engine.counters.cache_hits == 1  # entry healed
    assert third_engine.counters.executed == 0
    assert read_entry(path)[1].cycles == first.cycles


def test_truncated_trace_cache_entry_repaired_and_counted(
    chaos_seed, monkeypatch,
):
    """A truncated packed trace triggers the repair path: regenerate,
    bump ``trace_cache_repairs``, and report it in the manifest's
    ``run`` record."""
    repairs_before = trace_counters().repairs
    monkeypatch.setenv(
        "REPRO_FAULTS", f"truncate_trace=1.0,times=1,seed={chaos_seed}",
    )
    first = load_trace("compress", scale=SCALE)  # stores truncated bytes

    clear_trace_memo()
    engine = ExperimentEngine(workers=1, use_cache=False)
    engine.run(_jobs()[:1])  # the job's trace load meets the bad entry
    assert trace_counters().repairs == repairs_before + 1
    assert read_manifest(engine.manifest.path)[-1]["trace_cache_repairs"] == 1
    second = load_trace("compress", scale=SCALE)
    assert len(second.records) == len(first.records)

    clear_trace_memo()
    third = load_trace("compress", scale=SCALE)  # healed entry loads
    assert trace_counters().repairs == repairs_before + 1
    assert len(third.records) == len(first.records)


def test_manifest_enospc_never_fails_the_run(
    chaos_seed, tmp_path, monkeypatch,
):
    """A full filesystem degrades observability, not the experiment."""
    monkeypatch.setenv(
        "REPRO_FAULTS", f"enospc=1.0,times=100,seed={chaos_seed}",
    )
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path / "rcache")
    results = engine.run(_jobs())
    assert all(stats.retired > 0 for stats in results)
    assert engine.counters.errors == 0
    assert engine.counters.snapshot()["manifest_write_failures"] >= 3
    assert not engine.manifest.path.exists()  # every write was refused
    _assert_oracle_clean(results)


# ----------------------------------------------------------------------
# Faults inside one sweep: several configs over one trace, the shape of
# every figure's grid.

#: What each job-level fault site leaves in its slot.
SITE_KINDS = {"crash": "crash", "bad_stats": "invalid"}


def _sweep_jobs():
    configs = [
        use_based_config(), lru_config(), non_bypass_config(),
        monolithic_config(3), two_level_config(),
    ]
    return [
        SimJob(config=config, trace_name="compress", scale=SCALE)
        for config in configs
    ]


def _spec_hitting_some(site, chaos_seed, jobs):
    """A fault spec for *site* that hits some but not all of *jobs*,
    and which jobs it hits."""
    for seed in itertools.count(chaos_seed):
        spec = f"{site}=0.5,seed={seed}"
        plan = faults.parse_plan(spec)
        hit = [plan.decide(site, job.fault_identity()) for job in jobs]
        if any(hit) and not all(hit):
            return spec, hit


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("site", sorted(SITE_KINDS))
def test_sweep_fault_stays_in_its_own_slot(
    chaos_seed, monkeypatch, site, workers,
):
    """A job-level fault fails only the jobs it hits; every other slot
    of the sweep equals a fault-free run over the same memoized trace
    and branch plan."""
    jobs = _sweep_jobs()
    baseline = ExperimentEngine(workers=1, use_cache=False).run(jobs)
    trace = jobs[0].resolve_trace()
    plan = branch_plan_for(trace)
    spec, hit = _spec_hitting_some(site, chaos_seed, jobs)
    monkeypatch.setenv("REPRO_FAULTS", spec)
    engine = ExperimentEngine(workers=workers, use_cache=False)
    results = engine.run(jobs, raise_on_error=False)
    for slot, was_hit, expected in zip(results, hit, baseline):
        if was_hit:
            assert isinstance(slot, JobFailure)
            assert slot.kind == SITE_KINDS[site]
        else:
            assert slot.to_dict() == expected.to_dict()
    assert engine.counters.errors == sum(hit)
    assert jobs[0].resolve_trace() is trace
    assert branch_plan_for(trace) is plan


@pytest.mark.parametrize("workers", [1, 2])
def test_rerun_after_crash_executes_only_the_holes(
    chaos_seed, tmp_path, monkeypatch, workers,
):
    """A crash leaves a ``crash`` hole in each slot it hits and caches
    every other result; once the plan is disarmed, a re-run on the same
    cache executes only the holes and converges to the fault-free
    results."""
    jobs = _sweep_jobs()
    baseline = [
        stats.to_dict()
        for stats in ExperimentEngine(workers=1, use_cache=False).run(jobs)
    ]
    spec, hit = _spec_hitting_some("crash", chaos_seed, jobs)
    cache = tmp_path / "rcache"
    monkeypatch.setenv("REPRO_FAULTS", spec)
    first = ExperimentEngine(workers=workers, cache_dir=cache)
    results = first.run(jobs, raise_on_error=False)
    for job, slot, was_hit, expected in zip(jobs, results, hit, baseline):
        if was_hit:
            assert isinstance(slot, JobFailure)
            assert slot.kind == "crash"
            assert first._cache_load(job) is None
        else:
            assert slot.to_dict() == expected
            assert first._cache_load(job).to_dict() == expected

    monkeypatch.delenv("REPRO_FAULTS")
    faults.reset()
    second = ExperimentEngine(workers=workers, cache_dir=cache)
    rerun = second.run(jobs)
    assert second.counters.executed == sum(hit)
    assert [stats.to_dict() for stats in rerun] == baseline
    trace = load_trace("compress", scale=SCALE)
    for stats in rerun:
        assert oracle.check_run(trace, stats) == []
