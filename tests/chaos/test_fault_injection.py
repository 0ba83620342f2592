"""Chaos suite: every failure mode must recover.

Each test faults the real engine through one of its own seams — a
faulty pipeline bound to ``engine.Pipeline``, a cache entry truncated on
disk, a manifest the OS refuses — runs a real sweep, and asserts two
things: the run converges to the *fault-free* result (bitwise, where
the fault allows it), and the recovery left the expected observability
trail — the error, repair and refused-write counts a production run
would alarm on. The differential oracle cross-checks every recovered
sweep against a replay of its traces. Every job gets one attempt, so a
job-level fault must stay in the slot of the job it hit, leave every
other slot of the sweep untouched, and a re-run with the real pipeline
must execute only the holes.
"""

import json
from itertools import compress
from pathlib import Path

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
from repro.testing import oracle
from repro.workloads.suite import (
    clear_trace_memo,
    load_trace,
    trace_counters,
)
from tests.faulty import arm, draw_hits, needs_fork
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


def _truncate(path: Path) -> None:
    """Cut the file at *path* to a third of its bytes, as a write torn
    by a full disk or a crash would leave it."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 3])


def test_corrupt_result_cache_entry_repaired(tmp_path):
    """A truncated cache entry is never served: the next run detects
    it, re-simulates, and heals the entry in place."""
    cache = tmp_path / "rcache"
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)
    first_engine = ExperimentEngine(workers=1, cache_dir=cache)
    first = first_engine.run([job])[0]
    path = entry_path(first_engine, job.cache_key())
    _truncate(path)
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


def test_truncated_trace_cache_entry_repaired_and_counted(tmp_path):
    """A truncated packed trace triggers the repair path: regenerate,
    bump ``trace_cache_repairs``, and report it in the manifest's
    ``run`` record."""
    repairs_before = trace_counters().repairs
    first = load_trace("compress", scale=SCALE)  # stores the entry
    [path] = (tmp_path / "cache" / "traces").rglob("*.trace")
    _truncate(path)

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


def test_refused_manifest_writes_never_fail_the_run(tmp_path, monkeypatch):
    """A filesystem that refuses the manifest degrades observability,
    not the experiment."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a regular file: no directory goes under it
    monkeypatch.setenv("REPRO_MANIFEST", str(blocker / "manifest.jsonl"))
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path / "rcache")
    results = engine.run(_jobs())
    assert all(stats.retired > 0 for stats in results)
    assert engine.counters.errors == 0
    assert engine.counters.snapshot()["manifest_write_failures"] >= 3
    assert not engine.manifest.path.exists()  # every write was refused
    _assert_oracle_clean(results)


# ----------------------------------------------------------------------
# Faults inside one sweep: several configs over one trace, the shape of
# every figure's grid. A ``crash`` exits a pool worker, so it runs only
# in a pool; every pooled case needs its workers forked.


def _sweep_jobs():
    configs = [
        use_based_config(), lru_config(), non_bypass_config(),
        monolithic_config(3), two_level_config(),
    ]
    return [
        SimJob(config=config, trace_name="compress", scale=SCALE)
        for config in configs
    ]


@pytest.mark.parametrize("fault, workers", [
    pytest.param("crash", 2, marks=needs_fork),
    ("error", 1),
    pytest.param("error", 2, marks=needs_fork),
    ("invalid", 1),
    pytest.param("invalid", 2, marks=needs_fork),
])
def test_sweep_fault_stays_in_its_own_slot(
    chaos_seed, monkeypatch, fault, workers,
):
    """A job-level fault fails only the jobs it hits, as a hole of its
    own kind; every other slot of the sweep equals a fault-free run over
    the same memoized trace and branch plan."""
    jobs = _sweep_jobs()
    baseline = ExperimentEngine(workers=1, use_cache=False).run(jobs)
    trace = jobs[0].resolve_trace()
    plan = branch_plan_for(trace)
    hit = draw_hits(len(jobs), chaos_seed)
    arm(monkeypatch, fault, compress(jobs, hit))
    engine = ExperimentEngine(workers=workers, use_cache=False)
    results = engine.run(jobs, raise_on_error=False)
    for slot, was_hit, expected in zip(results, hit, baseline):
        if was_hit:
            assert isinstance(slot, JobFailure)
            assert slot.kind == fault
        else:
            assert slot.to_dict() == expected.to_dict()
    assert engine.counters.errors == sum(hit)
    assert jobs[0].resolve_trace() is trace
    assert branch_plan_for(trace) is plan


@pytest.mark.parametrize("fault, workers", [
    pytest.param("crash", 2, marks=needs_fork),
    ("error", 1),
])
def test_rerun_executes_only_the_holes(
    chaos_seed, tmp_path, monkeypatch, fault, workers,
):
    """A fault leaves a hole in each slot it hits and caches every other
    result; with the real pipeline back, a re-run on the same cache
    executes only the holes and converges to the fault-free results."""
    jobs = _sweep_jobs()
    baseline = [
        stats.to_dict()
        for stats in ExperimentEngine(workers=1, use_cache=False).run(jobs)
    ]
    hit = draw_hits(len(jobs), chaos_seed)
    cache = tmp_path / "rcache"
    arm(monkeypatch, fault, compress(jobs, hit))
    first = ExperimentEngine(workers=workers, cache_dir=cache)
    results = first.run(jobs, raise_on_error=False)
    for job, slot, was_hit, expected in zip(jobs, results, hit, baseline):
        if was_hit:
            assert isinstance(slot, JobFailure)
            assert slot.kind == fault
            assert first._cache_load(job) is None
        else:
            assert slot.to_dict() == expected
            assert first._cache_load(job).to_dict() == expected

    arm(monkeypatch, None)
    second = ExperimentEngine(workers=workers, cache_dir=cache)
    rerun = second.run(jobs)
    assert second.counters.executed == sum(hit)
    assert [stats.to_dict() for stats in rerun] == baseline
    trace = load_trace("compress", scale=SCALE)
    for stats in rerun:
        assert oracle.check_run(trace, stats) == []
