"""The timing core against recorded truth, and the engine's job path.

``tests/golden/simstats.json`` holds hashes of ``SimStats`` recorded
from an earlier, independent implementation of the timing loop (the
per-cycle and event-driven cores it replaced were bit-identical to each
other). Today's core must reproduce every one: the counters of each
kernel x storage scheme at scale 0.02, the Fig-12 backing-latency point,
pointer_chase in the memory-stall regime, and the packed lifetime log
of every ``use_based`` run. Every run must also pass the differential
oracle. The hashes were recorded with branch predictors run live inside
each simulation; today the front end replays the trace's memoized
branch plan, so they pin that too. An engine sweep must return exactly
what direct ``Pipeline`` runs return, with one plan per trace.
"""

import json

import pytest

import repro.analysis.engine as engine_mod
from repro.analysis.engine import ExperimentEngine, SimJob
from repro.core.config import (
    lru_config,
    monolithic_config,
    two_level_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.frontend.fetch import branch_plan_for
from repro.testing.oracle import check_run
from repro.workloads.suite import clear_trace_memo, load_trace
from tests.golden.generate import (
    GOLDEN_PATH,
    SCALE,
    SEED,
    cases,
    counters_digest,
    lifetimes_digest,
    make_config,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = cases()


def _case_id(case) -> str:
    return case[0].replace("/", "-")


def test_golden_file_covers_every_case():
    assert GOLDEN["scale"] == SCALE and GOLDEN["seed"] == SEED
    assert sorted(GOLDEN["cases"]) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_cores_bit_identical_and_oracle_clean(case):
    case_id, kernel, scheme, overrides = case
    expected = GOLDEN["cases"][case_id]
    trace = load_trace(kernel, scale=SCALE, seed=SEED)
    config = make_config(scheme, overrides)
    stats = Pipeline(trace, config).run()
    assert counters_digest(stats) == expected["counters"]
    assert check_run(trace, stats) == []
    if config.record_lifetimes:
        assert lifetimes_digest(stats) == expected["lifetimes"]
        # The log is pure observation: turning it off moves nothing.
        plain = Pipeline(
            trace, config.replace(record_lifetimes=False)
        ).run()
        assert plain.lifetimes is None
        assert counters_digest(plain) == expected["counters"]


def _plan_counts(plan):
    """``(branches_seen, mispredicts)`` decoded from a branch plan
    (bit 0 of a code: conditional branch; bit 1: mispredicted)."""
    return (
        sum(code & 1 for code in plan),
        sum((code >> 1) & 1 for code in plan),
    )


def test_branch_plan_matches_live_predictors():
    """The memoized plan is what a run's front end counts."""
    trace = load_trace("interp", scale=0.12)
    plan = branch_plan_for(trace)
    assert len(plan) == len(trace.records)
    assert branch_plan_for(trace) is plan  # memoized on the trace
    pipeline = Pipeline(trace, use_based_config())
    stats = pipeline.run()
    frontend = pipeline.frontend
    assert (frontend.branches_seen, frontend.mispredicts) == (
        _plan_counts(plan)
    )
    assert stats.branch_mispredicts == frontend.mispredicts


def _sweep_jobs(trace):
    configs = [
        use_based_config(backing_read_latency=latency)
        for latency in (1, 3)
    ] + [lru_config(), two_level_config(), monolithic_config(3)]
    return [
        SimJob.for_trace(trace, config, label=f"cfg{i}")
        for i, config in enumerate(configs)
    ]


def test_batched_sweep_matches_unbatched(monkeypatch):
    """An engine sweep of several configs over one trace returns the
    direct-run results and computes the trace's branch plan once."""
    clear_trace_memo()
    trace = load_trace("crc", scale=0.12)
    jobs = _sweep_jobs(trace)
    calls = []
    computed = []
    plan_for = engine_mod.branch_plan_for

    def counting(trace):
        calls.append(trace)
        if getattr(trace, "_branch_plan", None) is None:
            computed.append(trace)
        return plan_for(trace)

    monkeypatch.setattr(engine_mod, "branch_plan_for", counting)
    swept = ExperimentEngine(workers=1, use_cache=False).run(jobs)
    assert len(calls) == len(jobs)
    assert len(computed) == 1  # once per trace per process
    direct = [Pipeline(trace, job.config).run() for job in jobs]
    assert [stats.to_dict() for stats in swept] == [
        stats.to_dict() for stats in direct
    ]
