"""The timing core against recorded truth, and shared-work equivalence.

``tests/golden/simstats.json`` holds hashes of ``SimStats`` recorded
from an earlier, independent implementation of the timing loop (the
per-cycle and event-driven cores it replaced were bit-identical to each
other). Today's core must reproduce every one: the counters of each
kernel x storage scheme at scale 0.02, the Fig-12 backing-latency point,
pointer_chase in the memory-stall regime, and the packed lifetime log
of every ``use_based`` run. Every run must also pass the differential
oracle. Same contract for the engine's shared-frontend sweep batching
and the precomputed branch plan it rides on.
"""

import json

import pytest

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
from repro.workloads.suite import load_trace
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


def test_branch_plan_matches_live_predictors():
    """A precomputed branch plan changes nothing about the simulation."""
    trace = load_trace("interp", scale=0.12)
    plan = branch_plan_for(trace)
    assert len(plan) == len(trace.records)
    assert branch_plan_for(trace) is plan  # memoized on the trace
    config = use_based_config()
    live = Pipeline(trace, config).run()
    planned = Pipeline(trace, config, branch_plan=plan).run()
    assert planned.to_dict() == live.to_dict()


def _sweep_jobs(trace):
    configs = [
        use_based_config(backing_read_latency=latency)
        for latency in (1, 3)
    ] + [lru_config(), two_level_config(), monolithic_config(3)]
    return [
        SimJob.for_trace(trace, config, label=f"cfg{i}")
        for i, config in enumerate(configs)
    ]


def test_batched_sweep_matches_unbatched():
    """Shared-frontend batching returns the exact per-job results."""
    trace = load_trace("crc", scale=0.12)
    unbatched = ExperimentEngine(
        workers=1, use_cache=False, batching=False,
    ).run(_sweep_jobs(trace))
    batched = ExperimentEngine(
        workers=1, use_cache=False, batching=True,
    ).run(_sweep_jobs(trace))
    assert len(batched) == len(unbatched)
    for batched_stats, unbatched_stats in zip(batched, unbatched):
        assert batched_stats.to_dict() == unbatched_stats.to_dict()
