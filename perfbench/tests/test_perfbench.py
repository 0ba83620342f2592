"""Self-tests of the benchmark.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

They run real workloads on a small registry subset at a tiny scale, so
they take about 20 s.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

#: fig9 batches configurations over a shared front end; fig8 does not,
#: and runs second so that it also hits results fig9 cached.
SUBSET = "table1,fig9,fig8"
TINY = 0.01
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reports() -> dict:
    return {
        workload: run.measure(
            workload, seed=5, seconds=0.0, trace=True, scale=TINY,
            experiments=SUBSET,
        )
        for workload in run.WORKLOADS
    }


def test_declared_names_match_the_code():
    from repro.analysis.experiments import EXPERIMENTS
    from repro.workloads.suite import DEFAULT_SUITE

    declared = _declared()
    assert [m["name"] for m in declared["end_to_end"]] == list(
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    names = layers.per_layer_names(DEFAULT_SUITE, list(EXPERIMENTS))
    assert [m["name"] for m in declared["per_layer"]] == names
    for metric in declared["per_layer"]:
        assert metric["unit"] == layers.unit_of(metric["name"])
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]


def test_printed_names_equal_declared(reports):
    declared = _declared()
    for report in reports.values():
        assert list(report.end_to_end()) == [
            m["name"] for m in declared["end_to_end"]
        ]
        assert list(report.per_layer()) == [
            m["name"] for m in declared["per_layer"]
        ]


def test_smoke_runs_have_no_failed_jobs(reports):
    for report in reports.values():
        assert report.correct, report.errors
        assert report.failed == 0
        assert report.end_to_end()["job_ok_ratio"] == 1.0


def test_self_times_fit_in_wall(reports):
    for report in reports.values():
        traced = report.traced
        assert 0 < traced["self_sum_s"] <= traced["wall_s"]


def test_workloads_split_the_layers(reports):
    cold = reports["all-cold"].traced
    warm = reports["all-warm"].traced
    assert cold["layers"]["pipeline.run_s"] > 0.5 * cold["wall_s"]
    assert warm["layers"]["pipeline.run_s"] == 0
    assert warm["layers"]["engine.cache_hit_ratio"] == 1.0
    assert cold["layers"]["frontend.plans"] > 0


def test_cold_and_warm_agree_on_simulated_counts(reports):
    cold = reports["all-cold"].per_layer()
    warm = reports["all-warm"].per_layer()
    sim = [name for name in cold if name.startswith("sim.")]
    assert [cold[name] for name in sim] == [warm[name] for name in sim]
    assert cold["sim.retired"] > 0


def test_command_prints_one_json_line_last():
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all-cold",
         "--seed", "5", "--seconds", "0", "--trace", "0",
         "--scale", str(TINY), "--experiments", "table1,fig8"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name]
        assert metric["value"] > 0
