"""Benchmark-harness configuration.

Each ``test_bench_*`` module regenerates one table or figure of the
paper via :mod:`repro.analysis.experiments`, times it with
pytest-benchmark, prints the rendered ASCII artifact, and asserts its
qualitative shape.

Workload scale is controlled with ``REPRO_SCALE`` (default 0.2 here to
keep the full harness to a few minutes) and ``REPRO_SUITE``.

**Regression gating:** set ``REPRO_BENCH_BASELINE=<old BENCH_*.json>``
while also passing ``--benchmark-json=<new path>`` and the session runs
``repro.analysis.obs``'s compare gate over the freshly written JSON at
exit, failing the session (exit code 1) on a regression. This turns the
recorded ``BENCH_*.json`` trajectory into an enforceable contract.
``REPRO_BENCH_REL_TOL`` relaxes the wall-clock tolerance (a float, e.g.
``1.5``) for runners slower than the baseline machine.
"""

import os

import pytest

os.environ.setdefault("REPRO_SCALE", "0.2")
os.environ.setdefault("REPRO_SUITE", "full")


@pytest.fixture
def run_experiment(benchmark):
    """Run one experiment exactly once under the benchmark timer and
    print its rendered table."""
    from repro.analysis.report import render

    def runner(fn, *args, **kwargs):
        result = benchmark.pedantic(
            lambda: fn(*args, **kwargs), rounds=1, iterations=1,
        )
        engine_meta = getattr(result, "meta", {}).get("engine")
        if engine_meta:
            # Persist engine activity (cache hits, jobs executed, wall
            # clock) alongside the timing in the bench JSON.
            benchmark.extra_info["engine"] = engine_meta
        print()
        print(render(result))
        return result

    return runner


def _benchmark_json_path(config) -> str | None:
    """The ``--benchmark-json`` target path, if one was requested."""
    target = getattr(config.option, "benchmark_json", None)
    if target is None:
        return None
    # pytest-benchmark stores an open file object (argparse FileType).
    return getattr(target, "name", None) or (
        target if isinstance(target, str) else None
    )


@pytest.hookimpl(trylast=True)  # after pytest-benchmark writes its JSON
def pytest_sessionfinish(session, exitstatus):
    baseline = os.environ.get("REPRO_BENCH_BASELINE")
    if not baseline:
        return
    current = _benchmark_json_path(session.config)
    if not current or not os.path.exists(current):
        return
    from repro.analysis.obs import Thresholds, compare_files

    thresholds = None
    rel_tol = os.environ.get("REPRO_BENCH_REL_TOL")
    if rel_tol:
        # CI runners are slower and noisier than the machine that
        # recorded the baseline; let the workflow relax the wall-clock
        # tolerance without touching the quality/rate gates.
        try:
            thresholds = Thresholds(rel_time=float(rel_tol))
        except ValueError:
            print(f"\nbench gate: ignoring REPRO_BENCH_REL_TOL={rel_tol!r}")
    try:
        regressions, compared = compare_files(baseline, current, thresholds)
    except (OSError, ValueError) as error:
        print(f"\nbench gate: skipped ({error})")
        return
    print(f"\nbench gate: {compared} metrics vs {baseline}, "
          f"{len(regressions)} regressions")
    for regression in regressions:
        print(f"  {regression}")
    if regressions:
        session.exitstatus = 1
