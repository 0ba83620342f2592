"""Harness speedups: engine fan-out, result cache, the pipeline hot loop,
predecoded VM dispatch and the on-disk trace cache.

These track the performance of the harness itself, not a paper artifact
(the paper's shapes are checked by ``python -m repro.analysis.experiments
all``; see ``repro.analysis.claims``). Each test times both sides with
``time.perf_counter`` and prints what it measured. Speedup assertions
that depend on real parallel hardware skip on single-core machines.

Run with ``PYTHONPATH=src python -m pytest -s benchmarks``; the tier-1
suite does not collect this directory. ``REPRO_SCALE`` (default 0.2)
sets the trace length.
"""

import gc
import os
import time

import pytest

from repro.analysis.engine import ExperimentEngine, SimJob
from repro.core.config import (
    lru_config,
    monolithic_config,
    non_bypass_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.vm.machine import Machine
from repro.workloads import suite
from repro.workloads.suite import build_program, clear_trace_memo, load_trace

SCALE = float(os.environ.get("REPRO_SCALE", "0.2"))
TRACE_NAMES = ("compress", "pointer_chase", "interp", "hash_dict")
CONFIGS = (
    use_based_config(),
    lru_config(),
    non_bypass_config(),
    monolithic_config(3),
)


def _grid_jobs():
    """The 4x4 sweep grid used by both engine speedups."""
    return [
        SimJob(config=config, trace_name=name, scale=SCALE, label=name)
        for config in CONFIGS
        for name in TRACE_NAMES
    ]


def _timed(fn):
    # Collect first, so garbage left by an earlier test or pass is not
    # collected inside this timed pass.
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_parallel_vs_serial():
    """4x4 sweep, serial pass vs process-pool pass (cache disabled)."""
    cpus = os.cpu_count() or 1
    serial_engine = ExperimentEngine(workers=1, use_cache=False)
    serial_stats, serial_s = _timed(lambda: serial_engine.run(_grid_jobs()))
    parallel_engine = ExperimentEngine(workers=0, use_cache=False)
    parallel_stats, parallel_s = _timed(
        lambda: parallel_engine.run(_grid_jobs())
    )

    assert [s.to_dict() for s in parallel_stats] == [
        s.to_dict() for s in serial_stats
    ], "parallel results must be bitwise-identical to serial"

    speedup = serial_s / parallel_s if parallel_s else 0.0
    print(f"\nserial {serial_s:.2f}s, parallel {parallel_s:.2f}s "
          f"({parallel_engine.workers} workers, {cpus} cpus): "
          f"{speedup:.2f}x")
    if cpus < 2:
        pytest.skip("parallel speedup needs >= 2 CPUs")
    assert speedup >= 1.8, (
        f"expected >= 1.8x with {parallel_engine.workers} workers, "
        f"got {speedup:.2f}x"
    )


def test_cold_vs_warm_cache(tmp_path):
    """Cold 4x4 sweep populates the cache; warm pass must be >= 10x.

    The warm pass runs on a fresh engine, as the next process would, so
    it reads the on-disk cache rather than the first engine's table.
    """
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path / "cache")
    cold_stats, cold_s = _timed(lambda: engine.run(_grid_jobs()))
    assert engine.counters.executed == len(cold_stats)
    warm_engine = ExperimentEngine(workers=1, cache_dir=tmp_path / "cache")
    warm_stats, warm_s = _timed(lambda: warm_engine.run(_grid_jobs()))

    assert [s.to_dict() for s in warm_stats] == [
        s.to_dict() for s in cold_stats
    ], "cached results must be bitwise-identical to simulated ones"
    assert warm_engine.counters.cache_hits == len(cold_stats)
    assert warm_engine.counters.executed == 0, "warm pass resimulated"

    speedup = cold_s / warm_s if warm_s else 0.0
    print(f"\ncold {cold_s:.2f}s, warm {warm_s:.3f}s: {speedup:.1f}x")
    assert speedup >= 10.0, f"warm cache only {speedup:.1f}x faster"


def test_pipeline_hot_loop():
    """Single-trace simulation rate, best of three runs.

    Absolute thresholds are machine-dependent, so the assertion is only
    that the run completes; the rate is printed.
    """
    trace = load_trace("compress", scale=0.4)
    config = use_based_config()
    Pipeline(trace, config).run()  # warm caches/allocators

    runs = [_timed(lambda: Pipeline(trace, config).run()) for _ in range(3)]
    stats = runs[-1][0]
    best = min(seconds for _, seconds in runs)
    rate = stats.retired / best if best else 0.0
    print(f"\ncompress@0.4: {best:.3f}s best, {rate:,.0f} retired insts/s")
    assert stats.retired > 0


def test_interpreter_vs_predecoded():
    """Trace generation across four kernels: if/elif interpreter vs the
    predecoded dispatch path (>= 2x)."""
    programs = [build_program(name, scale=SCALE) for name in TRACE_NAMES]
    # Warm once so first-touch allocator effects hit neither side.
    for program in programs:
        Machine(program).run()

    interp_traces, interp_s = _timed(
        lambda: [Machine(p, predecode=False).run() for p in programs]
    )
    fast_traces, fast_s = _timed(lambda: [Machine(p).run() for p in programs])

    for slow, fast in zip(interp_traces, fast_traces):
        assert [r.signature() for r in fast.records] == [
            r.signature() for r in slow.records
        ], "predecoded trace must be bit-identical to the interpreter's"

    insts = sum(len(t) for t in fast_traces)
    speedup = interp_s / fast_s if fast_s else 0.0
    print(f"\ninterpreter {interp_s:.3f}s, predecoded {fast_s:.3f}s: "
          f"{speedup:.2f}x over {insts:,} insts")
    assert speedup >= 2.0, (
        f"predecoded dispatch only {speedup:.2f}x over the interpreter"
    )


def test_cold_vs_warm_trace_cache(tmp_path, monkeypatch):
    """Suite loading wall-clock: VM execution (cold) vs packed-trace
    deserialization (warm), through the real load_trace path."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))
    clear_trace_memo()

    before = suite.trace_counters().snapshot()
    _, cold_s = _timed(
        lambda: [load_trace(name, scale=SCALE) for name in TRACE_NAMES]
    )
    cold_delta = suite.trace_counters().since(before)
    assert cold_delta["traces_generated"] == len(TRACE_NAMES)

    clear_trace_memo()  # cold process, warm disk
    _, warm_s = _timed(
        lambda: [load_trace(name, scale=SCALE) for name in TRACE_NAMES]
    )
    warm_delta = suite.trace_counters().since(before)
    assert warm_delta["traces_generated"] == len(TRACE_NAMES), \
        "warm pass must not re-execute the VM"
    assert warm_delta["traces_loaded"] == len(TRACE_NAMES)
    clear_trace_memo()

    speedup = cold_s / warm_s if warm_s else 0.0
    print(f"\ncold {cold_s:.3f}s, warm {warm_s:.3f}s: {speedup:.2f}x")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("cache speedup noisy on constrained machines")
    assert speedup >= 1.5, f"trace cache only {speedup:.2f}x faster"
