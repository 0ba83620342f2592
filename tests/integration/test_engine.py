"""The experiment engine: fan-out, caching, and failure capture.

The contract under test is the one the analysis layer depends on: the
serial path, the process-pool path, and the cache-hit path must return
*bitwise-identical* SimStats for the same job grid, corrupt or stale
cache entries must be re-simulated (never served), and failures must be
captured per job.
"""

import json
import os

import pytest

from repro import store
from repro.analysis import engine as engine_mod
from repro.analysis.engine import (
    EngineCounters,
    ExperimentEngine,
    JobFailure,
    SimJob,
)
from repro.core.config import (
    lru_config,
    monolithic_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.core.stats import SimStats
from repro.errors import EngineError
from repro.obs.manifest import read_manifest
from repro.workloads.suite import load_trace
from tests.faulty import arm, needs_fork
from tests.result_entries import entry_path, read_entry

SCALE = 0.06
TRACES = ("compress", "pointer_chase", "hash_dict")
CONFIGS = (use_based_config(), lru_config(), monolithic_config(3))


def _grid_jobs():
    return [
        SimJob(config=config, trace_name=name, scale=SCALE, label=name)
        for config in CONFIGS
        for name in TRACES
    ]


def _dicts(results):
    return [stats.to_dict() for stats in results]


def test_serial_parallel_and_cached_results_identical(tmp_path):
    """3 configs x 3 traces: every execution path agrees bit-for-bit."""
    serial = ExperimentEngine(workers=1, use_cache=False)
    baseline = _dicts(serial.run(_grid_jobs()))
    assert serial.counters.executed == 9

    parallel = ExperimentEngine(workers=4, cache_dir=tmp_path / "cache")
    cold = _dicts(parallel.run(_grid_jobs()))
    assert cold == baseline
    assert parallel.counters.cache_misses == 9

    # Second pass on the same engine: served from its result table.
    table = _dicts(parallel.run(_grid_jobs()))
    assert table == baseline
    assert parallel.counters.cache_hits == 9
    assert parallel.counters.executed == 9  # no re-simulation

    # A fresh engine (the next process) decodes every result from the
    # entries the pool wrote, and they too agree bit-for-bit.
    fresh = ExperimentEngine(workers=4, cache_dir=tmp_path / "cache")
    warm = _dicts(fresh.run(_grid_jobs()))
    assert warm == baseline
    assert fresh.counters.cache_hits == 9
    assert fresh.counters.executed == 0


def test_parallel_pool_actually_used(tmp_path):
    engine = ExperimentEngine(workers=4, use_cache=False)
    jobs = [
        SimJob(config=use_based_config(), trace_name=name, scale=SCALE)
        for name in TRACES
    ]
    results = engine.run(jobs)
    assert len(results) == 3
    if engine.counters.serial_fallbacks == 0:
        assert engine.counters.parallel_jobs == 3


def test_corrupted_cache_entry_detected_and_resimulated(tmp_path):
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)
    first = engine.run([job])[0]
    path = entry_path(engine, job.cache_key())
    assert path.exists()

    # Truncate the entry mid-JSON. The engine that decoded it keeps
    # serving its result from memory.
    path.write_text(path.read_text()[: 40])
    assert engine.run([job])[0] is first
    assert engine.counters.executed == 1

    # The next process (a fresh engine on the same cache) must treat
    # the entry as a miss, re-simulate once, and repair the file.
    fresh = ExperimentEngine(workers=1, cache_dir=tmp_path)
    again = fresh.run([job])[0]
    assert again.to_dict() == first.to_dict()
    assert fresh.counters.executed == 1
    assert engine.counters.executed + fresh.counters.executed == 2
    assert read_entry(path)[1].cycles == first.cycles


def test_stale_cache_key_mismatch_is_a_miss(tmp_path):
    """An entry whose recorded key disagrees with its address (e.g. a
    file surviving a hash-scheme change) is never served."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)
    first = engine.run([job])[0]
    path = entry_path(engine, job.cache_key())
    _, stats = read_entry(path)
    path.write_text(json.dumps(["0" * 64, stats.to_row()]))
    assert engine.run([job])[0] is first
    assert engine.counters.executed == 1

    fresh = ExperimentEngine(workers=1, cache_dir=tmp_path)
    again = fresh.run([job])[0]
    assert again.to_dict() == first.to_dict()
    assert fresh.counters.executed == 1
    assert engine.counters.executed + fresh.counters.executed == 2
    assert read_entry(path)[0] == job.cache_key()


def _misshapen_entry(case, key, stats):
    row = stats.to_row()
    return {
        "row one field short": [key, row[:-1]],
        "row one field long": [key, row + [None]],
        "old dict layout": {"key": key, "stats": stats.to_dict()},
        "wrong key": ["0" * 64, row],
    }[case]


@pytest.mark.parametrize("case", [
    "row one field short", "row one field long", "old dict layout",
    "wrong key",
])
def test_misshapen_entry_is_a_miss_and_rewritten_as_a_row(tmp_path, case):
    """An entry of any shape but ``[key, row]`` with the full row is
    never served: the next process re-executes the job and rewrites
    the entry as a row."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)
    first = engine.run([job])[0]
    key = job.cache_key()
    path = entry_path(engine, key)
    path.write_text(json.dumps(_misshapen_entry(case, key, first)))

    fresh = ExperimentEngine(workers=1, cache_dir=tmp_path)
    assert fresh._cache_load(job) is None
    again = fresh.run([job])[0]
    assert fresh.counters.executed == 1
    assert again.to_dict() == first.to_dict()
    assert read_entry(path) == (key, first)


def test_warm_pass_decodes_rows_only(tmp_path, monkeypatch):
    """A cold pass encodes each executed result once; a warm pass in a
    new engine decodes each entry by position: ``from_dict`` never
    runs and no name-keyed dict is parsed."""
    encodes = []
    real_to_row = SimStats.to_row

    def counted_to_row(stats):
        encodes.append(stats)
        return real_to_row(stats)

    monkeypatch.setattr(SimStats, "to_row", counted_to_row)
    cold = ExperimentEngine(workers=1, cache_dir=tmp_path).run(_grid_jobs())
    assert len(encodes) == len(cold)

    def refuse(cls, data):
        raise AssertionError("from_dict called on a warm pass")

    parsed = []
    real_loads = json.loads

    def spied_loads(text, *args, **kwargs):
        value = real_loads(text, *args, **kwargs)
        parsed.append(value)
        return value

    monkeypatch.setattr(SimStats, "from_dict", classmethod(refuse))
    monkeypatch.setattr(json, "loads", spied_loads)
    warm = ExperimentEngine(workers=1, cache_dir=tmp_path)
    assert _dicts(warm.run(_grid_jobs())) == _dicts(cold)
    assert warm.counters.executed == 0
    assert len(parsed) == len(cold)
    assert all(type(entry) is list for entry in parsed)


def test_code_fingerprint_feeds_cache_key(monkeypatch):
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)
    before = job.cache_key()
    monkeypatch.setattr(store, "fingerprint", lambda **scope: "deadbeef")
    assert job.cache_key() != before


def test_job_failure_captured_and_raised(tmp_path):
    """A failing job raises EngineError naming the job; with
    raise_on_error=False the slot holds the captured traceback."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    bad = SimJob(config=use_based_config(max_cycles=10),
                 trace_name="compress", scale=SCALE, label="doomed")
    good = SimJob(config=use_based_config(), trace_name="compress",
                  scale=SCALE)

    with pytest.raises(EngineError, match="doomed"):
        engine.run([good, bad])

    results = engine.run([good, bad], raise_on_error=False)
    assert results[0]  # real stats in slot 0
    failure = results[1]
    assert isinstance(failure, JobFailure)
    assert not failure  # failed slots are falsy
    assert "SimulationError" in failure.error
    assert engine.counters.errors >= 1
    # The failure must not have been cached as a result.
    assert engine._cache_load(bad) is None


def test_in_memory_trace_jobs_run_but_bypass_cache(tmp_path):
    # load_trace memoizes Trace objects per process, so sever the
    # provenance on a copy-like job and restore it afterwards.
    trace = load_trace("compress", scale=SCALE)
    saved = trace.provenance
    trace.provenance = None  # no safe cache identity exists
    try:
        engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
        job = SimJob.for_trace(trace, use_based_config())
        assert not job.cacheable
        engine.run([job])
        engine.run([job])
        assert engine.counters.executed == 2
        assert engine.counters.cache_hits == 0
    finally:
        trace.provenance = saved


def test_counters_flow_into_experiment_meta(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    monkeypatch.setenv("REPRO_SUITE", "short")
    from repro.analysis import experiments
    from repro.analysis.engine import configure

    configure(workers=1, cache_dir=tmp_path)
    try:
        result = experiments.table2_metrics()
    finally:
        configure()
    meta = result.meta["engine"]
    assert meta["jobs"] > 0
    assert meta["cache_misses"] + meta["cache_hits"] == meta["jobs"]
    assert meta["engine_seconds"] > 0
    assert meta["max_job_seconds"] > 0


def test_counters_since_reports_deltas():
    counters = EngineCounters()
    for wall in (0.2, 0.9, 0.4):
        counters.record_job(wall)
    counters.jobs = 5
    before = counters.snapshot()
    assert before["max_job_seconds"] == 0.9
    counters.jobs += 2
    counters.cache_hits += 2
    delta = counters.since(before)
    assert delta["jobs"] == 2
    assert delta["cache_hits"] == 2
    assert delta["executed"] == 0
    # Nothing ran since the snapshot: no earlier job's wall shows.
    assert delta["max_job_seconds"] == 0
    assert delta["job_seconds_p95"] == 0
    counters.record_job(0.1)
    delta = counters.since(before)
    assert delta["executed"] == 1
    assert delta["max_job_seconds"] == delta["job_seconds_p95"] == 0.1


def test_later_experiment_reports_only_its_own_job_walls(
    tmp_path, monkeypatch,
):
    """fig10 is served fig9's cached results: its engine note must not
    carry fig9's job wall-clocks."""
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    monkeypatch.setenv("REPRO_SUITE", "short")
    from repro.analysis import experiments
    from repro.analysis.engine import configure
    from repro.analysis.report import render

    configure(workers=1, cache_dir=tmp_path)
    try:
        fig9 = experiments.fig9_bandwidth()
        fig10 = experiments.fig10_filtering()
    finally:
        configure()
    assert fig9.meta["engine"]["executed"] > 0
    assert fig9.meta["engine"]["job_seconds_p95"] > 0
    meta = fig10.meta["engine"]
    assert meta["executed"] == 0 and meta["cache_hits"] == meta["jobs"] > 0
    assert meta["max_job_seconds"] == 0
    assert meta["job_seconds_p50"] == meta["job_seconds_p95"] == 0
    assert "job p95" not in render(fig10)


class _CorruptingPipeline:
    """Runs the real pipeline, then breaks a conservation invariant."""

    def __init__(self, trace, config):
        self._inner = Pipeline(trace, config)

    def run(self):
        stats = self._inner.run()
        stats.retired = -stats.retired - 1
        return stats


def test_invalid_result_rejected_and_never_cached(tmp_path, monkeypatch):
    """A result the oracle rejects must not poison the cache.

    Regression test for the store-before-validate ordering bug: the
    engine used to write the cache entry first, so a corrupted result
    would be served as a hit forever after.
    """
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)

    monkeypatch.setattr(engine_mod, "Pipeline", _CorruptingPipeline)
    failure = engine.run([job], raise_on_error=False)[0]
    assert isinstance(failure, JobFailure)
    assert failure.kind == "invalid"
    assert "retired" in failure.error
    # Nothing was cached for the poisoned run.
    assert engine._cache_load(job) is None

    # With the fault gone the same engine simulates cleanly and caches.
    monkeypatch.setattr(engine_mod, "Pipeline", Pipeline)
    stats = engine.run([job], raise_on_error=False)[0]
    assert stats and stats.retired > 0
    assert engine.counters.executed == 2
    assert engine._cache_load(job) is not None


class _TupleLogPipeline:
    """Runs the real pipeline, then holds the lifetime log as a tuple:
    a value that passes the oracle but that JSON turns into a list."""

    def __init__(self, trace, config):
        self._inner = Pipeline(trace, config)

    def run(self):
        stats = self._inner.run()
        stats.lifetimes = tuple(stats.lifetimes)
        return stats


def test_result_that_json_would_change_is_rejected(tmp_path, monkeypatch):
    """Validation decodes the very text the cache would store, so a
    result that would load back different is never cached."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    job = SimJob(config=use_based_config(record_lifetimes=True),
                 trace_name="compress", scale=SCALE)
    monkeypatch.setattr(engine_mod, "Pipeline", _TupleLogPipeline)
    failure = engine.run([job], raise_on_error=False)[0]
    assert isinstance(failure, JobFailure)
    assert failure.kind == "invalid"
    assert "JSON round-trip" in failure.error
    assert engine._cache_load(job) is None


@pytest.mark.parametrize("kind", ["invalid", "error"])
def test_deterministic_failures_are_not_retried(tmp_path, monkeypatch, kind):
    """A job that fails the same way every time gets one attempt only."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    if kind == "invalid":
        monkeypatch.setattr(engine_mod, "Pipeline", _CorruptingPipeline)
        config = use_based_config()
    else:
        config = use_based_config(max_cycles=10)
    job = SimJob(config=config, trace_name="compress", scale=SCALE)
    failure = engine.run([job], raise_on_error=False)[0]
    assert isinstance(failure, JobFailure)
    assert failure.kind == kind
    assert engine.counters.executed == 1


def test_resume_accounts_for_previously_completed_jobs(tmp_path):
    """Re-running a grown sweep executes only the jobs not yet cached."""
    done = [
        SimJob(config=use_based_config(), trace_name=name, scale=SCALE)
        for name in ("compress", "pointer_chase")
    ]
    fresh = SimJob(config=lru_config(), trace_name="hash_dict",
                   scale=SCALE)

    first = ExperimentEngine(workers=1, cache_dir=tmp_path)
    first.run(done)
    assert first.counters.executed == 2

    second = ExperimentEngine(workers=1, cache_dir=tmp_path)
    results = second.run(done + [fresh])
    assert all(stats.retired > 0 for stats in results)
    assert second.counters.cache_hits == 2
    assert second.counters.executed == 1


@pytest.mark.smoke
def test_smoke_single_cached_engine_job(tmp_path):
    """Fast end-to-end probe: one tiny job, simulated, then decoded
    from the disk cache by a fresh engine."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=0.03)
    first = engine.run([job])[0]
    fresh = ExperimentEngine(workers=1, cache_dir=tmp_path)
    second = fresh.run([job])[0]
    assert fresh.counters.cache_hits == 1
    assert fresh.counters.executed == 0
    assert second.to_dict() == first.to_dict()
    assert first.retired > 0


def test_failed_cache_write_leaves_no_tmp_file(tmp_path, monkeypatch):
    """A refused ``os.replace`` must not strand ``<key>.tmp.<pid>.<n>``;
    the run still returns its result."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(engine_mod.os, "replace", refuse)
    stats = engine.run([job])[0]
    assert stats.retired > 0
    assert list(tmp_path.rglob("*.tmp.*")) == []
    assert engine._cache_load(job) is None


def test_duplicate_keys_execute_once_per_call(tmp_path):
    """Equal configs in one call share one lookup and one execution;
    every later slot is a cache hit with its own manifest record."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    jobs = [
        SimJob(config=config, trace_name=name, scale=SCALE, label=name)
        for config in (use_based_config(), lru_config(),
                       use_based_config(cache_entries=64))
        for name in ("compress", "pointer_chase")
    ]
    results = engine.run(jobs)
    assert engine.counters.executed == 4
    assert engine.counters.cache_misses == 4
    assert engine.counters.cache_hits == 2
    assert results[4] is results[0] and results[5] is results[1]
    records = read_manifest(engine.manifest.path)
    jobs_recorded = [record for record in records if record["kind"] == "job"]
    assert len(jobs_recorded) == 6
    assert sum(record["cached"] for record in jobs_recorded) == 2
    run = records[-1]
    assert run["kind"] == "run"
    assert (run["jobs"], run["cached"], run["executed"]) == (6, 2, 4)


def test_duplicate_of_failed_job_gets_its_hole(tmp_path):
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    bad = SimJob(config=use_based_config(max_cycles=10),
                 trace_name="compress", scale=SCALE, label="doomed")
    results = engine.run([bad, bad], raise_on_error=False)
    assert engine.counters.executed == 1
    assert all(isinstance(slot, JobFailure) for slot in results)
    assert engine.counters.errors == 2
    assert engine.failure_log[-2:] == results


def test_duplicates_execute_every_slot_without_cache():
    engine = ExperimentEngine(workers=1, use_cache=False)
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)
    engine.run([job, job])
    assert engine.counters.executed == 2


def _count_disk_loads(monkeypatch) -> list[str]:
    """Record the key of every ``_cache_load`` any engine makes."""
    loads: list[str] = []
    real = ExperimentEngine._cache_load

    def counted(self, job, key=None):
        loads.append(key)
        return real(self, job, key=key)

    monkeypatch.setattr(ExperimentEngine, "_cache_load", counted)
    return loads


def test_second_run_is_served_from_the_table(tmp_path, monkeypatch):
    """An engine decodes each key at most once: a second run of the same
    grid reads no file, yet every slot still counts as a cache hit and
    gets its own ``cached: true`` manifest record."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    first = engine.run(_grid_jobs())
    loads = _count_disk_loads(monkeypatch)
    again = engine.run(_grid_jobs())
    assert loads == []
    assert _dicts(again) == _dicts(first)
    assert engine.counters.cache_hits == 9
    assert engine.counters.executed == 9
    records = read_manifest(engine.manifest.path)
    run = records[-1]
    assert (run["jobs"], run["cached"], run["executed"]) == (9, 9, 0)
    second = [r for r in records if r["kind"] == "job" and r["run"] == run["run"]]
    assert len(second) == 9
    assert all(r["cached"] and r["status"] == "ok" for r in second)


class _RaisingPipeline:
    """Fails the way a simulator bug does."""

    def __init__(self, trace, config):
        pass

    def run(self):
        raise RuntimeError("simulator bug")


@pytest.mark.parametrize("kind, pipeline", [
    ("invalid", _CorruptingPipeline), ("error", _RaisingPipeline),
])
def test_hole_is_reexecuted_on_the_next_run(
    tmp_path, monkeypatch, kind, pipeline,
):
    """A failure never enters the table: the next run on the same engine
    executes only the hole and serves the good slot from memory."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    good = SimJob(config=use_based_config(), trace_name="compress",
                  scale=SCALE)
    bad = SimJob(config=lru_config(), trace_name="compress", scale=SCALE)
    engine.run([good])
    monkeypatch.setattr(engine_mod, "Pipeline", pipeline)
    first = engine.run([good, bad], raise_on_error=False)
    assert first[0] and isinstance(first[1], JobFailure)
    assert first[1].kind == kind

    monkeypatch.setattr(engine_mod, "Pipeline", Pipeline)
    loads = _count_disk_loads(monkeypatch)
    again = engine.run([good, bad])
    assert loads == [bad.cache_key()]
    assert again[0] is first[0]
    assert again[1].retired > 0
    assert engine.counters.executed == 3


@needs_fork
def test_worker_crash_is_a_hole_the_next_run_fills(tmp_path, monkeypatch):
    """A job whose pool worker exits leaves a ``crash`` hole in its own
    slot only; the next run executes just that hole."""
    engine = ExperimentEngine(workers=2, cache_dir=tmp_path)
    good = SimJob(config=use_based_config(), trace_name="compress",
                  scale=SCALE)
    bad = SimJob(config=lru_config(), trace_name="compress", scale=SCALE)
    arm(monkeypatch, "crash", [bad])
    first = engine.run([good, bad], raise_on_error=False)
    assert first[0] and isinstance(first[1], JobFailure)
    assert first[1].kind == "crash"
    assert engine.counters.parallel_jobs == 2

    arm(monkeypatch, None)
    loads = _count_disk_loads(monkeypatch)
    again = engine.run([good, bad])
    assert loads == [bad.cache_key()]
    assert again[0] is first[0]
    assert again[1].retired > 0
    assert engine.counters.executed == 3


def test_interrupted_run_still_closes_its_manifest(tmp_path, monkeypatch):
    """Ctrl-C at the third of three jobs: the two finished jobs, the
    run record and the engine's time are all kept."""
    jobs = [
        SimJob(config=use_based_config(), trace_name=name, scale=SCALE)
        for name in TRACES
    ]
    arm(monkeypatch, "interrupt", [jobs[2]])
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    with pytest.raises(KeyboardInterrupt):
        engine.run(jobs)
    records = read_manifest(engine.manifest.path)
    assert [r["kind"] for r in records] == ["job", "job", "run"]
    run = records[-1]
    assert (run["jobs"], run["cached"], run["executed"]) == (3, 0, 2)
    assert engine.counters.engine_seconds > 0


def test_no_table_without_cache(tmp_path):
    """With the cache off every run executes and nothing is retained."""
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path, use_cache=False)
    job = SimJob(config=use_based_config(), trace_name="compress",
                 scale=SCALE)
    engine.run([job])
    engine.run([job])
    assert engine.counters.executed == 2
    assert engine.counters.cache_hits == 0
    assert engine._table is None
    assert not any(tmp_path.rglob("*.json"))


def test_serial_sweep_never_imports_multiprocessing(tmp_path):
    """The process pool is imported only where it is built, so a serial
    process never loads ``multiprocessing``."""
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "from repro.analysis.engine import ExperimentEngine\n"
        "from repro.analysis.sweeps import load_traces, sweep\n"
        "from repro.core.config import lru_config, use_based_config\n"
        "engine = ExperimentEngine(workers=1, use_cache=False)\n"
        "traces = load_traces(['compress', 'crc'], scale=0.02)\n"
        "grid = {'u': use_based_config(), 'l': lru_config()}\n"
        "sweep(traces, grid, engine)\n"
        "assert engine.counters.executed == 4\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, REPRO_CACHE="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("knob, value", [
    ("REPRO_JOBS", "fuor"),
])
def test_numeric_knob_typo_raises(monkeypatch, tmp_path, knob, value):
    monkeypatch.setenv(knob, value)
    with pytest.raises(ValueError, match=f"{knob}={value!r}"):
        ExperimentEngine(cache_dir=tmp_path)


def test_numeric_knobs_unset_zero_and_auto(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    engine = ExperimentEngine(cache_dir=tmp_path)
    assert engine.workers == 1
    for jobs in ("0", "auto"):
        monkeypatch.setenv("REPRO_JOBS", jobs)
        engine = ExperimentEngine(cache_dir=tmp_path)
        assert engine.workers == (os.cpu_count() or 1)
