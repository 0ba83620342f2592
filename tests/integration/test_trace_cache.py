"""The on-disk trace cache: correctness, invalidation, and repair.

The contract under test is the trace factory's promise to the engine:
a cached load is bit-identical to fresh VM execution, cache identity
follows the kernel/ISA/VM sources (an edit anywhere invalidates), and a
corrupted entry is silently regenerated and repaired — never served and
never fatal. A cached load checks only the header and decodes on first
use, so a corrupt body is repaired then.
"""

import os
import pickle
from pathlib import Path

import pytest

from repro import store
from repro.analysis.engine import ExperimentEngine, SimJob
from repro.analysis.sweeps import load_traces, sweep
from repro.core.config import use_based_config
from repro.workloads import suite
from repro.workloads.suite import _trace_key, clear_trace_memo, load_trace

SCALE = 0.06


@pytest.fixture
def trace_cache(tmp_path, monkeypatch):
    """Route the caches to a fresh directory, with a cold memo; yields
    the trace cache's directory."""
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_trace_memo()
    yield tmp_path / "traces"
    clear_trace_memo()


def _signatures(trace):
    return [record.signature() for record in trace]


def _entry_path(name):
    return Path(store.path(suite._trace_dir(), _trace_key(name, SCALE, None),
                           ".trace"))


def test_cached_load_bit_identical_to_fresh_execution(trace_cache):
    fresh = load_trace("compress", scale=SCALE)
    path = _entry_path("compress")
    assert path.parent.parent == trace_cache
    assert path.is_file()  # generation stored the packed trace

    clear_trace_memo()  # force the next load through the disk cache
    before = suite.trace_counters().snapshot()
    cached = load_trace("compress", scale=SCALE)
    delta = suite.trace_counters().since(before)
    assert delta["traces_loaded"] == 1
    assert delta["traces_generated"] == 0

    assert cached is not fresh
    assert _signatures(cached) == _signatures(fresh)
    assert cached.provenance == fresh.provenance
    assert cached.degree_of_use_histogram() == fresh.degree_of_use_histogram()


def test_cache_key_tracks_source_fingerprint(tmp_path):
    """Editing any fingerprinted source must change the cache address."""
    root = tmp_path / "pkg"
    root.mkdir()
    kernel = root / "kernel.py"
    kernel.write_text("A = 1\n")

    def fingerprint():
        store.fingerprint.cache_clear()  # memoized per scope
        return store.fingerprint(package=str(root))

    before = fingerprint()
    kernel.write_text("A = 2\n")
    after_edit = fingerprint()
    assert after_edit != before  # content feeds the hash
    (root / "extra.py").write_text("")
    assert fingerprint() != after_edit  # new files feed it too


def test_trace_key_depends_on_fingerprint(monkeypatch):
    key = _trace_key("compress", SCALE, None)
    monkeypatch.setattr(store, "fingerprint", lambda **scope: "0" * 64)
    assert _trace_key("compress", SCALE, None) != key


def test_corrupted_cache_file_regenerated_and_repaired(trace_cache):
    fresh = load_trace("compress", scale=SCALE)
    path = _entry_path("compress")
    original = path.read_bytes()
    path.write_bytes(original[: len(original) // 3])  # truncate mid-blob

    clear_trace_memo()
    before = suite.trace_counters().snapshot()
    again = load_trace("compress", scale=SCALE)
    delta = suite.trace_counters().since(before)
    assert delta["traces_generated"] == 1  # corrupt entry never served
    assert _signatures(again) == _signatures(fresh)
    assert path.read_bytes() == original  # entry repaired on disk


def test_corrupt_section_repaired_at_first_use(trace_cache):
    """A blob with a good header but a corrupt int64 section loads, then
    is regenerated, stored back and counted when its records are read."""
    fresh = load_trace("compress", scale=SCALE)
    path = _entry_path("compress")
    original = path.read_bytes()
    payload = pickle.loads(original)
    payload["values"] = payload["values"][:-3]  # not a whole int64
    path.write_bytes(pickle.dumps(payload))

    clear_trace_memo()
    before = suite.trace_counters().snapshot()
    lazy = load_trace("compress", scale=SCALE)
    assert suite.trace_counters().since(before)["trace_cache_repairs"] == 0
    assert len(lazy) == len(fresh)
    assert _signatures(lazy) == _signatures(fresh)  # repaired here
    delta = suite.trace_counters().since(before)
    assert delta["trace_cache_repairs"] == 1
    assert delta["traces_generated"] == 1
    assert path.read_bytes() == original

    clear_trace_memo()  # a fresh process is served the healed entry
    before = suite.trace_counters().snapshot()
    healed = load_trace("compress", scale=SCALE)
    assert _signatures(healed) == _signatures(fresh)
    delta = suite.trace_counters().since(before)
    assert delta["traces_loaded"] == 1
    assert delta["traces_generated"] == delta["trace_cache_repairs"] == 0


def test_deferred_trace_pickles(trace_cache):
    fresh = load_trace("compress", scale=SCALE)
    clear_trace_memo()
    lazy = load_trace("compress", scale=SCALE)
    copy = pickle.loads(pickle.dumps(lazy))
    assert not lazy.decoded and not copy.decoded
    assert len(copy) == len(fresh)
    assert copy.provenance == fresh.provenance
    assert _signatures(copy) == _signatures(fresh)


def test_parallel_sweep_decodes_in_the_parent(trace_cache, tmp_path,
                                              monkeypatch):
    """Pool workers fork from a parent that has decoded their traces."""
    names = ("compress", "pointer_chase")
    load_traces(names, scale=SCALE)  # fills the trace cache
    clear_trace_memo()
    traces = load_traces(names, scale=SCALE)
    assert not any(trace.decoded for trace in traces.values())

    monkeypatch.setenv("REPRO_JOBS", "2")
    engine = ExperimentEngine(cache_dir=tmp_path / "results")
    grid = sweep(traces, {"use_based": use_based_config()}, engine)
    assert all(grid["use_based"].values())
    if engine.counters.serial_fallbacks:
        pytest.skip("no process pool on this platform")
    assert engine.counters.parallel_jobs == len(names)
    assert all(trace.decoded for trace in traces.values())


def test_failed_trace_store_leaves_no_tmp_file(trace_cache, monkeypatch):
    """A refused ``os.replace`` must not strand ``<key>.trace.tmp.*``;
    the load still returns its trace."""
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    trace = load_trace("compress", scale=SCALE)
    assert len(trace) > 0
    assert list(trace_cache.rglob("*.tmp*")) == []
    assert not _entry_path("compress").exists()


def test_cache_disabled_by_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_trace_memo()
    try:
        load_trace("compress", scale=SCALE)
        assert not (tmp_path / "traces").exists()
        assert not ExperimentEngine(workers=1).use_cache  # one switch
    finally:
        clear_trace_memo()


def test_engine_second_run_avoids_all_vm_execution(trace_cache, tmp_path):
    """Acceptance: with a warm trace cache, a cold-pool sweep performs
    zero VM re-executions (trace-gen counter stays 0)."""
    jobs = [
        SimJob(config=use_based_config(), trace_name=name, scale=SCALE)
        for name in ("compress", "pointer_chase")
    ]
    before = suite.trace_counters().snapshot()
    ExperimentEngine(workers=1, cache_dir=tmp_path / "r1").run(jobs)
    first = suite.trace_counters().since(before)
    assert first["traces_generated"] == 2
    assert first["trace_gen_seconds"] > 0

    clear_trace_memo()  # model a cold worker pool
    before = suite.trace_counters().snapshot()
    ExperimentEngine(workers=1, cache_dir=tmp_path / "r2").run(jobs)
    second = suite.trace_counters().since(before)
    assert second["traces_generated"] == 0
    assert second["traces_loaded"] == 2
    assert second["trace_load_seconds"] > 0


def test_engine_counters_reach_experiment_meta(trace_cache, tmp_path,
                                               monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", str(SCALE))
    monkeypatch.setenv("REPRO_SUITE", "short")
    from repro.analysis import experiments
    from repro.analysis.engine import configure

    configure(workers=1, cache_dir=tmp_path / "results")
    try:
        result = experiments.table2_metrics()
    finally:
        configure()
    meta = result.meta["engine"]
    assert meta["traces_generated"] + meta["traces_loaded"] > 0


def test_call_forms_share_one_memo_entry(trace_cache):
    """Keyword, positional and explicit-default calls hit one entry."""
    trace = load_trace("compress", scale=SCALE)
    assert load_trace("compress", SCALE, None) is trace
    assert load_trace("compress", scale=SCALE, seed=None) is trace
    assert load_trace.cache_info().currsize == 1


def test_figures_generate_each_trace_once(trace_cache, tmp_path,
                                          monkeypatch):
    """The experiments and the engine resolve a trace to one object:
    a fresh serial fig8 + fig9 run generates each kernel's trace once
    and never reloads a second copy from disk."""
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    monkeypatch.delenv("REPRO_SUITE", raising=False)
    from repro.analysis import experiments
    from repro.analysis.engine import configure

    configure(workers=1, cache_dir=tmp_path / "results")
    before = suite.trace_counters().snapshot()
    try:
        experiments.fig8_miss_breakdown()
        experiments.fig9_bandwidth()
    finally:
        configure()
    delta = suite.trace_counters().since(before)
    assert delta["traces_generated"] == 8
    assert delta["traces_loaded"] == 0
    assert load_trace.cache_info().currsize == 8
