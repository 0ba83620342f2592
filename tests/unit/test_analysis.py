"""Unit tests for suite aggregation, reports, and sweeps."""

import pytest

from repro.analysis.experiments import aggregate_cache_metrics
from repro.analysis.report import ExperimentResult, render
from repro.analysis.sweeps import load_traces, run_config, sweep
from repro.core.config import monolithic_config, use_based_config
from repro.core.simulator import mean_ipc, simulate


def small_results(config=None):
    traces = load_traces(("crc", "strmatch"), scale=0.12)
    return run_config(traces, config or use_based_config())


def test_aggregate_cache_metrics_basic():
    results = small_results()
    pooled = aggregate_cache_metrics(results)
    cache = pooled.cache
    assert (pooled.benchmark, pooled.scheme) == ("crc+strmatch", "register_cache")
    assert 0.0 <= cache.miss_rate <= 1.0
    assert cache.miss_rate == pytest.approx(
        sum(cache.misses[cause] for cause in ("filtered", "conflict", "capacity"))
        / cache.reads,
        abs=1e-6,
    )
    assert cache.average_occupancy(pooled.cycles) > 0
    assert pooled.cache_read_bandwidth > 0


def test_aggregate_rejects_non_cache_results():
    results = small_results(monolithic_config(3))
    with pytest.raises(ValueError, match="no register cache"):
        aggregate_cache_metrics(results)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_cache_metrics({})


def test_sweep_runs_all_configs():
    traces = load_traces(("crc",), scale=0.12)
    results = sweep(traces, {
        "a": use_based_config(),
        "b": monolithic_config(1),
    })
    assert set(results) == {"a", "b"}
    assert set(results["a"]) == {"crc"}


def test_mean_ipc_geometric():
    traces = load_traces(("crc", "strmatch"), scale=0.12)
    results = run_config(traces, use_based_config())
    ipcs = [s.ipc for s in results.values()]
    expected = (ipcs[0] * ipcs[1]) ** 0.5
    assert mean_ipc(results) == pytest.approx(expected)


def test_mean_ipc_empty_is_zero():
    assert mean_ipc({}) == 0.0


def test_render_alignment_and_notes():
    result = ExperimentResult(
        experiment_id="figX",
        title="A title",
        headers=["name", "value"],
        rows=[["alpha", 0.5], ["b", 123.456]],
        notes="First line.\nSecond line.",
    )
    text = render(result)
    assert "figX" in text and "A title" in text
    assert "alpha" in text
    assert "123.5" in text  # large floats get one decimal
    assert text.count("note:") == 2


def test_render_formats_small_floats():
    result = ExperimentResult("x", "t", ["v"], [[0.123456]])
    assert "0.1235" in render(result)


def test_render_formats_bools_and_zero():
    result = ExperimentResult("x", "t", ["a", "b"], [[True, 0.0]])
    text = render(result)
    assert "yes" in text and " 0" in text

