"""SimStats travels: positional rows, the readable dict form, JSON, and
cheap pickling."""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import monolithic_config, use_based_config
from repro.core.pipeline import Pipeline
from repro.core.stats import (
    MISS_CAUSES,
    STATS_SCHEMA_VERSION,
    CacheStats,
    SimStats,
)
from repro.workloads.suite import load_trace


def _small_stats(config=None):
    trace = load_trace("compress", scale=0.05)
    return Pipeline(
        trace, config or use_based_config(record_lifetimes=True)
    ).run()


def test_lifetime_record_tuple_round_trip():
    """One allocation's four ints survive the dict form in order."""
    stats = SimStats(lifetimes=[3, 7, 20, 31])
    assert SimStats.from_dict(stats.to_dict()).lifetimes == [3, 7, 20, 31]


def test_pack_unpack_lifetimes():
    """The flat log is the serialized form: ``to_dict`` emits a copy of
    it, never the live list, and ``from_dict`` keeps it as given."""
    stats = SimStats(lifetimes=[0, 1, 2, 3, 10, 12, 30, 44])
    flat = stats.to_dict()["lifetimes"]
    assert flat == [0, 1, 2, 3, 10, 12, 30, 44]
    assert flat is not stats.lifetimes
    flat.append(99)
    assert stats.lifetimes == [0, 1, 2, 3, 10, 12, 30, 44]
    data = {"lifetimes": [0, 1, 2, 3]}
    assert SimStats.from_dict(data).lifetimes is data["lifetimes"]
    assert SimStats.from_dict(SimStats().to_dict()).lifetimes == []


def test_to_dict_round_trips_through_json():
    stats = _small_stats()
    data = json.loads(json.dumps(stats.to_dict()))
    rebuilt = SimStats.from_dict(data)
    assert rebuilt.to_dict() == stats.to_dict()
    assert rebuilt.cycles == stats.cycles
    assert rebuilt.lifetimes == stats.lifetimes
    assert rebuilt.cache is not None
    assert rebuilt.cache.misses == stats.cache.misses
    assert rebuilt.ipc == stats.ipc


def test_to_dict_round_trip_without_cache():
    stats = _small_stats(monolithic_config(3))
    assert stats.cache is None
    rebuilt = SimStats.from_dict(stats.to_dict())
    assert rebuilt.cache is None
    assert rebuilt.to_dict() == stats.to_dict()


def test_pickle_round_trip_is_exact_and_compact():
    stats = _small_stats()
    payload = pickle.dumps(stats)
    rebuilt = pickle.loads(payload)
    assert rebuilt == stats
    assert rebuilt.to_dict() == stats.to_dict()
    # The reduce hook pickles the row, whose lifetime log is one flat
    # int list: the payload is that row plus the hook's name.
    assert len(payload) < len(pickle.dumps(stats.to_row())) + 100


# ----------------------------------------------------------------------
# The row form (result-cache entries and pool transport).

#: The row layout of each ``STATS_SCHEMA_VERSION``: SimStats field
#: names, CacheStats field names, miss-cause order. Changing any of
#: them without a version bump would let the result cache decode old
#: rows into the wrong fields; bump the version and pin the new layout.
ROW_LAYOUTS = {
    3: (
        (
            "benchmark", "scheme", "cycles", "retired", "operands_bypass",
            "operands_bypass_first", "operands_storage", "cache",
            "rf_reads", "rf_writes", "branch_mispredicts", "rc_miss_events",
            "load_miss_replays", "issue_blocked_cycles",
            "dispatch_stall_cycles", "rename_stall_cycles", "tl_moves",
            "tl_restores", "tl_recovery_stalls", "predictor_queries",
            "predictor_supplied", "predictor_correct", "lifetimes",
        ),
        (
            "reads", "hits", "misses", "writes_initial", "writes_fill",
            "writes_filtered", "evictions", "evictions_with_uses",
            "zero_use_victims", "invalidations", "instances_cached",
            "instances_never_read", "lifetime_sum", "lifetime_count",
            "values_freed", "values_never_cached", "occupancy_integral",
        ),
        ("filtered", "conflict", "capacity", "cold"),
    ),
}


def test_row_layout_is_pinned_to_schema_version():
    layout = (
        tuple(spec.name for spec in dataclasses.fields(SimStats)),
        tuple(spec.name for spec in dataclasses.fields(CacheStats)),
        MISS_CAUSES,
    )
    assert layout == ROW_LAYOUTS[STATS_SCHEMA_VERSION]


_counts = st.integers(min_value=0, max_value=2**70)

_cache_stats = st.builds(
    lambda values, misses: CacheStats(
        *values[:2], dict(zip(MISS_CAUSES, misses)), *values[2:],
    ),
    st.lists(_counts, min_size=16, max_size=16),
    st.lists(_counts, min_size=4, max_size=4),
)

_sim_stats = st.builds(
    lambda names, values, cache, lifetimes: SimStats(
        *names, *values[:5], cache, *values[5:], lifetimes,
    ),
    st.lists(st.text(max_size=8), min_size=2, max_size=2),
    st.lists(_counts, min_size=19, max_size=19),
    st.none() | _cache_stats,
    st.none() | st.just([]) | st.lists(_counts, min_size=1, max_size=400),
)


@settings(max_examples=60, deadline=None)
@given(_sim_stats)
def test_row_round_trips_through_json(stats):
    rebuilt = SimStats.from_row(json.loads(json.dumps(stats.to_row())))
    assert rebuilt == stats
    assert rebuilt.to_dict() == stats.to_dict()


def test_row_round_trip_of_a_run():
    stats = _small_stats()
    rebuilt = SimStats.from_row(json.loads(json.dumps(stats.to_row())))
    assert rebuilt == stats
    assert rebuilt.cache.misses == stats.cache.misses
    assert rebuilt.to_dict() == stats.to_dict()


def test_to_row_copies_the_lifetime_log():
    stats = SimStats(lifetimes=[0, 1, 2, 3])
    row = stats.to_row()
    assert row[-1] == stats.lifetimes and row[-1] is not stats.lifetimes
    assert SimStats.from_row(row).lifetimes is row[-1]


def _bad_rows():
    row = SimStats(cache=CacheStats(reads=3), lifetimes=[1, 2, 3, 4]).to_row()
    cache_at = [spec.name for spec in dataclasses.fields(SimStats)].index(
        "cache")
    cache = row[cache_at]
    misses_at = [spec.name for spec in dataclasses.fields(CacheStats)].index(
        "misses")

    def with_cache(new_cache):
        return row[:cache_at] + [new_cache] + row[cache_at + 1:]

    def with_misses(misses):
        return with_cache(cache[:misses_at] + [misses] + cache[misses_at + 1:])

    return {
        "row short": row[:-1],
        "row long": row + [0],
        "row not a list": dict(enumerate(row)),
        "cache row short": with_cache(cache[:-1]),
        "cache row long": with_cache(cache + [0]),
        "cache row not a list": with_cache(7),
        "misses short": with_misses([0, 0, 0]),
        "misses long": with_misses([0] * 5),
        "misses a dict": with_misses({"cold": 1}),
        "lifetimes not a list": row[:-1] + [5],
    }


@pytest.mark.parametrize("case", sorted(_bad_rows()))
def test_from_row_rejects_any_other_shape(case):
    with pytest.raises((TypeError, ValueError)):
        SimStats.from_row(_bad_rows()[case])


def test_to_row_refuses_an_unknown_miss_cause():
    cache = CacheStats()
    cache.misses["phantom"] = 1
    with pytest.raises(ValueError, match="phantom"):
        SimStats(cache=cache).to_row()
