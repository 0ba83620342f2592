"""Unit tests for lifetime analysis (Figures 1 and 2 machinery).

A lifetime log is flat: four ints per allocation, ``alloc, write,
last_read, free``.
"""

import pytest

from repro.core.lifetimes import (
    mean_phase_summary,
    occupancy_cdf,
    occupancy_cdfs,
    phase_summary,
)


def test_record_phase_lengths():
    summary = phase_summary([0, 5, 9, 20])
    assert summary.empty == 5
    assert summary.live == 4
    assert summary.dead == 11


def test_record_phases_never_negative():
    summary = phase_summary([10, 5, 3, 1])
    assert summary.empty == 0
    assert summary.live == 0
    assert summary.dead == 0


def test_phase_summary_medians():
    log = [0, 1, 2, 10, 0, 3, 6, 10, 0, 5, 10, 30]
    summary = phase_summary(log)
    assert summary.empty == 3
    assert summary.live == 3
    assert summary.dead == 8


def test_phase_summary_empty_input():
    summary = phase_summary([])
    assert summary.total == 0


def test_mean_phase_summary():
    a = phase_summary([0, 2, 4, 10])
    b = phase_summary([0, 4, 8, 10])
    mean = mean_phase_summary([a, b])
    assert mean.empty == 3
    assert mean.live == 3


def test_occupancy_cdf_single_interval():
    cdf = occupancy_cdf([0], [10])
    assert cdf.levels == (1,)
    assert cdf.cumulative == (1.0,)
    assert cdf.median == 1


def test_occupancy_cdf_overlapping_intervals():
    # Two intervals overlap for half the time: levels 1 and 2 each for
    # half of the occupied span.
    cdf = occupancy_cdf([0, 5], [10, 15])
    assert cdf.levels == (1, 2)
    assert cdf.cumulative[0] == pytest.approx(10 / 15)
    assert cdf.percentile(0.9) == 2


def test_occupancy_cdf_gap_counts_zero_level():
    cdf = occupancy_cdf([0, 10], [5, 15])
    assert 0 in cdf.levels


def test_occupancy_cdf_empty():
    cdf = occupancy_cdf([], [])
    assert cdf.percentile(0.9) == 0


def test_occupancy_cdf_ignores_empty_intervals():
    cdf = occupancy_cdf([5, 3], [5, 2])
    assert cdf.percentile(0.5) == 0


def test_allocated_exceeds_live():
    log = [0, 10, 12, 40, 5, 20, 22, 45]
    (alloc, live), _ = occupancy_cdfs([log])
    # Allocation spans dominate live spans.
    assert alloc.percentile(0.9) >= live.percentile(0.9)


def test_live_cdf_skips_never_read():
    log = [0, 10, 10, 40]  # never read: zero live span
    (_, cdf), _ = occupancy_cdfs([log])
    assert cdf.percentile(0.99) == 0


def test_percentile_monotone():
    cdf = occupancy_cdf([0, 2, 4], [10, 8, 6])
    values = [cdf.percentile(f) for f in (0.1, 0.5, 0.9, 1.0)]
    assert values == sorted(values)


def test_unrecorded_log_is_not_an_empty_log():
    """A run without ``record_lifetimes`` carries ``lifetimes=None``,
    survives serialization as such, and every analysis refuses it
    instead of summarizing an empty log."""
    from repro.core.config import use_based_config
    from repro.core.pipeline import Pipeline
    from repro.core.stats import SimStats
    from repro.errors import LifetimesNotRecorded
    from repro.workloads.suite import load_trace

    trace = load_trace("crc", scale=0.02)
    stats = Pipeline(trace, use_based_config()).run()
    assert stats.lifetimes is None
    assert stats.to_dict()["lifetimes"] is None
    assert SimStats.from_dict(stats.to_dict()).lifetimes is None
    with pytest.raises(LifetimesNotRecorded):
        phase_summary(stats.lifetimes)
    with pytest.raises(LifetimesNotRecorded):
        occupancy_cdfs([stats.lifetimes])

    logged = Pipeline(trace, use_based_config(record_lifetimes=True)).run()
    assert logged.lifetimes
    counters, logged_counters = stats.to_dict(), logged.to_dict()
    del counters["lifetimes"], logged_counters["lifetimes"]
    assert logged_counters == counters
    assert SimStats.merge([stats, logged]).lifetimes is None


def test_overlapping_logs_are_refused():
    """A value read after its register's last free would overlap the
    next run once pooled, so the pooled row cannot be exact."""
    with pytest.raises(ValueError, match="overlap"):
        occupancy_cdfs([[0, 0, 10, 1], [0, 1, 2, 3]])
