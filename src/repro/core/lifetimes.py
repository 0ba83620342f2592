"""Register-lifetime analysis (Figures 1 and 2 of the paper).

Works over the per-allocation :class:`~repro.core.stats.LifetimeRecord`
log collected by the pipeline, computing the median empty/live/dead
phase lengths and the cumulative distributions of simultaneously
allocated and live registers. The pipeline collects the log only under
``MachineConfig(record_lifetimes=True)``; every analysis here raises
:class:`~repro.errors.LifetimesNotRecorded` when handed the ``None`` log
of a run that did not record one, instead of reporting an empty log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import LifetimeRecord
from repro.errors import LifetimesNotRecorded


def _recorded(records: list[LifetimeRecord] | None) -> list[LifetimeRecord]:
    if records is None:
        raise LifetimesNotRecorded(
            "this run did not record register lifetimes; simulate with "
            "MachineConfig(record_lifetimes=True)"
        )
    return records


def _median(values: list[int]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass(frozen=True)
class PhaseSummary:
    """Median lengths of the three lifetime phases (Figure 1)."""

    empty: float
    live: float
    dead: float

    @property
    def total(self) -> float:
        return self.empty + self.live + self.dead


def phase_summary(records: list[LifetimeRecord]) -> PhaseSummary:
    """Median empty/live/dead times over one benchmark's allocations."""
    records = _recorded(records)
    return PhaseSummary(
        empty=_median([r.empty_time for r in records]),
        live=_median([r.live_time for r in records]),
        dead=_median([r.dead_time for r in records]),
    )


def mean_phase_summary(per_benchmark: list[PhaseSummary]) -> PhaseSummary:
    """Average of per-benchmark medians, as Figure 1 reports."""
    if not per_benchmark:
        return PhaseSummary(0.0, 0.0, 0.0)
    count = len(per_benchmark)
    return PhaseSummary(
        empty=sum(p.empty for p in per_benchmark) / count,
        live=sum(p.live for p in per_benchmark) / count,
        dead=sum(p.dead for p in per_benchmark) / count,
    )


def _counts_over_time(
    intervals: list[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Time-weighted histogram of concurrent intervals.

    Args:
        intervals: (start, end) pairs, end exclusive.

    Returns:
        List of (concurrency_level, total_cycles_at_level) pairs.
    """
    events: dict[int, int] = {}
    for start, end in intervals:
        if end <= start:
            continue
        events[start] = events.get(start, 0) + 1
        events[end] = events.get(end, 0) - 1
    level = 0
    weights: dict[int, int] = {}
    previous_time: int | None = None
    for time in sorted(events):
        if previous_time is not None and time > previous_time:
            weights[level] = weights.get(level, 0) + (time - previous_time)
        level += events[time]
        previous_time = time
    return sorted(weights.items())


@dataclass(frozen=True)
class OccupancyCdf:
    """Cumulative distribution of a concurrency level over time."""

    levels: tuple[int, ...]
    cumulative: tuple[float, ...]  # fraction of cycles at <= level

    def percentile(self, fraction: float) -> int:
        """Smallest level covering *fraction* of cycles (e.g. 0.9)."""
        for level, cum in zip(self.levels, self.cumulative):
            if cum >= fraction:
                return level
        return self.levels[-1] if self.levels else 0

    @property
    def median(self) -> int:
        return self.percentile(0.5)


def occupancy_cdf(intervals: list[tuple[int, int]]) -> OccupancyCdf:
    """Build the CDF of concurrent intervals over time."""
    weighted = _counts_over_time(intervals)
    total = sum(weight for _, weight in weighted)
    if not total:
        return OccupancyCdf((0,), (1.0,))
    levels = []
    cumulative = []
    running = 0
    for level, weight in weighted:
        running += weight
        levels.append(level)
        cumulative.append(running / total)
    return OccupancyCdf(tuple(levels), tuple(cumulative))


def concatenate_records(
    groups: list[list[LifetimeRecord]],
) -> list[LifetimeRecord]:
    """Pool per-benchmark lifetime logs without inflating concurrency.

    Each benchmark's simulation starts at cycle 0, so naively pooling
    their records would overlap intervals from different runs and add
    their concurrency levels. This shifts every group onto a disjoint
    time range, as if the benchmarks ran back to back on one machine.
    """
    pooled: list[LifetimeRecord] = []
    offset = 0
    for group in groups:
        group = _recorded(group)
        end = 0
        for record in group:
            pooled.append(LifetimeRecord(
                record.alloc + offset, record.write + offset,
                record.last_read + offset, record.free + offset,
            ))
            end = max(end, record.free)
        offset += end + 1
    return pooled


def allocated_cdf(records: list[LifetimeRecord]) -> OccupancyCdf:
    """CDF of simultaneously *allocated* physical registers (Figure 2)."""
    records = _recorded(records)
    return occupancy_cdf([(r.alloc, r.free) for r in records])


def live_cdf(records: list[LifetimeRecord]) -> OccupancyCdf:
    """CDF of simultaneously *live* values (Figure 2).

    A value is live from its write until its last read; zero-length live
    ranges (never-read values) contribute nothing.
    """
    records = _recorded(records)
    return occupancy_cdf([(r.write, r.last_read) for r in records])
