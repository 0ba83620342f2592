"""Register-lifetime analysis (Figures 1 and 2 of the paper).

Works over the per-allocation lifetime log collected by the pipeline:
the flat ``SimStats.lifetimes`` array with four ints per allocation,
``alloc, write, last_read, free`` (see :mod:`repro.core.stats`). It
computes the median empty/live/dead phase lengths and the cumulative
distributions of simultaneously allocated and live registers. Every
analysis reads the log's columns as slices (``log[0::4]`` is every
``alloc``) and works on them with C-level ``map``, ``sorted`` and
:class:`collections.Counter`; no per-allocation object is built.

The pipeline collects the log only under
``MachineConfig(record_lifetimes=True)``; every analysis here raises
:class:`~repro.errors.LifetimesNotRecorded` when handed the ``None`` log
of a run that did not record one, instead of reporting an empty log.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from operator import lt, sub
from typing import Sequence

from repro.errors import LifetimesNotRecorded


def _recorded(log: list[int] | None) -> list[int]:
    if log is None:
        raise LifetimesNotRecorded(
            "this run did not record register lifetimes; simulate with "
            "MachineConfig(record_lifetimes=True)"
        )
    return log


def _phase_median(ends: list[int], starts: list[int]) -> float:
    """Median of ``max(0, end - start)`` over paired columns.

    Clamping is monotone, so it is applied to the middle values of the
    sorted raw differences only: the same result as clamping each one.
    """
    ordered = sorted(map(sub, ends, starts))
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(max(0, ordered[mid]))
    return (max(0, ordered[mid - 1]) + max(0, ordered[mid])) / 2.0


@dataclass(frozen=True)
class PhaseSummary:
    """Median lengths of the three lifetime phases (Figure 1)."""

    empty: float
    live: float
    dead: float

    @property
    def total(self) -> float:
        return self.empty + self.live + self.dead


def phase_summary(log: list[int] | None) -> PhaseSummary:
    """Median empty/live/dead times over one benchmark's allocations.

    empty = write - alloc, live = last_read - write and dead = free -
    last_read, each floored at 0.
    """
    log = _recorded(log)
    write, last_read = log[1::4], log[2::4]
    return PhaseSummary(
        empty=_phase_median(write, log[0::4]),
        live=_phase_median(last_read, write),
        dead=_phase_median(log[3::4], last_read),
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
    starts: Sequence[int], ends: Sequence[int],
) -> list[tuple[int, int]]:
    """Time-weighted histogram of concurrent intervals.

    Args:
        starts: interval starts.
        ends: interval ends (exclusive), paired with *starts*. Intervals
            with ``end <= start`` are ignored.

    Returns:
        List of (concurrency_level, total_cycles_at_level) pairs.
    """
    kept = list(map(lt, starts, ends))
    opened = Counter(compress(starts, kept))
    closed = Counter(compress(ends, kept))
    times = sorted(opened.keys() | closed.keys())
    zeros = repeat(0)
    # The level from each event time to the next: a running sum of
    # intervals opened minus intervals closed at each time.
    levels = accumulate(map(
        sub, map(opened.get, times, zeros), map(closed.get, times, zeros),
    ))
    weights: dict[int, int] = {}
    get = weights.get
    for level, span in zip(levels, map(sub, times[1:], times)):
        weights[level] = get(level, 0) + span
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


def occupancy_cdf(starts: Sequence[int], ends: Sequence[int]) -> OccupancyCdf:
    """Build the CDF of concurrent ``[start, end)`` intervals over time."""
    weighted = _counts_over_time(starts, ends)
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


def concatenate_records(groups: list[list[int] | None]) -> list[int]:
    """Pool per-benchmark lifetime logs without inflating concurrency.

    Each benchmark's simulation starts at cycle 0, so naively pooling
    their logs would overlap intervals from different runs and add
    their concurrency levels. This shifts every group onto a disjoint
    time range, as if the benchmarks ran back to back on one machine.
    """
    pooled: list[int] = []
    offset = 0
    for group in groups:
        group = _recorded(group)
        pooled += map(offset.__add__, group)
        offset += max(0, max(group[3::4], default=0)) + 1
    return pooled


def allocated_cdf(log: list[int] | None) -> OccupancyCdf:
    """CDF of simultaneously *allocated* physical registers (Figure 2)."""
    log = _recorded(log)
    return occupancy_cdf(log[0::4], log[3::4])


def live_cdf(log: list[int] | None) -> OccupancyCdf:
    """CDF of simultaneously *live* values (Figure 2).

    A value is live from its write until its last read; zero-length live
    ranges (never-read values) contribute nothing.
    """
    log = _recorded(log)
    return occupancy_cdf(log[1::4], log[2::4])
