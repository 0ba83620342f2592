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
) -> tuple[list[tuple[int, int]], int, int]:
    """Time-weighted histogram of concurrent intervals.

    Args:
        starts: interval starts.
        ends: interval ends (exclusive), paired with *starts*. Intervals
            with ``end <= start`` are ignored.

    Returns:
        The (concurrency_level, total_cycles_at_level) pairs, sorted by
        level and each with a positive weight, and the first and last
        event times (both 0 when no interval is kept).
    """
    kept = list(map(lt, starts, ends))
    opened = Counter(compress(starts, kept))
    closed = Counter(compress(ends, kept))
    times = sorted(opened.keys() | closed.keys())
    if not times:
        return [], 0, 0
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
    return sorted(weights.items()), times[0], times[-1]


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


def _cdf(weighted: list[tuple[int, int]]) -> OccupancyCdf:
    """The CDF of a sorted (level, cycles) histogram."""
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


def occupancy_cdf(starts: Sequence[int], ends: Sequence[int]) -> OccupancyCdf:
    """Build the CDF of concurrent ``[start, end)`` intervals over time."""
    return _cdf(_counts_over_time(starts, ends)[0])


def _pooled(
    histograms: list[tuple[list[tuple[int, int]], int, int]],
    offsets: list[int],
) -> list[tuple[int, int]]:
    """The histogram of several runs placed back to back.

    Run *k*'s events are shifted by ``offsets[k]``. The runs then never
    overlap, so the pooled histogram is the sum of theirs plus, at level
    0, the idle gap from each run's last event to the next run's first.
    """
    weights: Counter[int] = Counter()
    end = None
    for (weighted, first, last), offset in zip(histograms, offsets):
        if not weighted:
            continue
        if end is not None:
            gap = offset + first - end
            if gap < 0:
                raise ValueError(
                    "lifetime logs overlap when run back to back: an "
                    "interval outlasts its log's last free"
                )
            if gap:
                weights[0] += gap
        weights.update(dict(weighted))
        end = offset + last
    return sorted(weights.items())


def occupancy_cdfs(
    logs: Sequence[list[int] | None],
) -> list[tuple[OccupancyCdf, OccupancyCdf]]:
    """Allocated and live register CDFs (Figure 2), per log and pooled.

    Returns one ``(allocated, live)`` pair per log, in order, then the
    pair over all logs at once (Figure 2's ALL row). A register is
    allocated from ``alloc`` to ``free`` and its value is live from
    ``write`` to ``last_read``; zero-length ranges (values never read)
    count nothing.

    Each benchmark's run starts at cycle 0, so naively pooling their
    logs would overlap intervals from different runs and add their
    concurrency levels. The pool runs them back to back instead: log
    *k* is shifted past the logs before it, each of which takes
    ``max(0, last free) + 1`` cycles (a log with no live interval
    too). Each log is counted once, and the pooled histograms are
    derived from the per-log ones (:func:`_pooled`). That is exact as
    long as the shifted logs do not overlap, which holds for every
    pipeline log (no time below 0, ``last_read <= free``); logs that
    do overlap raise ``ValueError``.
    """
    allocated, live, offsets = [], [], []
    offset = 0
    for log in logs:
        log = _recorded(log)
        frees = log[3::4]
        allocated.append(_counts_over_time(log[0::4], frees))
        live.append(_counts_over_time(log[1::4], log[2::4]))
        offsets.append(offset)
        offset += max(0, max(frees, default=0)) + 1
    cdfs = [
        (_cdf(alloc[0]), _cdf(used[0])) for alloc, used in zip(allocated, live)
    ]
    cdfs.append(
        (_cdf(_pooled(allocated, offsets)), _cdf(_pooled(live, offsets)))
    )
    return cdfs
