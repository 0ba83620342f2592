"""The packed lifetime analyses against a brute-force reference.

``repro.core.lifetimes`` works on the columns of a flat log (four ints
per allocation: alloc, write, last_read, free) with sorted event
sweeps. The reference here walks one record at a time and counts
concurrency cycle by cycle, so the two share no code.
"""

from statistics import median

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.lifetimes import (
    allocated_cdf,
    concatenate_records,
    live_cdf,
    phase_summary,
)

_TIME = st.integers(min_value=0, max_value=40)

#: Arbitrary records: phases may be empty (never-read values, values
#: freed at allocation) or reversed (the analyses floor them at 0).
_RECORDS = st.lists(st.tuples(_TIME, _TIME, _TIME, _TIME), max_size=24)


@st.composite
def _ordered_records(draw):
    """Records in pipeline order: alloc <= write <= last_read <= free."""
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        alloc, write, last_read, free = sorted(
            draw(st.tuples(_TIME, _TIME, _TIME, _TIME))
        )
        if draw(st.booleans()):
            last_read = write  # never read
        records.append((alloc, write, last_read, free))
    return records


def _flat(records):
    return [value for record in records for value in record]


def _reference_median(values):
    return float(median(values)) if values else 0.0


def _reference_cdf(intervals):
    """(levels, cumulative) of ``[start, end)`` intervals, per cycle."""
    spans = [(start, end) for start, end in intervals if end > start]
    if not spans:
        return (0,), (1.0,)
    first = min(start for start, _ in spans)
    last = max(end for _, end in spans)
    cycles_at: dict[int, int] = {}
    for cycle in range(first, last):
        level = sum(1 for start, end in spans if start <= cycle < end)
        cycles_at[level] = cycles_at.get(level, 0) + 1
    total = last - first
    levels, cumulative, running = [], [], 0
    for level in sorted(cycles_at):
        running += cycles_at[level]
        levels.append(level)
        cumulative.append(running / total)
    return tuple(levels), tuple(cumulative)


def _check_against_reference(records):
    log = _flat(records)
    summary = phase_summary(log)
    assert summary.empty == _reference_median(
        [max(0, w - a) for a, w, _, _ in records]
    )
    assert summary.live == _reference_median(
        [max(0, r - w) for _, w, r, _ in records]
    )
    assert summary.dead == _reference_median(
        [max(0, f - r) for _, _, r, f in records]
    )
    alloc = allocated_cdf(log)
    assert (alloc.levels, alloc.cumulative) == _reference_cdf(
        [(a, f) for a, _, _, f in records]
    )
    live = live_cdf(log)
    assert (live.levels, live.cumulative) == _reference_cdf(
        [(w, r) for _, w, r, _ in records]
    )


@given(_RECORDS)
@example([])
@example([(3, 3, 3, 3)])  # every phase and interval empty
@example([(0, 10, 10, 40), (5, 12, 12, 45)])  # never-read values
@example([(10, 5, 3, 1)])  # reversed phases floor at 0
def test_analyses_match_reference_on_any_log(records):
    _check_against_reference(records)


@given(_ordered_records())
def test_analyses_match_reference_on_pipeline_ordered_logs(records):
    _check_against_reference(records)


@given(st.lists(_RECORDS, max_size=4))
def test_pooled_logs_run_back_to_back(groups):
    """Pooling shifts each group past the previous group's last free."""
    shifted, offset = [], 0
    for records in groups:
        shifted += [
            tuple(value + offset for value in record) for record in records
        ]
        offset += max([0] + [free for *_, free in records]) + 1
    pooled = concatenate_records([_flat(records) for records in groups])
    assert pooled == _flat(shifted)
    alloc = allocated_cdf(pooled)
    assert (alloc.levels, alloc.cumulative) == _reference_cdf(
        [(a, f) for a, _, _, f in shifted]
    )
