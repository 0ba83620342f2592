"""Property-based tests for the register cache.

Random sequences of writes, lookups, and invalidations must preserve the
structure's invariants and its statistics identities.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regfile.indexing import RoundRobinIndexing, StandardIndexing
from repro.regfile.register_cache import RegisterCache
from repro.regfile.replacement import LRUReplacement, UseBasedReplacement

PREGS = 32


def build_cache(entries, assoc, decoupled, use_based):
    assoc_eff = assoc or entries
    num_sets = entries // assoc_eff
    index = (
        RoundRobinIndexing(num_sets) if decoupled
        else StandardIndexing(num_sets)
    )
    replacement = UseBasedReplacement() if use_based else LRUReplacement()
    return RegisterCache(entries, assoc, replacement, index), index


operations = st.lists(
    st.tuples(
        st.sampled_from(["write", "lookup", "invalidate", "filtered"]),
        st.integers(min_value=0, max_value=PREGS - 1),
        st.integers(min_value=0, max_value=7),   # remaining uses
        st.booleans(),                            # pinned
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=60, deadline=None)
@given(
    ops=operations,
    entries_assoc=st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 0), (6, 2)]),
    decoupled=st.booleans(),
    use_based=st.booleans(),
)
def test_cache_invariants_hold(ops, entries_assoc, decoupled, use_based):
    entries, assoc = entries_assoc
    if not decoupled and entries // (assoc or entries) == 3:
        return  # standard indexing with non-power-of-two is fine too
    cache, index = build_cache(entries, assoc, decoupled, use_based)
    assigned: dict[int, int] = {}
    now = 0
    for action, preg, remaining, pinned in ops:
        now += 1
        if action == "write":
            set_index = assigned.get(preg)
            if set_index is None:
                set_index = index.assign(remaining)
                assigned[preg] = set_index
            cache.write(preg, set_index, remaining, pinned, now)
        elif action == "lookup":
            set_index = assigned.get(preg)
            if set_index is None:
                set_index = index.assign(remaining)
                assigned[preg] = set_index
            cache.lookup(preg, set_index, now)
        elif action == "filtered":
            cache.record_filtered_write(preg)
        else:
            cache.invalidate(preg, now)
            assigned.pop(preg, None)
        cache.check_invariants()
        assert cache.occupancy <= cache.num_entries

    stats = cache.stats
    # Statistics identities.
    assert stats.hits + stats.miss_count == stats.reads
    assert stats.instances_cached == stats.writes_initial + stats.writes_fill
    assert stats.evictions == (
        stats.evictions_with_uses + stats.zero_use_victims
    )
    assert stats.invalidations <= stats.values_freed
    assert 0.0 <= stats.miss_rate <= 1.0


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_pinned_entries_survive_unpinned_pressure(ops):
    """A pinned entry is never evicted while its set contains an
    unpinned entry."""
    cache, index = build_cache(4, 2, decoupled=True, use_based=True)
    pinned_set = index.assign(7)
    cache.write(999, pinned_set, 7, pinned=True, now=0)
    now = 0
    for action, preg, remaining, _pinned in ops:
        now += 1
        if action == "write":
            cache.write(preg, pinned_set, remaining, False, now)
    assert cache.contains(999)


@settings(max_examples=40, deadline=None)
@given(
    remainings=st.lists(
        st.integers(min_value=0, max_value=7), min_size=3, max_size=3
    )
)
def test_use_based_victim_minimizes_remaining(remainings):
    """Filling a 2-way set always evicts (one of) the minimum-remaining
    entries."""
    cache, _ = build_cache(2, 2, decoupled=False, use_based=True)
    cache.write(0, -1, remainings[0], False, now=0)
    cache.write(1, -1, remainings[1], False, now=1)
    cache.write(2, -1, remainings[2], False, now=2)
    evicted = next(p for p in (0, 1) if not cache.contains(p))
    survivor = 1 - evicted
    assert remainings[evicted] <= remainings[survivor]


@settings(max_examples=60, deadline=None)
@given(
    ops=operations,
    steps=st.lists(st.integers(min_value=0, max_value=3), min_size=200,
                   max_size=200),
    tail=st.integers(min_value=0, max_value=5),
    entries_assoc=st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 0)]),
    use_based=st.booleans(),
)
def test_occupancy_integral_is_time_weighted_valid_count(
    ops, steps, tail, entries_assoc, use_based,
):
    """The occupancy integral ``finalize`` derives equals the valid-entry
    count summed over every cycle, tracked here from the entries
    themselves. Several accesses may share a cycle."""
    entries, assoc = entries_assoc
    cache, index = build_cache(entries, assoc, True, use_based)
    assigned: dict[int, int] = {}
    now = 0
    last = 0
    integral = 0
    for (action, preg, remaining, pinned), step in zip(ops, steps):
        now += step
        integral += len(cache.entries()) * (now - last)
        last = now
        if action in ("write", "lookup"):
            set_index = assigned.get(preg)
            if set_index is None:
                set_index = assigned[preg] = index.assign(remaining)
            if action == "write":
                cache.write(preg, set_index, remaining, pinned, now,
                            is_fill=pinned)
            else:
                cache.lookup(preg, set_index, now)
        elif action == "filtered":
            cache.record_filtered_write(preg)
        else:
            cache.invalidate(preg, now)
            assigned.pop(preg, None)
    end = now + tail
    integral += len(cache.entries()) * (end - last)
    cache.finalize(end)
    assert cache.stats.occupancy_integral == integral
    cache.finalize(end)  # idempotent
    assert cache.stats.occupancy_integral == integral
