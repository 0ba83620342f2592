"""Unit tests for insertion and replacement policies."""

import pytest

from repro.regfile.insertion import (
    AlwaysInsert,
    NonBypassInsert,
    UseBasedInsert,
    make_insertion_policy,
)
from repro.regfile.register_cache import CacheEntry
from repro.regfile.replacement import (
    LRUReplacement,
    UseBasedReplacement,
    make_replacement_policy,
)


# ----------------------------------------------------------------------
# Insertion


def test_always_insert():
    policy = AlwaysInsert()
    assert policy.admit(0, 5, False)


def test_non_bypass_skips_any_bypassed():
    policy = NonBypassInsert()
    assert policy.admit(3, 0, False)
    # Even a multi-use value is filtered after one bypass — the paper's
    # criticism of the heuristic.
    assert not policy.admit(3, 1, False)


def test_use_based_inserts_remaining_uses():
    policy = UseBasedInsert()
    assert policy.admit(3, 1, False)
    assert not policy.admit(1, 1, False)
    assert not policy.admit(0, 0, False)


def test_use_based_always_inserts_pinned():
    policy = UseBasedInsert()
    assert policy.admit(7, 7, True)


def test_insertion_registry():
    assert isinstance(make_insertion_policy("always"), AlwaysInsert)
    assert isinstance(make_insertion_policy("non_bypass"), NonBypassInsert)
    assert isinstance(make_insertion_policy("use_based"), UseBasedInsert)
    with pytest.raises(ValueError):
        make_insertion_policy("sometimes")


# ----------------------------------------------------------------------
# Replacement


def entry(preg, remaining=0, pinned=False, last_access=0):
    e = CacheEntry(preg, remaining, pinned, last_access, is_fill=False)
    return e


def test_lru_picks_oldest():
    policy = LRUReplacement()
    entries = [entry(1, last_access=5), entry(2, last_access=3),
               entry(3, last_access=9)]
    assert policy.select_victim(entries) == 1


def test_use_based_picks_fewest_remaining():
    policy = UseBasedReplacement()
    entries = [entry(1, remaining=2), entry(2, remaining=0),
               entry(3, remaining=5)]
    assert policy.select_victim(entries) == 1


def test_use_based_tie_breaks_lru():
    policy = UseBasedReplacement()
    entries = [entry(1, remaining=1, last_access=9),
               entry(2, remaining=1, last_access=2)]
    assert policy.select_victim(entries) == 1


def test_use_based_avoids_pinned():
    policy = UseBasedReplacement()
    entries = [entry(1, remaining=0, pinned=True),
               entry(2, remaining=4, pinned=False)]
    # The unpinned entry is evicted despite having more remaining uses.
    assert policy.select_victim(entries) == 1


def test_use_based_all_pinned_falls_back():
    policy = UseBasedReplacement()
    entries = [entry(1, remaining=7, pinned=True, last_access=4),
               entry(2, remaining=7, pinned=True, last_access=1)]
    assert policy.select_victim(entries) == 1  # LRU among pinned


def test_replacement_registry():
    assert isinstance(make_replacement_policy("lru"), LRUReplacement)
    assert isinstance(
        make_replacement_policy("use_based"), UseBasedReplacement
    )
    with pytest.raises(ValueError):
        make_replacement_policy("fifo")
