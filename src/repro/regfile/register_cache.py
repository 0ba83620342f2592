"""The register cache: a small set-associative cache of register values.

Each entry is augmented with a *remaining-use* count (paper §3) that the
cache decrements as it satisfies reads. The cache delegates victim
selection to a :class:`~repro.regfile.replacement.ReplacementPolicy` and
set resolution to an :class:`~repro.regfile.indexing.IndexPolicy`.

The structure also owns the non-performance statistics the paper reports
in Figures 8-10 and Table 2: miss taxonomy (filtered / conflict /
capacity), write filtering effects, occupancy, entry lifetimes, reads per
cached value, and per-value cache counts. All statistics are maintained
incrementally so they cost O(1) per access; the occupancy integral is
derived from the entry lifetimes once, by :meth:`RegisterCache.finalize`.
Their record, :class:`~repro.core.stats.CacheStats`, and the miss-cause
labels live in :mod:`repro.core.stats` (re-exported here), so decoding a
cached result never loads this model.
"""

from __future__ import annotations

from repro.core.stats import (  # noqa: F401 - re-exported
    MISS_CAPACITY,
    MISS_COLD,
    MISS_CONFLICT,
    MISS_FILTERED,
    CacheStats,
)
from repro.errors import RegisterFileError
from repro.regfile.indexing import IndexPolicy
from repro.regfile.replacement import ReplacementPolicy


class CacheEntry:
    """One register-cache entry.

    Attributes:
        preg: physical register tag (full tag under decoupled indexing).
        remaining: remaining-use count.
        pinned: saturated predicted use; never decremented, last-choice
            victim (paper §3.3).
        last_access: LRU timestamp.
        written_at: cycle the entry was (last) written, for lifetimes.
        reads: reads satisfied by this cached instance.
        is_fill: True when the instance was brought in by a miss fill.
    """

    __slots__ = (
        "preg", "remaining", "pinned", "last_access", "written_at",
        "reads", "is_fill",
    )

    def __init__(
        self, preg: int, remaining: int, pinned: bool, now: int,
        is_fill: bool,
    ) -> None:
        self.preg = preg
        self.remaining = remaining
        self.pinned = pinned
        self.last_access = now
        self.written_at = now
        self.reads = 0
        self.is_fill = is_fill


class RegisterCache:
    """Set-associative register cache with remaining-use counts.

    Args:
        num_entries: total entries. A value of *assoc* equal to 0 makes
            the cache fully associative (one set of ``num_entries``
            ways); otherwise ``num_entries`` must be a multiple of
            *assoc*. Decoupled indexing makes non-power-of-two set
            counts legal (paper §4.1), so no power-of-two check is made.
        assoc: ways per set (0 = fully associative).
        replacement: victim-selection policy.
        index_policy: set-resolution policy (standard or decoupled).
    """

    def __init__(
        self,
        num_entries: int,
        assoc: int,
        replacement: ReplacementPolicy,
        index_policy: IndexPolicy,
    ) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        if assoc == 0:
            assoc = num_entries
        if num_entries % assoc:
            raise ValueError("num_entries must be a multiple of assoc")
        self.num_entries = num_entries
        self.assoc = assoc
        self.num_sets = num_entries // assoc
        if index_policy.num_sets != self.num_sets:
            raise ValueError(
                f"index policy built for {index_policy.num_sets} sets, "
                f"cache has {self.num_sets}"
            )
        self.replacement = replacement
        self.index_policy = index_policy
        # Standard indexing derives the set from the preg; accesses do
        # that inline instead of asking the policy.
        self._standard = not index_policy.decoupled
        self.stats = CacheStats()

        self._sets: list[list[CacheEntry]] = [[] for _ in range(self.num_sets)]
        self._where: dict[int, int] = {}  # preg -> set index (validity map)
        # Why an absent value is absent, for miss classification.
        self._absent_reason: dict[int, str] = {}
        # Per-allocation bookkeeping (reset by invalidate).
        self._cached_count_this_alloc: dict[int, int] = {}
        self._valid = 0

    # ------------------------------------------------------------------
    # Time-weighted occupancy.

    def finalize(self, now: int) -> None:
        """Derive the occupancy integral at the end of simulation.

        Every cached instance is valid from its write until it departs,
        so the time-weighted valid count up to *now* is the summed
        lifetime of the departed instances plus the residents' time so
        far. Accesses must come in non-decreasing time order, as the
        pipeline issues them.
        """
        self.stats.occupancy_integral = self.stats.lifetime_sum + sum(
            now - entry.written_at
            for entries in self._sets for entry in entries
        )

    @property
    def occupancy(self) -> int:
        """Current number of valid entries."""
        return self._valid

    # ------------------------------------------------------------------
    # Access paths.

    def contains(self, preg: int) -> bool:
        """True when *preg*'s value is currently cached."""
        return preg in self._where

    def lookup(self, preg: int, assigned_set: int, now: int) -> bool:
        """Read *preg* from the cache; returns hit/miss.

        On a hit the remaining-use count is decremented (unless pinned)
        and LRU state updated. On a miss the cause is classified and
        recorded (Figure 8 taxonomy).
        """
        self.stats.reads += 1
        set_index = preg % self.num_sets if self._standard else assigned_set
        stored = self._where.get(preg)
        if stored is not None:
            if stored != set_index:
                raise RegisterFileError(
                    f"preg {preg} cached in set {stored} but accessed via "
                    f"set {set_index}"
                )
            for entry in self._sets[set_index]:
                if entry.preg == preg:
                    entry.last_access = now
                    entry.reads += 1
                    if not entry.pinned and entry.remaining > 0:
                        entry.remaining -= 1
                    self.stats.hits += 1
                    return True
            raise RegisterFileError(
                f"validity map claims preg {preg} in set {stored} "
                "but entry not found"
            )  # pragma: no cover - internal invariant
        cause = self._absent_reason.get(preg, MISS_COLD)
        self.stats.misses[cause] += 1
        return False

    def write(
        self,
        preg: int,
        assigned_set: int,
        remaining: int,
        pinned: bool,
        now: int,
        is_fill: bool = False,
    ) -> int | None:
        """Insert *preg*'s value; returns the evicted preg, if any.

        The insertion-policy decision is the caller's responsibility
        (the pipeline has the bypass information); this method performs
        the write unconditionally. Writing a preg already present
        refreshes the entry in place.
        """
        set_index = preg % self.num_sets if self._standard else assigned_set
        entries = self._sets[set_index]

        if preg in self._where:
            # Refresh in place (e.g. a fill racing a pending write).
            for entry in entries:
                if entry.preg == preg:
                    entry.remaining = remaining
                    entry.pinned = pinned
                    entry.last_access = now
                    return None
            raise RegisterFileError(  # pragma: no cover
                f"validity map out of sync for preg {preg}"
            )

        evicted: int | None = None
        if len(entries) >= self.assoc:
            victim_index = self.replacement.select_victim(entries)
            victim = entries.pop(victim_index)
            evicted = victim.preg
            self._retire_entry(victim, now)
            del self._where[victim.preg]
            self.stats.evictions += 1
            if victim.remaining > 0 or victim.pinned:
                self.stats.evictions_with_uses += 1
            else:
                self.stats.zero_use_victims += 1
            # Eviction-cause classification: a full cache means genuine
            # capacity pressure; otherwise the set conflicted while other
            # sets had room.
            cause = (
                MISS_CAPACITY if self._valid >= self.num_entries
                else MISS_CONFLICT
            )
            self._absent_reason[victim.preg] = cause
            self._valid -= 1

        entries.append(CacheEntry(preg, remaining, pinned, now, is_fill))
        self._where[preg] = set_index
        self._absent_reason.pop(preg, None)
        self._valid += 1
        self.stats.instances_cached += 1
        self._cached_count_this_alloc[preg] = (
            self._cached_count_this_alloc.get(preg, 0) + 1
        )
        if is_fill:
            self.stats.writes_fill += 1
        else:
            self.stats.writes_initial += 1
        return evicted

    def record_filtered_write(self, preg: int) -> None:
        """Record that the insertion policy skipped *preg*'s write."""
        self.stats.writes_filtered += 1
        self._absent_reason.setdefault(preg, MISS_FILTERED)

    def invalidate(self, preg: int, now: int) -> None:
        """Remove *preg* when its physical register is freed (§2.2).

        Also closes out the per-allocation statistics for the value,
        whether or not it was ever cached.
        """
        set_index = self._where.pop(preg, None)
        if set_index is not None:
            entries = self._sets[set_index]
            for position, entry in enumerate(entries):
                if entry.preg == preg:
                    self._retire_entry(entry, now)
                    entries.pop(position)
                    break
            self._valid -= 1
            self.stats.invalidations += 1
        self._absent_reason.pop(preg, None)
        cached_times = self._cached_count_this_alloc.pop(preg, 0)
        self.stats.values_freed += 1
        if cached_times == 0:
            self.stats.values_never_cached += 1

    def _retire_entry(self, entry: CacheEntry, now: int) -> None:
        """Fold a departing entry into lifetime/read statistics."""
        self.stats.lifetime_sum += now - entry.written_at
        self.stats.lifetime_count += 1
        if entry.reads == 0:
            self.stats.instances_never_read += 1

    # ------------------------------------------------------------------

    def remaining_uses(self, preg: int) -> int | None:
        """Remaining-use count of a cached value (None if absent)."""
        set_index = self._where.get(preg)
        if set_index is None:
            return None
        for entry in self._sets[set_index]:
            if entry.preg == preg:
                return entry.remaining
        return None  # pragma: no cover - map kept in sync

    def entries(self) -> list[CacheEntry]:
        """All valid entries (for tests and introspection)."""
        return [entry for entries in self._sets for entry in entries]

    def check_invariants(self) -> None:
        """Validate internal consistency (used by property tests).

        Raises:
            RegisterFileError: if the validity map, set sizes, or valid
                count disagree with the actual contents.
        """
        seen = {}
        for set_index, entries in enumerate(self._sets):
            if len(entries) > self.assoc:
                raise RegisterFileError(
                    f"set {set_index} holds {len(entries)} > {self.assoc}"
                )
            for entry in entries:
                if entry.preg in seen:
                    raise RegisterFileError(
                        f"preg {entry.preg} cached twice"
                    )
                seen[entry.preg] = set_index
        if seen != self._where:
            raise RegisterFileError("validity map out of sync")
        if len(seen) != self._valid:
            raise RegisterFileError("valid count out of sync")
