"""Generic set-associative memory cache with LRU replacement.

Used for the L1 instruction/data caches and the unified L2 (Table 1).
Only tags are modelled — the timing simulator needs hit/miss decisions,
not data. Addresses are *line* numbers; callers divide by the line size.
"""

from __future__ import annotations


class MemoryCache:
    """Tag-only set-associative cache of memory lines.

    Args:
        num_lines: total line capacity.
        assoc: ways per set.
        name: label for diagnostics.
    """

    def __init__(self, num_lines: int, assoc: int, name: str = "cache") -> None:
        if num_lines <= 0 or assoc <= 0:
            raise ValueError("num_lines and assoc must be positive")
        if num_lines % assoc:
            raise ValueError("num_lines must be a multiple of assoc")
        self.num_lines = num_lines
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        self.name = name
        # Set index -> LRU-ordered list of line tags (MRU last), created
        # on the set's first fill: a short run touches few of the sets.
        self._sets: dict[int, list[int]] = {}
        self.hits = 0
        self.misses = 0

    def _set_for(self, line: int) -> list[int]:
        index = line % self.num_sets
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = []
        return entries

    def probe(self, line: int) -> bool:
        """True when *line* is present; does not update LRU state."""
        return line in self._sets.get(line % self.num_sets, ())

    def access(self, line: int) -> bool:
        """Reference *line*: returns hit/miss and fills on miss."""
        entries = self._set_for(line)
        if line in entries:
            entries.remove(line)
            entries.append(line)
            self.hits += 1
            return True
        self.misses += 1
        self.fill(line)
        return False

    def fill(self, line: int) -> int | None:
        """Insert *line*, returning the evicted line if any."""
        entries = self._set_for(line)
        if line in entries:
            entries.remove(line)
            entries.append(line)
            return None
        evicted = None
        if len(entries) >= self.assoc:
            evicted = entries.pop(0)
        entries.append(line)
        return evicted

    @property
    def miss_rate(self) -> float:
        """Observed miss rate."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
