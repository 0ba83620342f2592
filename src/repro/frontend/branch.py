"""Branch direction prediction: bimodal and YAGS predictors.

Table 1 of the paper specifies a 12KB YAGS conditional branch predictor.
YAGS (Yet Another Global Scheme, Eden & Mudge 1998) keeps a bimodal
*choice* table plus two small tagged direction caches recording only the
cases that disagree with the bimodal bias (the "T cache" holds
taken-biased exceptions of a not-taken choice and vice versa).

The timing model only needs a predicted direction per dynamic branch; the
misprediction penalty is applied by the pipeline when the prediction
disagrees with the trace outcome.

Counter state is stored in flat integer lists (not objects): a predictor
is instantiated for every simulation run, so construction cost matters.
"""

from __future__ import annotations


class BimodalPredictor:
    """Classic per-pc 2-bit counter table."""

    def __init__(self, entries: int = 4096) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.table = [2] * entries  # weakly taken

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at *pc*."""
        return self.table[pc % self.entries] >= 2

    def update(self, pc: int, outcome: bool) -> None:
        """Train on the resolved *outcome*."""
        index = pc % self.entries
        value = self.table[index]
        if outcome:
            if value < 3:
                self.table[index] = value + 1
        elif value > 0:
            self.table[index] = value - 1


class _DirectionCache:
    """Tagged exception cache used by YAGS (direct-mapped)."""

    __slots__ = ("entries", "tags", "counters")

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.tags = [-1] * entries
        self.counters = [0] * entries

    def probe(self, index: int, tag: int) -> bool | None:
        """Return the cached direction, or ``None`` on a tag miss."""
        if self.tags[index] == tag:
            return self.counters[index] >= 2
        return None

    def insert(self, index: int, tag: int, outcome: bool) -> None:
        self.tags[index] = tag
        self.counters[index] = 3 if outcome else 0

    def update(self, index: int, tag: int, outcome: bool) -> bool:
        """Train an existing entry; returns False on tag mismatch."""
        if self.tags[index] != tag:
            return False
        value = self.counters[index]
        if outcome:
            if value < 3:
                self.counters[index] = value + 1
        elif value > 0:
            self.counters[index] = value - 1
        return True


class YagsPredictor:
    """YAGS: bimodal choice + tagged taken/not-taken exception caches.

    Args:
        choice_entries: size of the bimodal choice table.
        cache_entries: size of each exception cache. The Table 1 budget
            (12KB) roughly corresponds to 16K choice counters and 4K
            entries per exception cache.
        history_bits: global-history length folded into the exception
            cache index.
    """

    def __init__(
        self,
        choice_entries: int = 16_384,
        cache_entries: int = 4_096,
        history_bits: int = 12,
    ) -> None:
        self.choice = BimodalPredictor(choice_entries)
        self.taken_cache = _DirectionCache(cache_entries)
        self.not_taken_cache = _DirectionCache(cache_entries)
        self.cache_entries = cache_entries
        self.history_mask = (1 << history_bits) - 1
        self.history = 0
        self.lookups = 0
        self.correct = 0

    def _cache_index(self, pc: int) -> tuple[int, int]:
        index = (pc ^ self.history) % self.cache_entries
        tag = pc & 0xFF
        return index, tag

    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at *pc*."""
        choice = self.choice.predict(pc)
        index, tag = self._cache_index(pc)
        # The exception cache consulted is the one holding cases that
        # contradict the bimodal choice.
        cache = self.not_taken_cache if choice else self.taken_cache
        exception = cache.probe(index, tag)
        return exception if exception is not None else choice

    def update(self, pc: int, outcome: bool) -> None:
        """Train all component tables and shift the global history."""
        prediction = self.predict(pc)
        self.lookups += 1
        if prediction == outcome:
            self.correct += 1
        choice = self.choice.predict(pc)
        index, tag = self._cache_index(pc)
        cache = self.not_taken_cache if choice else self.taken_cache
        if outcome != choice:
            # Record the exception (insert if absent).
            if not cache.update(index, tag, outcome):
                cache.insert(index, tag, outcome)
        else:
            # Only weaken an existing exception entry; never insert on
            # agreement (keeps the caches for true exceptions only).
            cache.update(index, tag, outcome)
        self.choice.update(pc, outcome)
        self.history = ((self.history << 1) | int(outcome)) & self.history_mask

    @property
    def accuracy(self) -> float:
        """Observed prediction accuracy so far (0 when untrained)."""
        return self.correct / self.lookups if self.lookups else 0.0
