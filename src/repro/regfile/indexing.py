"""Register-cache set-index assignment policies (paper §4).

*Standard* indexing derives the set from the physical register number —
the baseline the paper criticizes, since physical register ids come off a
freelist and carry no locality. *Decoupled* indexing assigns an arbitrary
set at rename time; the assignment travels with the mapping through the
rename map (the pipeline's architectural map holds each mapping's
producer op, which carries the preg and its assigned set,
:mod:`repro.core.pipeline`).

Implemented policies (paper §4.2):

* ``preg`` — standard indexing (set = preg mod num_sets).
* ``round_robin`` — sets assigned sequentially in rename order.
* ``minimum`` — set with the smallest sum of predicted uses among the
  values currently assigned to it.
* ``filtered_rr`` — round-robin, skipping sets whose count of *high-use*
  values (> ``high_use_threshold`` predicted uses) exceeds
  ``skip_threshold`` (default: half the associativity).
"""

from __future__ import annotations

import abc


class IndexPolicy(abc.ABC):
    """Assigns register-cache sets to values at rename time."""

    #: True when the policy assigns sets independent of the preg.
    decoupled: bool = True

    def __init__(self, num_sets: int) -> None:
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        self.num_sets = num_sets

    @abc.abstractmethod
    def assign(self, pred_uses: int) -> int:
        """Assign a set for a value with *pred_uses* predicted consumers."""

    def release(self, set_index: int, pred_uses: int) -> None:
        """Notify that a value assigned to *set_index* was freed.

        Only policies that track their sets' contents override this; the
        pipeline skips the call for the others.
        """

    def set_for(self, preg: int, assigned_set: int) -> int:
        """Resolve the set used for accesses to *preg*.

        Decoupled policies use the assignment carried through rename;
        standard indexing derives the set from the preg itself.
        """
        return assigned_set


class StandardIndexing(IndexPolicy):
    """Baseline: low-order bits of the physical register tag."""

    decoupled = False

    def assign(self, pred_uses: int) -> int:
        # The actual set is derived from the preg at access time.
        return -1

    def set_for(self, preg: int, assigned_set: int) -> int:
        return preg % self.num_sets


class RoundRobinIndexing(IndexPolicy):
    """Sequential set assignment in rename order.

    Relies on the correlation between rename order and execution order to
    spread simultaneously-live values across sets (paper §4.2).
    """

    def __init__(self, num_sets: int) -> None:
        super().__init__(num_sets)
        self._next = 0

    def assign(self, pred_uses: int) -> int:
        set_index = self._next
        self._next = (self._next + 1) % self.num_sets
        return set_index


class MinimumIndexing(IndexPolicy):
    """Assign the set with the minimum sum of predicted uses.

    Conceptually attractive but hardware-expensive (the paper notes the
    implementation difficulty); included as the quality ceiling for
    use-aware assignment.
    """

    def __init__(self, num_sets: int) -> None:
        super().__init__(num_sets)
        self._sums = [0] * num_sets

    def assign(self, pred_uses: int) -> int:
        set_index = min(range(self.num_sets), key=self._sums.__getitem__)
        self._sums[set_index] += pred_uses
        return set_index

    def release(self, set_index: int, pred_uses: int) -> None:
        if set_index >= 0:
            self._sums[set_index] = max(0, self._sums[set_index] - pred_uses)


class FilteredRoundRobinIndexing(IndexPolicy):
    """Round-robin that skips sets crowded with high-use values.

    A count of high-use values (> ``high_use_threshold`` predicted uses)
    is kept per set; sets whose count exceeds ``skip_threshold`` are
    skipped in the round-robin order. The paper found a high-use cutoff
    of five uses and a skip threshold of half the associativity to work
    well (§4.2).
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int = 2,
        high_use_threshold: int = 5,
        skip_threshold: int | None = None,
    ) -> None:
        super().__init__(num_sets)
        self.high_use_threshold = high_use_threshold
        self.skip_threshold = (
            max(1, assoc // 2) if skip_threshold is None else skip_threshold
        )
        self._high_counts = [0] * num_sets
        self._next = 0

    def _is_high_use(self, pred_uses: int) -> bool:
        return pred_uses > self.high_use_threshold

    def assign(self, pred_uses: int) -> int:
        # Scan at most one full revolution; if every set is crowded, fall
        # back to plain round-robin placement.
        chosen = self._next
        for _ in range(self.num_sets):
            candidate = self._next
            self._next = (self._next + 1) % self.num_sets
            if self._high_counts[candidate] < self.skip_threshold:
                chosen = candidate
                break
        if self._is_high_use(pred_uses):
            self._high_counts[chosen] += 1
        return chosen

    def release(self, set_index: int, pred_uses: int) -> None:
        if set_index >= 0 and self._is_high_use(pred_uses):
            if self._high_counts[set_index] > 0:
                self._high_counts[set_index] -= 1


#: Registry used by configuration code.
INDEX_POLICIES = {
    "preg": StandardIndexing,
    "round_robin": RoundRobinIndexing,
    "minimum": MinimumIndexing,
    "filtered_rr": FilteredRoundRobinIndexing,
}


def make_index_policy(name: str, num_sets: int, assoc: int) -> IndexPolicy:
    """Instantiate the named index policy.

    Args:
        name: one of :data:`INDEX_POLICIES`.
        num_sets: number of register-cache sets.
        assoc: cache associativity (used by ``filtered_rr``).

    Raises:
        ValueError: for an unknown policy name.
    """
    if name not in INDEX_POLICIES:
        raise ValueError(
            f"unknown index policy {name!r}; choose from "
            f"{sorted(INDEX_POLICIES)}"
        )
    if name == "filtered_rr":
        return FilteredRoundRobinIndexing(num_sets, assoc=assoc)
    return INDEX_POLICIES[name](num_sets)
