"""Register-cache insertion (write-filtering) policies (paper §3.1).

The insertion policy decides, at cache-write time, whether a newly
produced value is written into the register cache at all. Only
*first-stage* bypass consumers are known by then (paper §3.1: "Only
next-cycle consumers can affect the cache write decision").
"""

from __future__ import annotations

import abc


class InsertionPolicy(abc.ABC):
    """Decides whether a produced value enters the register cache."""

    name: str

    @abc.abstractmethod
    def admit(
        self, pred_uses: int, bypassed_first_stage: int, pinned: bool
    ) -> bool:
        """True when the value should be written into the cache.

        Args:
            pred_uses: effective predicted degree of use (defaults
                already applied).
            bypassed_first_stage: consumers satisfied by the first
                bypass stage before the write decision.
            pinned: True when the prediction saturated at the maximum
                representable count (such values are never filtered).
        """


class AlwaysInsert(InsertionPolicy):
    """Write every produced value (the LRU reference design)."""

    name = "always"

    def admit(self, pred_uses, bypassed_first_stage, pinned) -> bool:
        return True


class NonBypassInsert(InsertionPolicy):
    """Cruz et al.'s heuristic: skip values bypassed to *any* consumer.

    Uses bypassing as a proxy for liveness: a value observed on the
    bypass network before the write is assumed dead. Values with several
    consumers that bypassed to only some of them are filtered anyway,
    causing the extra misses the paper highlights (§3.1).
    """

    name = "non_bypass"

    def admit(self, pred_uses, bypassed_first_stage, pinned) -> bool:
        return bypassed_first_stage == 0


class UseBasedInsert(InsertionPolicy):
    """The paper's policy: skip only values with no *remaining* uses.

    A value is filtered exactly when the first-stage bypass consumers
    account for all of its predicted uses. Saturated (pinned) values are
    always inserted.
    """

    name = "use_based"

    def admit(self, pred_uses, bypassed_first_stage, pinned) -> bool:
        if pinned:
            return True
        return pred_uses - bypassed_first_stage > 0


#: Registry used by configuration code.
INSERTION_POLICIES = {
    "always": AlwaysInsert,
    "non_bypass": NonBypassInsert,
    "use_based": UseBasedInsert,
}


def make_insertion_policy(name: str) -> InsertionPolicy:
    """Instantiate the named insertion policy.

    Raises:
        ValueError: for an unknown policy name.
    """
    try:
        return INSERTION_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown insertion policy {name!r}; choose from "
            f"{sorted(INSERTION_POLICIES)}"
        ) from None
