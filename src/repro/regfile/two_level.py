"""Optimistic two-level register file (Balasubramonian et al., paper §5.5).

The two-level scheme is not a cache: the L1 register file holds *all*
architecturally required values, and a move engine copies values deemed
dead-ish (no pending consumers, architectural register reassigned) to an
L2 file, freeing L1 slots for rename. Its costs, per the paper, are:

* **rename stalls** when no free L1 register exists (the dominant cost),
* **recovery copies** from L2 back to L1 after control mis-speculation,
  which stall rename if they outlast the front-end refill.

The paper's evaluation grants the scheme several optimistic boosts, which
we replicate: 4 registers/cycle L1<->L2 bandwidth, an infinite L2, and
explicit modelling of recovery transfers in parallel with pipeline
refill.

Values are identified by the caller's physical-register ids; the class
tracks L1 slot occupancy, move eligibility, and recovery cost.
"""

from __future__ import annotations

from collections import deque

from repro.errors import RegisterFileError

_IN_L1 = 0
_MOVED = 1
_FREED = 2


class TwoLevelRegisterFile:
    """L1/L2 register file with a threshold-driven move engine.

    Args:
        l1_capacity: number of L1 registers (the paper uses the compared
            cache size plus 32 architected-FP slots).
        l2_latency: L2 read latency, observed during recovery.
        move_bandwidth: values moved (or restored) per cycle (4).
        free_threshold: moves begin when free L1 registers drop below
            this count.
        recovery_window: how far back (cycles) moves are considered
            at-risk on a misprediction; approximates moves performed
            while the branch was unresolved.
    """

    def __init__(
        self,
        l1_capacity: int,
        l2_latency: int = 2,
        move_bandwidth: int = 4,
        free_threshold: int = 12,
        recovery_window: int = 16,
    ) -> None:
        if l1_capacity <= 0:
            raise ValueError("l1_capacity must be positive")
        self.l1_capacity = l1_capacity
        self.l2_latency = l2_latency
        self.move_bandwidth = move_bandwidth
        self.free_threshold = free_threshold
        self.recovery_window = recovery_window

        self.free_slots = l1_capacity
        self._state: dict[int, int] = {}
        self._pending: dict[int, int] = {}
        self._reassigned: set[int] = set()
        self._eligible: deque[int] = deque()
        self._recent_moves: deque[tuple[int, int]] = deque()  # (cycle, vid)

        self.moves = 0
        self.restores = 0
        self.rename_stall_cycles = 0
        self.recovery_stall_cycles = 0

    # ------------------------------------------------------------------
    # Allocation interface (rename stage).

    def can_allocate(self) -> bool:
        """True when a free L1 register is available this cycle."""
        return self.free_slots > 0

    def allocate(self, vid: int) -> None:
        """Claim an L1 slot for value *vid*.

        Raises:
            RegisterFileError: when no slot is free (caller must stall).
        """
        if self.free_slots <= 0:
            raise RegisterFileError("no free L1 registers")
        if self._state.get(vid) == _IN_L1:
            raise RegisterFileError(f"value {vid} already allocated")
        self.free_slots -= 1
        self._state[vid] = _IN_L1
        self._pending[vid] = 0

    def note_rename_stall(self, cycles: int = 1) -> None:
        """Account rename stall cycles caused by L1 exhaustion."""
        self.rename_stall_cycles += cycles

    # ------------------------------------------------------------------
    # Liveness tracking (move eligibility).

    def add_pending_consumer(self, vid: int) -> None:
        """A consumer of *vid* was renamed but has not executed."""
        if vid in self._pending:
            self._pending[vid] += 1

    def consumer_executed(self, vid: int, now: int) -> None:
        """A renamed consumer of *vid* finished executing."""
        if vid in self._pending and self._pending[vid] > 0:
            self._pending[vid] -= 1
            self._maybe_eligible(vid)

    def reassigned(self, vid: int, now: int) -> None:
        """The architectural register holding *vid* was renamed again."""
        self._reassigned.add(vid)
        self._maybe_eligible(vid)

    def _maybe_eligible(self, vid: int) -> None:
        if (
            self._state.get(vid) == _IN_L1
            and vid in self._reassigned
            and self._pending.get(vid, 0) == 0
        ):
            self._eligible.append(vid)

    def free(self, vid: int) -> None:
        """The value is architecturally dead (overwriter retired)."""
        state = self._state.pop(vid, None)
        if state == _IN_L1:
            self.free_slots += 1
        self._pending.pop(vid, None)
        self._reassigned.discard(vid)

    # ------------------------------------------------------------------
    # Move engine.

    def tick(self, now: int) -> int:
        """Run one cycle of the move engine; returns values moved."""
        if self.free_slots >= self.free_threshold:
            return 0
        moved = 0
        while moved < self.move_bandwidth and self._eligible:
            vid = self._eligible.popleft()
            # Entries may be stale (freed, re-appended, or regained a
            # pending consumer since being queued).
            if (
                self._state.get(vid) != _IN_L1
                or self._pending.get(vid, 0) != 0
                or vid not in self._reassigned
            ):
                continue
            self._state[vid] = _MOVED
            self.free_slots += 1
            self.moves += 1
            moved += 1
            self._recent_moves.append((now, vid))
        while (
            self._recent_moves
            and self._recent_moves[0][0] < now - 4 * self.recovery_window
        ):
            self._recent_moves.popleft()
        return moved

    # ------------------------------------------------------------------
    # Mis-speculation recovery.

    def on_mispredict(self, resolve_cycle: int, refill_cycles: int) -> int:
        """Model L2->L1 recovery after a mispredicted branch.

        Values moved to L2 while the branch was unresolved may have had
        their architectural reassignment squashed and must be restored to
        L1. Restores run at ``move_bandwidth`` per cycle, in parallel
        with the front-end refill; rename stalls only for the excess.

        Returns:
            Extra rename-stall cycles beyond the refill shadow.
        """
        at_risk = [
            vid for cycle, vid in self._recent_moves
            if cycle >= resolve_cycle - self.recovery_window
            and self._state.get(vid) == _MOVED
        ]
        if not at_risk:
            return 0
        for vid in at_risk:
            self._state[vid] = _IN_L1
            self._reassigned.discard(vid)
            self.free_slots -= 1
        self.restores += len(at_risk)
        transfer = self.l2_latency + -(-len(at_risk) // self.move_bandwidth)
        extra = max(0, transfer - refill_cycles)
        self.recovery_stall_cycles += extra
        return extra

    # ------------------------------------------------------------------

    @property
    def l1_occupancy(self) -> int:
        """Currently occupied L1 registers."""
        return self.l1_capacity - self.free_slots
