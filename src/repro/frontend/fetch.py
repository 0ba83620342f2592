"""Trace-driven front end: fetch timing plus branch prediction.

The front end walks the committed trace in order and computes, for each
instruction, the cycle at which it becomes available to the dispatch
stage. It models:

* 8-wide fetch with at most one taken branch per fetch block (Table 1),
* instruction-cache misses stalling fetch,
* branch prediction (YAGS direction, perfect BTB for direct targets, RAS
  for returns, cascading indirect predictor) — a misprediction stops
  fetch until the pipeline reports the branch resolved, modelling the
  full misprediction loop,
* the front-end pipeline depth (fetch + decode + rename + dispatch
  stages) between fetch and dispatch availability.

Wrong-path instructions are not injected; their cost is the fetch gap
plus the refill depth, matching the paper's minimum 15-cycle
misprediction loop when the register read takes one cycle.

The fetch queue holds no objects: fetch writes each record's
dispatch-ready cycle into :attr:`FrontEnd.ready_at` (one int per trace
record), and the queue is the index range ``[head, next_index)`` of the
trace. Whether a record is a mispredicted branch is read from the
branch plan (``branch_plan[index] & PLAN_MISS``).
"""

from __future__ import annotations

from repro.frontend.branch import YagsPredictor
from repro.frontend.btb import IndirectPredictor, ReturnAddressStack
from repro.isa.instruction import LINK_REG
from repro.vm.trace import Trace


#: Branch-plan codes, one per trace record: bit 0 = counts toward
#: ``branches_seen`` (a conditional branch), bit 1 = mispredicted.
_PLAN_COND = 1
PLAN_MISS = 2

#: A cycle no simulation reaches: :meth:`FrontEnd.wake_after`'s "not
#: until something else happens".
NEVER = 1 << 62


def branch_plan_for(trace: Trace) -> list[int]:
    """Per-record branch outcomes for *trace*, memoized on the trace.

    The front end's predictors (YAGS direction, RAS, cascading
    indirect) are trained in trace order with no timing feedback, so
    their hit/miss decisions depend only on the record sequence — not
    on the machine configuration being simulated. One prediction pass
    per trace therefore serves every configuration that simulates it:
    :class:`FrontEnd` replays the plan instead of predicting.

    The plan is cached on the trace object itself (in-process only; it
    is derived data and deliberately kept out of the on-disk trace
    cache, whose format stays prediction-agnostic).
    """
    plan = getattr(trace, "_branch_plan", None)
    if plan is not None:
        return plan
    direction = YagsPredictor()
    indirect = IndirectPredictor()
    ras = ReturnAddressStack()
    plan = []
    append = plan.append
    for dyn in trace.records:
        if not dyn.is_branch:
            append(0)
            continue
        inst = dyn.inst
        code = 0
        if dyn.is_conditional:
            code = _PLAN_COND
            predicted = direction.predict(dyn.pc)
            direction.update(dyn.pc, dyn.taken)
            if predicted != dyn.taken:
                code |= PLAN_MISS
        elif dyn.is_indirect:
            if inst.src1 == LINK_REG and inst.dest is None:
                # Return: predict through the RAS.
                predicted_target = ras.pop()
            else:
                predicted_target = indirect.predict(dyn.pc)
                indirect.update(dyn.pc, dyn.target)
            if predicted_target != dyn.target:
                code |= PLAN_MISS
        # Direct jumps/branches have perfect targets (perfect BTB).
        if inst.dest == LINK_REG:
            ras.push(dyn.pc + 1)
        append(code)
    try:
        trace._branch_plan = plan
    except AttributeError:  # slotted/frozen trace: recompute per call
        pass
    return plan


class FrontEnd:
    """Computes dispatch-availability times for a committed trace.

    Args:
        trace: the committed instruction stream.
        fetch_width: instructions fetched per cycle.
        front_depth: pipeline stages between fetch and dispatch
            availability (fetch 4 + decode 2 + rename 3 + dispatch 2 = 11
            per Table 1; the extra issue stage is modelled in the core).
        queue_capacity: fetch-queue depth providing elasticity between
            fetch and dispatch.
        icache: optional object with ``access(line:int) -> int`` returning
            additional stall cycles for fetching the given line.
        line_insts: instructions per I-cache line (64-byte lines of
            4-byte instructions).

    Branch outcomes come from the trace's memoized plan
    (:func:`branch_plan_for`).
    """

    def __init__(
        self,
        trace: Trace,
        *,
        fetch_width: int = 8,
        front_depth: int = 11,
        queue_capacity: int = 48,
        icache=None,
        line_insts: int = 16,
    ) -> None:
        self.records = trace.records
        self.fetch_width = fetch_width
        self.front_depth = front_depth
        self.queue_capacity = queue_capacity
        self.icache = icache
        self.line_insts = line_insts

        self.branch_plan = branch_plan_for(trace)

        #: Per trace record: the first cycle the dispatch stage may
        #: consume it, written when fetch reaches the record.
        self.ready_at = [0] * len(self.records)
        #: The fetch queue is the record-index range ``[head, next_index)``:
        #: fetched, in program order, not yet dispatched. Dispatch
        #: consumes the head by advancing ``head`` once
        #: :meth:`next_ready` says it is dispatchable.
        self.head = 0
        self.next_index = 0
        self._fetch_cycle = 0
        self._slots_left = fetch_width
        self._stalled_for_branch = False
        self._last_line = -1

        self.branches_seen = 0
        self.mispredicts = 0

    # ------------------------------------------------------------------

    def exhausted(self) -> bool:
        """True when the whole trace has been fetched and dispatched."""
        return self.head >= len(self.records)

    def resume(self, cycle: int) -> None:
        """Restart fetch after a mispredicted branch resolves at *cycle*.

        The next fetch block begins the cycle after resolution (redirect
        takes effect at the start of ``cycle + 1``).
        """
        self._stalled_for_branch = False
        self._fetch_cycle = max(self._fetch_cycle, cycle + 1)
        self._slots_left = self.fetch_width
        self._last_line = -1

    def pull(self, now: int, max_count: int) -> list[int]:
        """Dispatch up to *max_count* records dispatchable at *now*.

        Returns their trace indices. The caller is responsible for
        further admission control (window, ROB, and physical-register
        availability); records not consumed remain queued.
        """
        self._fill_queue(now)
        first = head = self.head
        stop = min(self.next_index, head + max_count)
        ready_at = self.ready_at
        while head < stop and ready_at[head] <= now:
            head += 1
        self.head = head
        return list(range(first, head))

    def next_ready(self, now: int) -> int:
        """Index of the queue head if dispatchable at *now*, else -1.

        This is the dispatch stage's fast path: one fetch-ahead fill and
        one queue probe per call, without consuming. Consume the
        returned record by advancing :attr:`head`.
        """
        self._fill_queue(now)
        head = self.head
        if head < self.next_index and self.ready_at[head] <= now:
            return head
        return -1

    def wake_after(self, now: int) -> int:
        """First cycle after *now* at which :meth:`next_ready` can change.

        Meant to be called right after ``next_ready(now)``. Until the
        returned cycle a probe fetches nothing (fetch waits for its next
        fetch cycle, or is stopped on a mispredicted branch, a full
        queue or the end of the trace) and finds the same head, so a
        dispatch stage with nothing to dispatch can sleep until then.
        :meth:`resume` and a dispatch from the queue void the answer.
        Returns :data:`NEVER` when only they can change anything.
        """
        head = self.head
        next_index = self.next_index
        wake = NEVER
        if not (
            self._stalled_for_branch
            or next_index >= len(self.records)
            or next_index - head >= self.queue_capacity
        ):
            wake = self._fetch_cycle
        if head < next_index:
            ready_at = self.ready_at[head]
            if now < ready_at < wake:
                wake = ready_at
        return wake if wake > now else now + 1

    # ------------------------------------------------------------------

    def _fill_queue(self, now: int) -> None:
        """Fetch ahead until the queue is full or fetch passes *now*.

        Runs once per dispatch-stage probe, so the whole fetch loop
        works on locals and writes the front-end state back once.
        """
        if self._stalled_for_branch:
            return
        records = self.records
        next_index = self.next_index
        # Fetch stops at the end of the trace or a full queue.
        stop = min(len(records), self.head + self.queue_capacity)
        fetch_cycle = self._fetch_cycle
        if next_index >= stop or fetch_cycle > now:
            return
        fetch_width = self.fetch_width
        front_depth = self.front_depth
        line_insts = self.line_insts
        icache = self.icache
        slots_left = self._slots_left
        last_line = self._last_line
        ready_at = self.ready_at
        plan = self.branch_plan
        while next_index < stop and fetch_cycle <= now:
            index = next_index
            dyn = records[index]
            next_index += 1

            line = dyn.pc // line_insts
            if line != last_line:
                last_line = line
                if icache is not None:
                    stall = icache.access(line)
                    if stall:
                        fetch_cycle += stall
                        slots_left = fetch_width

            ready_at[index] = fetch_cycle + front_depth
            slots_left -= 1
            if dyn.is_branch:
                code = plan[index]
                if code & _PLAN_COND:
                    self.branches_seen += 1
                if code & PLAN_MISS:
                    # Fetch stops; the pipeline calls resume() at
                    # resolution.
                    self.mispredicts += 1
                    self._stalled_for_branch = True
                    break
                if dyn.taken:
                    fetch_cycle += 1
                    slots_left = fetch_width
                    last_line = -1
                    continue
            if slots_left == 0:
                fetch_cycle += 1
                slots_left = fetch_width
        self.next_index = next_index
        self._fetch_cycle = fetch_cycle
        self._slots_left = slots_left
        self._last_line = last_line
