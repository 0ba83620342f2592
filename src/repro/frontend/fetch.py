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
"""

from __future__ import annotations

from collections import deque

from repro.frontend.branch import YagsPredictor
from repro.frontend.btb import IndirectPredictor, ReturnAddressStack
from repro.isa.instruction import LINK_REG
from repro.vm.trace import DynamicInst, Trace


#: Branch-plan codes, one per trace record: bit 0 = counts toward
#: ``branches_seen`` (a conditional branch), bit 1 = mispredicted.
_PLAN_COND = 1
_PLAN_MISS = 2

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
                code |= _PLAN_MISS
        elif dyn.is_indirect:
            if inst.src1 == LINK_REG and inst.dest is None:
                # Return: predict through the RAS.
                predicted_target = ras.pop()
            else:
                predicted_target = indirect.predict(dyn.pc)
                indirect.update(dyn.pc, dyn.target)
            if predicted_target != dyn.target:
                code |= _PLAN_MISS
        # Direct jumps/branches have perfect targets (perfect BTB).
        if inst.dest == LINK_REG:
            ras.push(dyn.pc + 1)
        append(code)
    try:
        trace._branch_plan = plan
    except AttributeError:  # slotted/frozen trace: recompute per call
        pass
    return plan


class FetchedInst:
    """A fetched instruction waiting for dispatch.

    Attributes:
        dyn: the dynamic instruction.
        ready_at: earliest cycle the dispatch stage may consume it.
        mispredicted: True when this is a branch the front end predicted
            incorrectly; fetch stops after it until ``resume`` is called.
    """

    __slots__ = ("dyn", "ready_at", "mispredicted")

    def __init__(self, dyn: DynamicInst, ready_at: int, mispredicted: bool):
        self.dyn = dyn
        self.ready_at = ready_at
        self.mispredicted = mispredicted


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

        #: Fetched instructions in program order; dispatch consumes the
        #: head (after :meth:`next_ready` says it is dispatchable).
        self.queue: deque[FetchedInst] = deque()
        self._next_index = 0
        self._fetch_cycle = 0
        self._slots_left = fetch_width
        self._stalled_for_branch = False
        self._last_line = -1

        self.branches_seen = 0
        self.mispredicts = 0

    # ------------------------------------------------------------------

    def exhausted(self) -> bool:
        """True when the whole trace has been fetched and dispatched."""
        return self._next_index >= len(self.records) and not self.queue

    def resume(self, cycle: int) -> None:
        """Restart fetch after a mispredicted branch resolves at *cycle*.

        The next fetch block begins the cycle after resolution (redirect
        takes effect at the start of ``cycle + 1``).
        """
        self._stalled_for_branch = False
        self._fetch_cycle = max(self._fetch_cycle, cycle + 1)
        self._slots_left = self.fetch_width
        self._last_line = -1

    def pull(self, now: int, max_count: int) -> list[FetchedInst]:
        """Return up to *max_count* instructions dispatchable at *now*.

        The caller is responsible for further admission control (window,
        ROB, and physical-register availability); instructions not
        consumed remain queued.
        """
        self._fill_queue(now)
        queue = self.queue
        out: list[FetchedInst] = []
        while queue and len(out) < max_count and queue[0].ready_at <= now:
            out.append(queue.popleft())
        return out

    def next_ready(self, now: int) -> FetchedInst | None:
        """Head of the queue if dispatchable at *now*, without consuming.

        This is the dispatch stage's fast path: one fetch-ahead fill and
        one queue probe per call. Consume the returned instruction with
        ``queue.popleft()``.
        """
        self._fill_queue(now)
        queue = self.queue
        if queue:
            head = queue[0]
            if head.ready_at <= now:
                return head
        return None

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
        queue = self.queue
        wake = NEVER
        if not (
            self._stalled_for_branch
            or self._next_index >= len(self.records)
            or len(queue) >= self.queue_capacity
        ):
            wake = self._fetch_cycle
        if queue:
            ready_at = queue[0].ready_at
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
        total = len(records)
        next_index = self._next_index
        if next_index >= total:
            return
        queue = self.queue
        capacity = self.queue_capacity
        fetch_cycle = self._fetch_cycle
        queue_len = len(queue)
        if fetch_cycle > now or queue_len >= capacity:
            return
        fetch_width = self.fetch_width
        front_depth = self.front_depth
        line_insts = self.line_insts
        icache = self.icache
        slots_left = self._slots_left
        last_line = self._last_line
        append = queue.append
        plan = self.branch_plan
        while next_index < total and queue_len < capacity \
                and fetch_cycle <= now:
            dyn = records[next_index]
            next_index += 1

            line = dyn.pc // line_insts
            if line != last_line:
                last_line = line
                if icache is not None:
                    stall = icache.access(line)
                    if stall:
                        fetch_cycle += stall
                        slots_left = fetch_width

            ends_block = False
            mispredicted = False
            if dyn.is_branch:
                code = plan[next_index - 1]
                if code & _PLAN_COND:
                    self.branches_seen += 1
                if code & _PLAN_MISS:
                    mispredicted = True
                    self.mispredicts += 1
                if dyn.taken or mispredicted:
                    ends_block = True

            append(FetchedInst(dyn, fetch_cycle + front_depth, mispredicted))
            queue_len += 1

            slots_left -= 1
            if mispredicted:
                # Fetch stops; the pipeline calls resume() at resolution.
                self._stalled_for_branch = True
                break
            if ends_block or slots_left == 0:
                fetch_cycle += 1
                slots_left = fetch_width
                if ends_block:
                    last_line = -1
        self._next_index = next_index
        self._fetch_cycle = fetch_cycle
        self._slots_left = slots_left
        self._last_line = last_line
