"""Cycle-level out-of-order timing model.

This is the machine of Table 1: trace-driven, 8-wide, deeply pipelined,
with a 128-entry issue window, 512-entry ROB, and one of three register
storage schemes:

* ``register_cache`` — single-cycle register cache over a multi-cycle
  backing file, with pluggable insertion/replacement/indexing policies
  (the paper's proposal and both caching reference designs),
* ``monolithic`` — multi-cycle monolithic register file with a limited
  two-stage bypass network (the no-cache baselines),
* ``two_level`` — the optimistic two-level register file of §5.5.

Timing rules (derivations in DESIGN.md §4):

* An instruction issued at cycle ``t`` starts executing at
  ``t + 1 + read_latency`` (1 for cache/two-level, R for monolithic).
* A consumer of producer ``p`` may issue from ``p.exec_end - read_latency``
  (bypass stage 1); the bypass network covers ``bypass_stages`` cycles;
  afterwards the operand must come from storage, available from
  ``p.exec_end + 1`` (cache write / L1) or ``p.exec_end + W - R``
  (monolithic file with read-during-write forwarding).
* A register-cache miss blocks the issue stage for the detection cycle
  (replaying the squashed issue group, as on the Alpha 21264) and sends
  the instruction to the backing file through a single arbitrated read
  port, waiting for the producer's backing write if necessary.
* Loads probe the data cache when their address is ready; an L1 miss
  blocks issue for ``read_latency`` cycles, modelling the load-hit
  speculation replay loop whose length grows with the register read
  latency (paper §1).
"""

from __future__ import annotations

from collections import deque

from repro.core.config import MachineConfig
from repro.core.stats import LifetimeRecord, SimStats
from repro.errors import RenameError, SimulationError
from repro.frontend.fetch import FrontEnd
from repro.isa.instruction import NUM_ARCH_REGS
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.predict.degree_of_use import DegreeOfUsePredictor
from repro.regfile.backing import BackingFile
from repro.regfile.indexing import make_index_policy
from repro.regfile.insertion import make_insertion_policy
from repro.regfile.physical import PhysicalRegisterFile
from repro.regfile.register_cache import RegisterCache
from repro.regfile.replacement import make_replacement_policy
from repro.regfile.two_level import TwoLevelRegisterFile
from repro.vm.trace import Trace

_WAITING = 0
_ISSUED = 1

#: Slots of a per-cycle event record, in the order a cycle processes
#: them: cache fills, register-cache lookups, d-cache probes,
#: writebacks, branch resolves, the issue candidates, and the loads
#: whose L1 miss blocks issue in that cycle. Each slot is None or a
#: non-empty list.
_FILLS, _LOOKUPS, _DCACHE, _WRITEBACKS, _RESOLVES, _READY, _BLOCKED = range(7)

#: Rename-map entry for a source never written in the trace (a
#: preinitialized environment register): always ready, no cache set.
_NO_SOURCE = (-1, -1)

#: Functional-unit class -> dense index into per-class lists.
_FU_INDEX = {op_class: index for index, op_class in enumerate(OpClass)}


def _op_seq(op: "_Op") -> int:
    """Sort key for issue-group ordering (oldest first)."""
    return op.seq


def _push(events: dict, when: int, slot: int, item) -> None:
    """Append *item* to slot *slot* of cycle *when*'s event record."""
    record = events.get(when)
    if record is None:
        record = events[when] = [None, None, None, None, None, None, None]
    bucket = record[slot]
    if bucket is None:
        record[slot] = [item]
    else:
        bucket.append(item)


def fu_classes_for(trace: Trace) -> list[int]:
    """Per-record functional-unit class index, memoized on the trace.

    Issue arbitrates functional units by class on every issued
    instruction; indexing int lists instead of hashing :class:`OpClass`
    members keeps that per-instruction work cheap, and every
    configuration simulating the trace shares the one list.
    """
    classes = getattr(trace, "_fu_classes", None)
    if classes is None:
        index = _FU_INDEX
        classes = [index[record.op_class] for record in trace.records]
        trace._fu_classes = classes
    return classes


class _Op:
    """One in-flight dynamic instruction.

    An op that allocates a destination register is also that register's
    producer record (``Pipeline.producers[dest_preg]``) from rename until
    the register is freed; the producer fields at the end are set only
    for such ops.
    """

    __slots__ = (
        "seq", "dyn", "sources", "dest_preg", "dest_set", "prev_preg",
        "pred_eff", "pinned", "predicted", "mispredicted",
        "status", "issue_time", "exec_start", "exec_end", "unready",
        "src_producer_seqs", "earliest_epoch", "earliest_value",
        # Producer side.
        "alloc_time", "uses_renamed", "bypass_first", "bypass_total",
        "last_read", "waiters",
    )

    def __init__(self, seq, dyn):
        self.seq = seq
        self.dyn = dyn
        self.sources = ()
        self.dest_preg = -1
        self.dest_set = -1
        self.prev_preg = -1
        self.pred_eff = 0
        self.pinned = False
        self.predicted = None
        self.mispredicted = False
        self.status = _WAITING
        self.issue_time = -1
        self.exec_start = -1
        self.exec_end = -1
        self.unready = 0
        self.src_producer_seqs: tuple[int, ...] = ()
        # Issue-readiness memo: a sound lower bound on the cycle this op
        # could first issue, and the producer-state epoch it was computed
        # in (epoch equality means the bound is exact, see _earliest).
        self.earliest_epoch = -1
        self.earliest_value = 0


class Pipeline:
    """Executes one trace under one machine configuration.

    Use :func:`repro.core.simulator.simulate` for the friendly entry
    point; this class exposes the machinery for tests and extensions.
    """

    def __init__(self, trace: Trace, config: MachineConfig) -> None:
        config.validate()
        self.trace = trace
        self.config = config
        self.record_lifetimes = config.record_lifetimes
        self.stats = SimStats(
            benchmark=trace.name, scheme=config.storage,
            lifetimes=[] if config.record_lifetimes else None,
        )

        num_pregs = config.num_pregs
        if config.storage == "two_level":
            # Preg ids are logical value ids for this scheme; the real
            # constraint is L1 slots, tracked by the two-level model.
            num_pregs = max(num_pregs, 1024)
        # Rename state: a LIFO freelist (most recently freed register
        # first, as a stack allocator behaves — the reuse pattern that
        # makes preg-derived cache indexing conflict-prone, paper §4.1),
        # the checked-out flags, and the architectural map, whose
        # entries are (preg, assigned cache set) pairs.
        self._free_pregs: list[int] = list(range(num_pregs))
        self._preg_allocated = [False] * num_pregs
        self._arch_map: list[tuple[int, int] | None] = [None] * NUM_ARCH_REGS
        #: preg -> the op producing its current value (None when free).
        self.producers: list[_Op | None] = [None] * num_pregs

        self.read_latency = config.read_latency
        self.bypass_stages = config.bypass_stages

        # Storage scheme construction.
        self.cache: RegisterCache | None = None
        self.backing: BackingFile | None = None
        self.rf: PhysicalRegisterFile | None = None
        self.two_level: TwoLevelRegisterFile | None = None
        self.insertion = None
        self.index_policy = None
        self._assign_set = None
        if config.storage == "register_cache":
            assoc = config.cache_assoc or config.cache_entries
            num_sets = config.cache_entries // assoc
            self.index_policy = make_index_policy(
                config.indexing, num_sets, assoc
            )
            self.cache = RegisterCache(
                config.cache_entries, config.cache_assoc,
                make_replacement_policy(config.replacement),
                self.index_policy,
            )
            self.insertion = make_insertion_policy(config.insertion)
            self.backing = BackingFile(
                num_pregs,
                config.backing_read_latency,
                config.effective_backing_write_latency,
                config.backing_read_ports,
            )
            if self.index_policy.decoupled:
                self._assign_set = self.index_policy.assign
        elif config.storage == "monolithic":
            self.rf = PhysicalRegisterFile(
                num_pregs, config.rf_read_latency,
                config.effective_rf_write_latency, config.bypass_stages,
            )
        else:
            self.two_level = TwoLevelRegisterFile(
                config.two_level_l1_size,
                l2_latency=config.two_level_l2_latency,
                move_bandwidth=config.two_level_bandwidth,
                free_threshold=config.two_level_free_threshold,
            )

        self.predictor: DegreeOfUsePredictor | None = None
        if config.predictor_enabled and config.storage == "register_cache":
            self.predictor = DegreeOfUsePredictor(
                entries=config.predictor_entries,
                assoc=config.predictor_assoc,
                wrongpath_noise=config.wrongpath_use_noise,
            )
        # Trace-invariant precompute, shared (and disk-cached) across
        # every configuration simulating this trace.
        self.fcf = trace.analysis().fcf
        self._fu_class = fu_classes_for(trace)
        self._fu_limits = [
            config.fu_counts.get(op_class, 1) for op_class in OpClass
        ]

        self.memory = (
            MemoryHierarchy(HierarchyConfig(
                l2_latency=config.l2_latency,
                memory_latency=config.memory_latency,
            ))
            if config.model_memory else None
        )
        icache = self.memory if (self.memory and config.model_icache) else None
        self.frontend = FrontEnd(
            trace,
            fetch_width=config.fetch_width,
            front_depth=config.front_depth,
            icache=_ICacheAdapter(icache) if icache else None,
        )

        #: cycle -> event record (see the ``_FILLS`` ... ``_BLOCKED``
        #: slots): everything scheduled for that cycle, popped once.
        self._events: dict[int, list] = {}

        self.rob: deque[_Op] = deque()
        self.window_count = 0
        self.retired = 0
        self._dispatch_blocked_until = 0
        self._wrongpath_reserved = 0
        #: seq -> issued _Op, populated when config.record_timing is set.
        self.issue_log: dict[int, _Op] = {}

        # Producer-state epoch backing the _earliest memo: bumped
        # whenever any producer's exec_end changes, so an unchanged
        # epoch proves a cached readiness bound is still exact.
        self._pepoch = 0

    # ------------------------------------------------------------------

    def run(self) -> SimStats:
        """Simulate to completion and return the statistics.

        One loop iteration per cycle, in the fixed stage order: this
        cycle's fills, register-cache lookups, d-cache probes,
        writebacks and branch resolves; retire; issue; dispatch; the
        two-level move engine. Every event lands in one per-cycle record
        popped once, and a cycle with nothing scheduled costs a handful
        of comparisons:

        * retire runs only when the ROB head has issued and reached its
          retirement cycle;
        * dispatch sleeps until the cycle ``_dispatch`` reported as its
          next possible change (``dispatch_wake``). While it sleeps the
          loop credits exactly the stall counters the skipped calls
          would have counted. Anything that can free a dispatch
          resource — a retire, an issue, a two-level move, a branch
          resolve — wakes it.
        """
        total = len(self.trace.records)
        config = self.config
        max_cycles = config.max_cycles
        retire_delay = config.retire_delay
        events = self._events
        rob = self.rob
        two_level = self.two_level
        stats = self.stats
        process_fills = self._process_fills
        process_lookups = self._process_lookups
        process_dcache = self._process_dcache
        process_writebacks = self._process_writebacks
        process_resolves = self._process_resolves
        retire = self._retire
        issue = self._issue
        dispatch = self._dispatch
        cycle = 0
        # Dispatch sleeps before dispatch_wake; dispatch_stall says what
        # each slept cycle counts: 0 nothing, 1 a dispatch stall, 2 a
        # dispatch stall plus a two-level rename stall.
        dispatch_wake = 0
        dispatch_stall = 0
        blocked_until = 0
        retired = 0
        while retired < total:
            if cycle >= max_cycles:
                raise SimulationError(
                    f"{self.trace.name}: exceeded {max_cycles} cycles "
                    f"({retired}/{total} retired)"
                )
            record = events.pop(cycle, None)
            if record is not None:
                fills, lookups, dcache, writebacks, resolves, group, \
                    blocked = record
                if fills is not None:
                    process_fills(fills, cycle)
                if lookups is not None and process_lookups(lookups, cycle):
                    blocked = True
                if dcache is not None:
                    process_dcache(dcache, cycle)
                if writebacks is not None:
                    process_writebacks(writebacks, cycle)
                if resolves is not None:
                    process_resolves(resolves, cycle)
                    blocked_until = self._dispatch_blocked_until
                    dispatch_wake = 0
            if rob:
                head = rob[0]
                if head.status == _ISSUED \
                        and cycle > head.exec_end + retire_delay:
                    retired += retire(cycle)
                    if dispatch_stall:
                        dispatch_wake = 0
            if record is not None:
                if blocked:
                    stats.issue_blocked_cycles += 1
                    if group:  # defer the whole group one cycle
                        for op in group:
                            _push(events, cycle + 1, _READY, op)
                elif group and issue(group, cycle) and dispatch_stall:
                    dispatch_wake = 0
            if cycle < blocked_until:
                stats.rename_stall_cycles += 1
            elif cycle >= dispatch_wake:
                dispatch_wake, dispatch_stall = dispatch(cycle)
            elif dispatch_stall:
                stats.dispatch_stall_cycles += 1
                if dispatch_stall == 2:
                    two_level.note_rename_stall()
            if two_level is not None and two_level.tick(cycle) \
                    and dispatch_stall:
                dispatch_wake = 0
            cycle += 1

        self.retired = retired
        self._finalize(cycle)
        return self.stats

    # ------------------------------------------------------------------
    # Event processing.

    def _process_fills(self, events: list[tuple[int, int]], now: int) -> None:
        producers = self.producers
        cache = self.cache
        if cache is None:
            return
        fill_default = self.config.fill_default
        cache_write = cache.write
        for preg, assigned_set in events:
            if producers[preg] is not None:
                cache_write(
                    preg, assigned_set, fill_default,
                    pinned=False, now=now, is_fill=True,
                )

    def _process_lookups(
        self, events: list[tuple[_Op, int, int]], now: int
    ) -> bool:
        """Probe the register cache; True when a miss blocks issue now."""
        cache = self.cache
        backing = self.backing
        assert cache is not None and backing is not None
        producers = self.producers
        stats = self.stats
        lookup = cache.lookup
        write_latency = backing.write_latency
        missed = False
        for op, preg, assigned_set in events:
            if lookup(preg, assigned_set, now):
                continue
            # Miss: squash this cycle's issue group and fetch the value
            # from the backing file (paper §5.2 replay model).
            stats.rc_miss_events += 1
            missed = True
            producer = producers[preg]
            written_at = (
                producer.exec_end + 1 + write_latency
                if producer is not None and producer.status == _ISSUED
                else now
            )
            available = backing.schedule_read(now + 1, written_at)
            if available > op.exec_start:
                latency = op.exec_end - op.exec_start
                op.exec_start = available
                op.exec_end = available + latency
                if op.dest_preg >= 0:
                    self._pepoch += 1
            _push(self._events, available, _FILLS, (preg, assigned_set))
        return missed

    def _process_dcache(self, events: list[_Op], now: int) -> None:
        # Probed the cycle after issue: strictly before the earliest
        # dependent can issue (issue + load latency), so dependents never
        # schedule against a stale hit-assumed latency.
        memory = self.memory
        assert memory is not None
        stats = self.stats
        load = memory.load
        read_latency = self.read_latency
        for op in events:
            extra = load(op.dyn.mem_addr, op.dyn.pc, now)
            if extra:
                op.exec_end += extra
                if op.dest_preg >= 0:
                    self._pepoch += 1
                # Load-hit speculation replay: the squash loop contains
                # the register read, so its cost scales with read latency.
                stats.load_miss_replays += 1
                detection = now + 3  # tag check, just before would-be data
                for offset in range(read_latency):
                    _push(self._events, detection + offset, _BLOCKED, op)

    def _process_writebacks(self, events: list[_Op], now: int) -> None:
        cache = self.cache
        rf = self.rf
        for op in events:
            requeue_at = op.exec_end + 1
            if requeue_at != now:
                _push(self._events, requeue_at, _WRITEBACKS, op)
                continue
            preg = op.dest_preg
            if cache is not None:
                self.backing.record_write()
                if self.insertion.admit(op.pred_eff, op.bypass_first, op.pinned):
                    remaining = op.pred_eff - op.bypass_total
                    cache.write(
                        preg, op.dest_set,
                        remaining if remaining > 0 else 0, op.pinned, now,
                    )
                else:
                    cache.record_filtered_write(preg)
            elif rf is not None:
                rf.record_write()

    def _process_resolves(self, events: list[_Op], now: int) -> None:
        for op in events:
            requeue_at = op.exec_end + 1
            if requeue_at != now:
                _push(self._events, requeue_at, _RESOLVES, op)
                continue
            self.frontend.resume(now)
            self.stats.branch_mispredicts += 1
            self._release_wrongpath()
            if self.two_level is not None:
                extra = self.two_level.on_mispredict(
                    now, self.config.front_depth
                )
                if extra:
                    self._dispatch_blocked_until = max(
                        self._dispatch_blocked_until, now + extra
                    )

    # ------------------------------------------------------------------
    # Retire.

    def _retire(self, now: int) -> int:
        """Retire eligible ROB-head ops, up to the retire width, freeing
        the physical register each one displaced from the rename map;
        returns how many retired."""
        rob = self.rob
        config = self.config
        retire_width = config.retire_width
        retire_delay = config.retire_delay
        max_store_retire = config.max_store_retire
        memory = self.memory
        producers = self.producers
        predictor = self.predictor
        cache = self.cache
        index_policy = self.index_policy
        two_level = self.two_level
        preg_allocated = self._preg_allocated
        free_pregs = self._free_pregs
        lifetimes = self.stats.lifetimes
        fcf = self.fcf
        retired_this = 0
        stores_this = 0
        while rob and retired_this < retire_width:
            op = rob[0]
            if op.status != _ISSUED or now <= op.exec_end + retire_delay:
                break
            if op.dyn.is_store:
                if stores_this >= max_store_retire:
                    break
                if memory is not None and not memory.store(
                    op.dyn.mem_addr, now
                ):
                    break
                stores_this += 1
            rob.popleft()
            retired_this += 1
            preg = op.prev_preg
            if preg < 0:
                continue
            producer = producers[preg]
            if producer is None:
                raise SimulationError(f"freeing preg {preg} with no producer")
            if lifetimes is not None:
                write_time = producer.exec_end + 1
                last_read = max(producer.last_read, write_time)
                lifetimes.append(LifetimeRecord(
                    producer.alloc_time, write_time, last_read, now
                ))
            if predictor is not None:
                uses = producer.uses_renamed
                predictor.train(producer.dyn.pc, fcf[producer.seq], uses)
                predictor.record_outcome(producer.predicted, uses)
            if cache is not None:
                cache.invalidate(preg, now)
                index_policy.release(producer.dest_set, producer.pred_eff)
            if two_level is not None:
                two_level.free(preg)
            if not preg_allocated[preg]:
                raise RenameError(
                    f"freeing unallocated physical register {preg}"
                )
            preg_allocated[preg] = False
            free_pregs.append(preg)
            producers[preg] = None
        return retired_this

    # ------------------------------------------------------------------
    # Issue.

    def _issue(self, candidates: list[_Op], now: int) -> int:
        """Issue up to ``issue_width`` ready ops from this cycle's group.

        Returns the number issued. Operand classification (inlined in
        the source loop below for speed): for a producer completing at
        ``exec_end``, a consumer may issue from ``exec_end -
        read_latency`` (first-stage bypass, kind 1), through the
        remaining bypass stages (kind 2), and from storage (kind 3) once
        the value is written back — cache/L1 at ``exec_end + 1``,
        monolithic file at ``exec_end + W - R`` with read-during-write
        forwarding. Kind 0 = not ready yet; an unissued (or freed)
        producer defers the consumer to ``now + 1``.
        """
        # Groups are usually appended in seq order already; only sort
        # when an out-of-order append actually happened.
        prev_seq = -1
        for op in candidates:
            seq = op.seq
            if seq < prev_seq:
                candidates.sort(key=_op_seq)
                break
            prev_seq = seq
        issue_width = self.config.issue_width
        fu_class = self._fu_class
        fu_limits = self._fu_limits
        producers = self.producers
        read_latency = self.read_latency
        bypass_stages = self.bypass_stages
        rf = self.rf
        # Cycles from producer completion until storage can supply the
        # operand: +1 for cache/L1, W - R for the monolithic file.
        storage_delta = (
            rf.write_latency - rf.read_latency if rf is not None else 1
        )
        events = self._events
        stats = self.stats
        cache = self.cache
        two_level = self.two_level
        load_memory = self.memory is not None
        record_lifetimes = self.record_lifetimes
        record_timing = self.config.record_timing
        earliest_of = self._earliest
        fu_used = [0] * len(fu_limits)
        issued = 0
        # Operand-source counters, added to the stats once at the end.
        n_bypass = n_bypass_first = n_storage = n_rf_reads = 0
        for position, op in enumerate(candidates):
            if issued >= issue_width:
                for leftover in candidates[position:]:
                    _push(events, now + 1, _READY, leftover)
                break
            # Readiness-memo fast path: earliest_value is a sound lower
            # bound on this op's issue cycle (producer exec_end values
            # only ever grow), so a retry before it cannot succeed and
            # the source scan can be skipped entirely.
            if now < op.earliest_value:
                _push(events, op.earliest_value, _READY, op)
                continue
            kinds: list[int] = []
            kinds_append = kinds.append
            next_time = now
            is_ready = True
            for preg, _assigned in op.sources:
                if preg < 0:
                    kinds_append(-1)
                    continue
                producer = producers[preg]
                if producer is None or producer.status != _ISSUED:
                    # Producer not yet issued (waiters should prevent
                    # this) or already freed; not ready until next cycle.
                    is_ready = False
                    when = now + 1
                    if when > next_time:
                        next_time = when
                    break
                exec_end = producer.exec_end
                earliest = exec_end - read_latency
                if now < earliest:
                    is_ready = False
                    if earliest > next_time:
                        next_time = earliest
                    break
                if now < earliest + bypass_stages:
                    kinds_append(1 if now == earliest else 2)
                    continue
                storage_from = exec_end + storage_delta
                if now >= storage_from:
                    kinds_append(3)
                    continue
                is_ready = False
                if storage_from > next_time:
                    next_time = storage_from
                break
            if not is_ready:
                when = next_time if next_time > now + 1 else now + 1
                op.earliest_value = when
                op.earliest_epoch = self._pepoch
                _push(events, when, _READY, op)
                continue
            op_class = fu_class[op.seq]
            used = fu_used[op_class]
            if used >= fu_limits[op_class]:
                _push(events, now + 1, _READY, op)
                continue
            fu_used[op_class] = used + 1
            issued += 1

            # Issue: execute from now + 1 + read latency; account each
            # operand's source, schedule storage reads, the writeback
            # and waking the consumers.
            dyn = op.dyn
            op.status = _ISSUED
            op.issue_time = now
            exec_start = now + 1 + read_latency
            op.exec_start = exec_start
            exec_end = exec_start + dyn.latency - 1
            op.exec_end = exec_end
            if record_timing:
                self.issue_log[op.seq] = op
            for (preg, assigned_set), kind in zip(op.sources, kinds):
                if kind < 0:
                    continue
                producer = producers[preg]
                if kind == 1:
                    producer.bypass_first += 1
                    producer.bypass_total += 1
                    n_bypass += 1
                    n_bypass_first += 1
                elif kind == 2:
                    producer.bypass_total += 1
                    n_bypass += 1
                else:
                    n_storage += 1
                    if cache is not None:
                        _push(
                            events, now + 1, _LOOKUPS,
                            (op, preg, assigned_set),
                        )
                    elif rf is not None:
                        rf.record_read()
                        n_rf_reads += 1
                if record_lifetimes and producer.last_read < exec_start:
                    producer.last_read = exec_start
                if two_level is not None:
                    two_level.consumer_executed(preg, now)

            if op.dest_preg >= 0:
                self._pepoch += 1
                _push(events, exec_end + 1, _WRITEBACKS, op)
                waiters = op.waiters
                op.waiters = None  # nothing waits on an issued producer
                if waiters:
                    for waiter in waiters:
                        waiter.unready -= 1
                        if waiter.unready == 0:
                            when = earliest_of(waiter)
                            _push(
                                events, when if when > now else now + 1,
                                _READY, waiter,
                            )
            if load_memory and dyn.is_load:
                _push(events, now + 1, _DCACHE, op)
            if op.mispredicted:
                _push(events, exec_end + 1, _RESOLVES, op)
        stats.operands_bypass += n_bypass
        stats.operands_bypass_first += n_bypass_first
        stats.operands_storage += n_storage
        stats.rf_reads += n_rf_reads
        self.window_count -= issued
        return issued

    def _earliest(self, op: _Op) -> int:
        """Earliest first-stage-bypass cycle over *op*'s issued producers.

        Memoized per (op, producer-state epoch): an unchanged epoch
        means no producer's ``exec_end`` moved since the value was
        computed, so the cached value is exact. A stale value is still
        kept on the op as :attr:`_Op.earliest_value` — producer times
        only grow, so it remains a sound lower bound the issue loop can
        retry against without rescanning sources.
        """
        epoch = self._pepoch
        if op.earliest_epoch == epoch:
            return op.earliest_value
        earliest = 0
        producers = self.producers
        read_latency = self.read_latency
        for preg, _assigned in op.sources:
            if preg < 0:
                continue
            producer = producers[preg]
            if producer is None or producer.status != _ISSUED:
                continue
            candidate = producer.exec_end - read_latency
            if candidate > earliest:
                earliest = candidate
        op.earliest_epoch = epoch
        op.earliest_value = earliest
        return earliest

    # ------------------------------------------------------------------
    # Dispatch.

    def _dispatch(self, now: int) -> tuple[int, int]:
        """Dispatch (rename, predict, enter window and ROB) up to the
        width; returns ``(wake, stall)`` for the cycle loop.

        ``wake`` is the first cycle at which calling again could do
        anything new, given that no dispatch resource is freed and no
        branch resolves first (the loop wakes dispatch early for those);
        ``stall`` is what each cycle before it counts: 0 nothing, 1 a
        dispatch stall, 2 a dispatch stall plus a two-level rename
        stall. After any progress the answer is ``(now + 1, 0)``.
        Otherwise nothing changes until the front end can fetch more or
        its head becomes ready (:meth:`FrontEnd.wake_after`).
        """
        config = self.config
        budget = config.dispatch_width
        window_size = config.window_size
        rob_size = config.rob_size
        max_use = config.max_use
        unknown_default = config.unknown_default
        pin_at_max = config.pin_at_max
        record_timing = config.record_timing
        frontend = self.frontend
        next_ready = frontend.next_ready
        queue = frontend.queue
        two_level = self.two_level
        predictor = self.predictor
        assign_set = self._assign_set
        free_pregs = self._free_pregs
        preg_allocated = self._preg_allocated
        arch_map = self._arch_map
        producers = self.producers
        fcf = self.fcf
        events = self._events
        read_latency = self.read_latency
        rob = self.rob
        rob_append = rob.append
        window_count = self.window_count
        rob_count = len(rob)
        stall = 0
        dispatched = False
        # One front-end probe per dispatch slot, as the stage consumes
        # its queue. Only the first probe's fill can fetch anything
        # unless it stopped on a full queue: then every pop makes room
        # and each later probe must fill again.
        fetched = next_ready(now)
        refill = len(queue) >= frontend.queue_capacity
        while True:
            if window_count >= window_size or rob_count >= rob_size:
                if fetched is not None:
                    stall = 1
                break
            if fetched is None:
                break
            dyn = fetched.dyn
            dest = dyn.dest
            if dest is not None:
                if two_level is not None:
                    if not two_level.can_allocate():
                        if not rob:
                            # Nothing in flight can ever free a slot:
                            # the program needs more registers than the
                            # L1 file holds.
                            raise SimulationError(
                                "two-level L1 register file too small "
                                f"({two_level.l1_capacity} entries) "
                                "for the program's architectural "
                                "register demand"
                            )
                        two_level.note_rename_stall()
                        stall = 2
                        break
                elif len(free_pregs) <= self._wrongpath_reserved:
                    stall = 1
                    break
            queue.popleft()
            dispatched = True

            seq = dyn.seq
            op = _Op(seq, dyn)
            if fetched.mispredicted:
                op.mispredicted = True
                self._reserve_wrongpath()

            # Rename: look the sources up in the map, then allocate the
            # destination and install its mapping.
            sources = []
            for arch in dyn.sources:
                if not 0 <= arch < NUM_ARCH_REGS:
                    raise RenameError(
                        f"architectural register {arch} out of range"
                    )
                mapping = arch_map[arch]
                sources.append(_NO_SOURCE if mapping is None else mapping)
            op.sources = sources

            if dest is not None:
                predicted = None
                if predictor is not None:
                    predicted = predictor.predict(dyn.pc, fcf[seq])
                    op.predicted = predicted
                raw = unknown_default if predicted is None else predicted
                pred_eff = raw if raw < max_use else max_use
                pinned = bool(
                    pin_at_max and predicted is not None
                    and pred_eff == max_use
                )
                op.pred_eff = pred_eff
                op.pinned = pinned

                if not free_pregs:
                    raise RenameError("physical register freelist exhausted")
                dest_preg = free_pregs.pop()
                preg_allocated[dest_preg] = True
                dest_set = -1 if assign_set is None else assign_set(pred_eff)
                if not 0 <= dest < NUM_ARCH_REGS:
                    raise RenameError(
                        f"architectural register {dest} out of range"
                    )
                displaced = arch_map[dest]
                arch_map[dest] = (dest_preg, dest_set)
                op.dest_preg = dest_preg
                op.dest_set = dest_set

                op.alloc_time = now
                op.uses_renamed = 0
                op.bypass_first = 0
                op.bypass_total = 0
                op.last_read = -1
                op.waiters = []
                producers[dest_preg] = op
                if two_level is not None:
                    two_level.allocate(dest_preg)
                if displaced is not None:
                    prev_preg = displaced[0]
                    op.prev_preg = prev_preg
                    if two_level is not None:
                        two_level.reassigned(prev_preg, now)

            # Count each producer's renamed uses and wait on the ones
            # not yet issued (after the destination is in place: the
            # two-level move engine sees reassignment before the new
            # pending consumer, as rename orders them).
            if record_timing:
                op.src_producer_seqs = tuple(
                    producers[preg].seq if preg >= 0 else -1
                    for preg, _assigned in sources
                )
            unready = 0
            earliest = 0
            for preg, _assigned in sources:
                if preg < 0:
                    continue
                producer = producers[preg]
                producer.uses_renamed += 1
                if two_level is not None:
                    two_level.add_pending_consumer(preg)
                if producer.status == _ISSUED:
                    # The _earliest bound, computed in the same pass.
                    candidate = producer.exec_end - read_latency
                    if candidate > earliest:
                        earliest = candidate
                else:
                    producer.waiters.append(op)
                    unready += 1
            op.unready = unready
            if unready == 0:
                op.earliest_epoch = self._pepoch
                op.earliest_value = earliest
                _push(
                    events, earliest if earliest > now else now + 1,
                    _READY, op,
                )
            rob_append(op)
            rob_count += 1
            window_count += 1
            budget -= 1
            if budget <= 0:
                break
            if refill:
                fetched = next_ready(now)
            elif queue and queue[0].ready_at <= now:
                fetched = queue[0]
            else:
                fetched = None
        self.window_count = window_count
        if stall:
            self.stats.dispatch_stall_cycles += 1
        if dispatched:
            return now + 1, 0
        return frontend.wake_after(now), stall

    def _reserve_wrongpath(self) -> None:
        """Hold registers for the wrong-path renames a real front end
        would perform between a misprediction and its resolution."""
        amount = self.config.wrongpath_alloc
        if amount <= 0:
            return
        if self.two_level is not None:
            amount = min(amount, max(0, self.two_level.free_slots - 4))
            self.two_level.free_slots -= amount
            self._wrongpath_reserved = amount
        else:
            self._wrongpath_reserved = amount

    def _release_wrongpath(self) -> None:
        """Return wrong-path reservations at branch resolution."""
        if self._wrongpath_reserved and self.two_level is not None:
            self.two_level.free_slots += self._wrongpath_reserved
        self._wrongpath_reserved = 0

    # ------------------------------------------------------------------

    def _finalize(self, cycles: int) -> None:
        stats = self.stats
        stats.cycles = cycles
        stats.retired = self.retired
        if self.cache is not None:
            self.cache.finalize(cycles)
            stats.cache = self.cache.stats
            stats.rf_reads = self.backing.reads
            stats.rf_writes = self.backing.writes
        elif self.rf is not None:
            stats.rf_writes = self.rf.writes
        if self.two_level is not None:
            stats.tl_moves = self.two_level.moves
            stats.tl_restores = self.two_level.restores
            stats.tl_recovery_stalls = self.two_level.recovery_stall_cycles
            stats.rename_stall_cycles += self.two_level.rename_stall_cycles
        if self.predictor is not None:
            stats.predictor_queries = self.predictor.queries
            stats.predictor_supplied = self.predictor.supplied
            stats.predictor_correct = self.predictor.correct
        if self.record_lifetimes:
            # Close lifetime records for values still allocated at the end.
            for producer in self.producers:
                if producer is None or producer.status != _ISSUED:
                    continue
                write_time = producer.exec_end + 1
                last_read = max(producer.last_read, write_time)
                stats.lifetimes.append(LifetimeRecord(
                    producer.alloc_time, write_time, last_read, cycles
                ))


class _ICacheAdapter:
    """Adapts :class:`MemoryHierarchy` to the FrontEnd icache protocol."""

    __slots__ = ("hierarchy",)

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    def access(self, line: int) -> int:
        return self.hierarchy.ifetch(line)
