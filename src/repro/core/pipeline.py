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
from repro.core.stats import SimStats
from repro.errors import RenameError, SimulationError
from repro.frontend.fetch import PLAN_MISS, FrontEnd
from repro.isa.instruction import NUM_ARCH_REGS
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.predict.degree_of_use import DegreeOfUsePredictor
from repro.regfile.backing import BackingFile
from repro.regfile.indexing import IndexPolicy, make_index_policy
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
    producer: the rename map holds it from rename until a later writer
    of the same architectural register replaces it, and
    ``Pipeline.producers[dest_preg]`` holds it until the register is
    freed. ``sources`` lists the producer ops of the op's renamed
    sources; a source with no earlier writer in the trace (a
    preinitialized register, always ready) is dropped. A producer is
    freed only after its consumers retire, so these references stay
    valid while the op is in flight.

    Fields are set when first needed: the constructor sets only those
    read before dispatch or issue writes them. ``issue_time``,
    ``exec_start`` and ``exec_end`` exist once the op has issued
    (``status == _ISSUED``); ``dest_set``, ``pred_eff``, ``pinned`` and
    the producer fields from ``alloc_time`` on exist only for ops with a
    destination (``dest_preg >= 0``), and ``predicted`` only for those
    when the run has a predictor; ``src_producer_seqs`` (the producer
    seq of each architectural source, -1 for a never-written one) only
    with ``record_timing``. ``earliest_value`` is a sound lower bound on
    the op's issue cycle: producer completion times only ever grow.
    """

    __slots__ = (
        "seq", "dyn", "sources", "dest_preg", "dest_set", "prev_preg",
        "pred_eff", "pinned", "predicted", "mispredicted",
        "status", "issue_time", "exec_start", "exec_end", "unready",
        "src_producer_seqs", "earliest_value",
        # Producer side.
        "alloc_time", "bypass_first", "bypass_total", "last_read",
        "waiters",
    )

    def __init__(self, seq, dyn):
        self.seq = seq
        self.dyn = dyn
        self.dest_preg = -1
        self.prev_preg = -1
        self.mispredicted = False
        self.status = _WAITING


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
        # entries are the producer ops of the current mappings (each
        # carries its preg and assigned cache set).
        self._free_pregs: list[int] = list(range(num_pregs))
        self._preg_allocated = [False] * num_pregs
        self._arch_map: list[_Op | None] = [None] * NUM_ARCH_REGS
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
        # index_policy.release, for the policies that track sets.
        self._release_set = None
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
            if type(self.index_policy).release is not IndexPolicy.release:
                self._release_set = self.index_policy.release
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

        # Trace-invariant precompute, shared across every configuration
        # simulating this trace: each value's degree of use, the
        # predictor slot of each record and each record's unit class.
        self.predictor: DegreeOfUsePredictor | None = None
        self._use_counts = trace.analysis().use_counts
        self._predictor_slots: list[tuple[int, int]] = []
        if config.predictor_enabled and config.storage == "register_cache":
            self.predictor = DegreeOfUsePredictor(
                entries=config.predictor_entries,
                assoc=config.predictor_assoc,
                wrongpath_noise=config.wrongpath_use_noise,
            )
            self._predictor_slots = self.predictor.slots_for(trace)
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
                    # A resolve wakes dispatch, unless a two-level
                    # recovery holds it; _process_resolves counts that
                    # stall, so the slept cycles count nothing.
                    dispatch_wake = self._dispatch_blocked_until
                    dispatch_stall = 0
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
            if cycle >= dispatch_wake:
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

    def _process_fills(self, events: list[_Op], now: int) -> None:
        """Write each missed producer's value into the cache, if its
        register is still allocated."""
        producers = self.producers
        fill_default = self.config.fill_default
        cache_write = self.cache.write
        for producer in events:
            preg = producer.dest_preg
            if producers[preg] is not None:
                cache_write(
                    preg, producer.dest_set, fill_default,
                    pinned=False, now=now, is_fill=True,
                )

    def _process_lookups(
        self, events: list[tuple[_Op, _Op]], now: int
    ) -> bool:
        """Probe the register cache for each ``(consumer, producer)``
        storage read; True when a miss blocks issue now."""
        cache = self.cache
        backing = self.backing
        assert cache is not None and backing is not None
        stats = self.stats
        lookup = cache.lookup
        write_latency = backing.write_latency
        missed = False
        for op, producer in events:
            if lookup(producer.dest_preg, producer.dest_set, now):
                continue
            # Miss: squash this cycle's issue group and fetch the value
            # from the backing file (paper §5.2 replay model). The
            # consumer issued, so its producer has issued too.
            stats.rc_miss_events += 1
            missed = True
            available = backing.schedule_read(
                now + 1, producer.exec_end + 1 + write_latency,
            )
            if available > op.exec_start:
                latency = op.exec_end - op.exec_start
                op.exec_start = available
                op.exec_end = available + latency
            _push(self._events, available, _FILLS, producer)
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
                # Load-hit speculation replay: the squash loop contains
                # the register read, so its cost scales with read latency.
                stats.load_miss_replays += 1
                detection = now + 3  # tag check, just before would-be data
                for offset in range(read_latency):
                    _push(self._events, detection + offset, _BLOCKED, op)

    def _process_writebacks(self, events: list[_Op], now: int) -> None:
        """Write back each value whose execution ends this cycle: into
        the backing file and, as the insertion policy admits, the cache
        (register-cache runs), or into the monolithic file. Two-level
        runs schedule no writebacks."""
        cache = self.cache
        written = 0
        for op in events:
            requeue_at = op.exec_end + 1
            if requeue_at != now:
                _push(self._events, requeue_at, _WRITEBACKS, op)
                continue
            written += 1
            if cache is not None:
                if self.insertion.admit(op.pred_eff, op.bypass_first, op.pinned):
                    remaining = op.pred_eff - op.bypass_total
                    cache.write(
                        op.dest_preg, op.dest_set,
                        remaining if remaining > 0 else 0, op.pinned, now,
                    )
                else:
                    cache.record_filtered_write(op.dest_preg)
        if written:
            if cache is not None:
                self.backing.record_write(written)
            else:
                self.rf.record_write(written)

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
                front_depth = self.config.front_depth
                extra = self.two_level.on_mispredict(now, front_depth)
                if extra:
                    # extra is net of the refill: the first refetched op
                    # reaches dispatch at now + 1 + front_depth, and the
                    # restores hold it until now + 1 + transfer. Only
                    # the extra cycles are rename stalls.
                    self.stats.rename_stall_cycles += extra
                    self._dispatch_blocked_until = max(
                        self._dispatch_blocked_until,
                        now + 1 + front_depth + extra,
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
        slots = self._predictor_slots
        use_counts = self._use_counts
        cache = self.cache
        release_set = self._release_set
        two_level = self.two_level
        preg_allocated = self._preg_allocated
        free_pregs = self._free_pregs
        lifetimes = self.stats.lifetimes
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
                lifetimes += (producer.alloc_time, write_time, last_read, now)
            if predictor is not None:
                # Every consumer of the value precedes the op that
                # displaced it, so the trace's use count is final here.
                seq = producer.seq
                predictor.train_slot(
                    slots[seq], use_counts[seq], producer.predicted,
                )
            if cache is not None:
                cache.invalidate(preg, now)
                if release_set is not None:
                    release_set(producer.dest_set, producer.pred_eff)
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
        the source loops below for speed): for a producer completing at
        ``exec_end``, a consumer may issue from ``exec_end -
        read_latency`` (first-stage bypass), through the remaining
        bypass stages, and from storage once the value is written back —
        cache/L1 at ``exec_end + 1``, monolithic file at ``exec_end + W -
        R`` with read-during-write forwarding. Otherwise the operand is
        not ready yet; an unissued producer defers the consumer to
        ``now + 1``. A first pass over the sources checks readiness;
        once the op issues, a second pass accounts each operand's source
        (nothing changes a producer's ``exec_end`` in between).
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
            # earliest_value is a sound lower bound on this op's issue
            # cycle, so a retry before it cannot succeed and the source
            # scan can be skipped entirely.
            if now < op.earliest_value:
                _push(events, op.earliest_value, _READY, op)
                continue
            sources = op.sources
            retry_at = 0
            for producer in sources:
                if producer.status != _ISSUED:
                    # Waiters should prevent this; retry next cycle.
                    retry_at = now + 1
                    break
                exec_end = producer.exec_end
                earliest = exec_end - read_latency
                if now < earliest:
                    retry_at = earliest
                    break
                if now >= earliest + bypass_stages:
                    storage_from = exec_end + storage_delta
                    if now < storage_from:
                        retry_at = storage_from
                        break
            if retry_at:
                op.earliest_value = retry_at
                _push(events, retry_at, _READY, op)
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
            for producer in sources:
                earliest = producer.exec_end - read_latency
                if now < earliest + bypass_stages:
                    producer.bypass_total += 1
                    n_bypass += 1
                    if now == earliest:
                        producer.bypass_first += 1
                        n_bypass_first += 1
                else:
                    n_storage += 1
                    if cache is not None:
                        _push(events, now + 1, _LOOKUPS, (op, producer))
                    elif rf is not None:
                        n_rf_reads += 1
                if record_lifetimes and producer.last_read < exec_start:
                    producer.last_read = exec_start
                if two_level is not None:
                    two_level.consumer_executed(producer.dest_preg, now)

            if op.dest_preg >= 0:
                if two_level is None:
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
        if n_rf_reads:
            rf.record_read(n_rf_reads)
            stats.rf_reads += n_rf_reads
        self.window_count -= issued
        return issued

    def _earliest(self, op: _Op) -> int:
        """Earliest first-stage-bypass cycle over *op*'s issued producers.

        Also records it as the op's :attr:`_Op.earliest_value` bound.
        """
        earliest = 0
        read_latency = self.read_latency
        for producer in op.sources:
            if producer.status == _ISSUED:
                candidate = producer.exec_end - read_latency
                if candidate > earliest:
                    earliest = candidate
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
        records = frontend.records
        ready_at = frontend.ready_at
        plan = frontend.branch_plan
        two_level = self.two_level
        predictor = self.predictor
        slots = self._predictor_slots
        assign_set = self._assign_set
        free_pregs = self._free_pregs
        preg_allocated = self._preg_allocated
        arch_map = self._arch_map
        producers = self.producers
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
        # unless it stopped on a full queue: then every dispatch makes
        # room and each later probe must fill again.
        index = next_ready(now)
        next_index = frontend.next_index
        refill = next_index - frontend.head >= frontend.queue_capacity
        while True:
            if window_count >= window_size or rob_count >= rob_size:
                if index >= 0:
                    stall = 1
                break
            if index < 0:
                break
            dyn = records[index]
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
            frontend.head = index + 1
            dispatched = True

            seq = dyn.seq
            op = _Op(seq, dyn)
            if plan[index] & PLAN_MISS:
                op.mispredicted = True
                self._reserve_wrongpath()

            # Rename: look the sources' producers up in the map, then
            # allocate the destination and install its mapping.
            sources = []
            for arch in dyn.sources:
                if not 0 <= arch < NUM_ARCH_REGS:
                    raise RenameError(
                        f"architectural register {arch} out of range"
                    )
                producer = arch_map[arch]
                if producer is not None:
                    sources.append(producer)
            op.sources = sources
            if record_timing:
                op.src_producer_seqs = tuple(
                    -1 if arch_map[arch] is None else arch_map[arch].seq
                    for arch in dyn.sources
                )

            if dest is not None:
                predicted = None
                if predictor is not None:
                    predicted = predictor.predict_slot(slots[seq])
                    op.predicted = predicted
                raw = unknown_default if predicted is None else predicted
                pred_eff = raw if raw < max_use else max_use
                op.pred_eff = pred_eff
                op.pinned = bool(
                    pin_at_max and predicted is not None
                    and pred_eff == max_use
                )

                if not free_pregs:
                    raise RenameError("physical register freelist exhausted")
                dest_preg = free_pregs.pop()
                preg_allocated[dest_preg] = True
                if not 0 <= dest < NUM_ARCH_REGS:
                    raise RenameError(
                        f"architectural register {dest} out of range"
                    )
                displaced = arch_map[dest]
                arch_map[dest] = op
                op.dest_preg = dest_preg
                op.dest_set = -1 if assign_set is None else assign_set(pred_eff)

                op.alloc_time = now
                op.bypass_first = 0
                op.bypass_total = 0
                op.last_read = -1
                op.waiters = []
                producers[dest_preg] = op
                if two_level is not None:
                    two_level.allocate(dest_preg)
                if displaced is not None:
                    prev_preg = displaced.dest_preg
                    op.prev_preg = prev_preg
                    if two_level is not None:
                        two_level.reassigned(prev_preg, now)

            # Wait on the producers not yet issued (after the destination
            # is in place: the two-level move engine sees reassignment
            # before the new pending consumer, as rename orders them).
            unready = 0
            earliest = 0
            for producer in sources:
                if two_level is not None:
                    two_level.add_pending_consumer(producer.dest_preg)
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
                index = next_ready(now)
            else:
                index += 1
                if index >= next_index or ready_at[index] > now:
                    index = -1
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
            # Close the log for values still allocated at the end.
            lifetimes = stats.lifetimes
            for producer in self.producers:
                if producer is None or producer.status != _ISSUED:
                    continue
                write_time = producer.exec_end + 1
                last_read = max(producer.last_read, write_time)
                lifetimes += (producer.alloc_time, write_time, last_read, cycles)


class _ICacheAdapter:
    """Adapts :class:`MemoryHierarchy` to the FrontEnd icache protocol."""

    __slots__ = ("hierarchy",)

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self.hierarchy = hierarchy

    def access(self, line: int) -> int:
        return self.hierarchy.ifetch(line)
