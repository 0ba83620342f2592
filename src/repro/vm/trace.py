"""Dynamic-trace representation produced by the functional VM.

The timing model is trace-driven: it consumes a sequence of
:class:`DynamicInst` records describing the committed instruction stream,
including resolved branch outcomes and memory addresses. This mirrors the
paper's methodology of timing-simulating a known instruction stream while
modelling the machine's speculation penalties explicitly.

This module is also the home of the *trace factory* primitives shared by
the VM, the workload suite, and the experiment engine:

* :func:`static_meta` — per-static-instruction predecode (operand and
  flag metadata chased out of ``inst.spec`` exactly once), used both by
  the VM's fast dispatch path and by trace deserialization.
* :class:`TraceAnalysis` — trace-invariant facts (actual degree of use
  per write, future-control-flow hashes, per-register use counts,
  instruction mixes) computed once per trace and shared by every machine
  configuration that simulates it.
* :func:`pack_trace` / :func:`unpack_trace` — a compact packed
  serialization of the committed record stream (plus its analysis) for
  the on-disk trace cache in :mod:`repro.workloads.suite`, which hands
  out cached traces undecoded (:meth:`Trace.deferred`) until a job
  reads their records.
"""

from __future__ import annotations

import pickle
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator

from repro.isa.instruction import NUM_ARCH_REGS, Instruction
from repro.isa.opcodes import OpClass
from repro.isa.program import Program

#: Default number of future conditional-branch directions folded into
#: the future-control-flow hash (see :mod:`repro.predict.degree_of_use`
#: for why this is smaller than the paper's 6 bits).
DEFAULT_FCF_BITS = 3

#: Bump when the packed trace layout changes (invalidates disk caches).
TRACE_PACK_VERSION = 1

_PACK_MAGIC = "repro-trace"


def static_meta(pc: int, inst: Instruction) -> tuple:
    """Predecode one static instruction into the metadata tuple every
    dynamic instance of it shares.

    Layout (consumed positionally by :meth:`DynamicInst.from_decoded`):
    ``(pc, inst, op_class, latency, dest, sources, is_branch,
    is_conditional, is_indirect, is_load, is_store)`` where ``dest`` is
    ``None`` for non-writing instructions and zero-register writes, and
    ``sources`` has zero-register reads removed.
    """
    spec = inst.spec
    return (
        pc,
        inst,
        spec.op_class,
        spec.latency,
        inst.dest if inst.writes_register() else None,
        tuple(s for s in inst.sources() if s != 0),
        spec.is_branch,
        spec.is_conditional,
        spec.is_indirect,
        spec.is_load,
        spec.is_store,
    )


class DynamicInst:
    """One committed dynamic instruction.

    Attributes:
        seq: position in the committed stream (0-based).
        pc: static instruction index.
        inst: the static :class:`Instruction`.
        op_class: functional-unit class (cached from the spec for speed).
        latency: execute latency in cycles (before memory effects).
        dest: destination architectural register or ``None`` (writes to
            the zero register are represented as ``None``).
        sources: architectural source registers actually read, with reads
            of the zero register removed.
        is_branch / is_conditional / is_load / is_store: opcode flags.
        taken: branch outcome (meaningful only for branches).
        target: next pc actually followed.
        mem_addr: word address touched by loads/stores, else ``None``.
        value: result value written (for validation/debug), else ``None``.
    """

    __slots__ = (
        "seq", "pc", "inst", "op_class", "latency", "dest", "sources",
        "is_branch", "is_conditional", "is_indirect", "is_load", "is_store",
        "taken", "target", "mem_addr", "value",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        inst: Instruction,
        *,
        taken: bool = False,
        target: int = -1,
        mem_addr: int | None = None,
        value: int | None = None,
    ) -> None:
        spec = inst.spec
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.op_class = spec.op_class
        self.latency = spec.latency
        self.dest = inst.dest if inst.writes_register() else None
        self.sources = tuple(s for s in inst.sources() if s != 0)
        self.is_branch = spec.is_branch
        self.is_conditional = spec.is_conditional
        self.is_indirect = spec.is_indirect
        self.is_load = spec.is_load
        self.is_store = spec.is_store
        self.taken = taken
        self.target = target
        self.mem_addr = mem_addr
        self.value = value

    @classmethod
    def from_decoded(
        cls,
        decoded: tuple,
        seq: int,
        taken: bool,
        target: int,
        mem_addr: int | None,
        value: int | None,
    ) -> "DynamicInst":
        """Fast constructor from a :func:`static_meta` tuple.

        Skips the per-instance spec chasing of ``__init__``; this is the
        constructor the VM's predecoded dispatch path and the trace
        deserializer use for every dynamic record.
        """
        self = object.__new__(cls)
        (self.pc, self.inst, self.op_class, self.latency, self.dest,
         self.sources, self.is_branch, self.is_conditional,
         self.is_indirect, self.is_load, self.is_store) = decoded
        self.seq = seq
        self.taken = taken
        self.target = target
        self.mem_addr = mem_addr
        self.value = value
        return self

    @property
    def writes_register(self) -> bool:
        """True when this instruction produces a register value."""
        return self.dest is not None

    def signature(self) -> tuple:
        """All observable fields, for bit-identity comparisons in tests."""
        return (
            self.seq, self.pc, self.inst, self.op_class, self.latency,
            self.dest, self.sources, self.is_branch, self.is_conditional,
            self.is_indirect, self.is_load, self.is_store, self.taken,
            self.target, self.mem_addr, self.value,
        )

    def __repr__(self) -> str:
        return f"DynamicInst(seq={self.seq}, pc={self.pc}, {self.inst})"


def compute_fcf(trace: "Trace", bits: int = DEFAULT_FCF_BITS) -> list[int]:
    """Future-control-flow hash for every trace position.

    ``fcf[i]`` encodes the directions of the first *bits* conditional
    branches strictly after position ``i`` (most imminent branch in the
    least-significant bit). Prefer :meth:`Trace.analysis` for the cached
    default-width variant.
    """
    records = trace.records
    mask = (1 << bits) - 1
    fcf = [0] * len(records)
    rolling = 0
    for index in range(len(records) - 1, -1, -1):
        fcf[index] = rolling
        record = records[index]
        if record.is_conditional:
            rolling = ((rolling << 1) | int(record.taken)) & mask
    return fcf


class TraceAnalysis:
    """Trace-invariant precomputation shared across machine configs.

    Every quantity here depends only on the committed instruction stream,
    never on the machine configuration, so it is computed once per trace
    (and serialized alongside it in the on-disk trace cache) instead of
    being rebuilt for every ``(config, trace)`` simulation pair.

    Attributes:
        fcf: future-control-flow hash per trace position (the predictor
            index component, paper §3.3), at :data:`DEFAULT_FCF_BITS`.
        use_counts: per-record *actual degree of use* — for each record
            that writes a register, the number of dynamic reads of that
            value before the architectural register is overwritten (or
            the trace ends); ``-1`` for non-writing records.
        histogram: degree-of-use histogram over all writes.
        reg_reads / reg_writes: dynamic read/write counts per
            architectural register.
        branch_count / load_count / store_count: summary counts
            (conditional branches, loads, stores).
        mix: instruction count by functional-unit class.
    """

    __slots__ = (
        "fcf", "use_counts", "histogram", "reg_reads", "reg_writes",
        "branch_count", "load_count", "store_count", "mix",
    )

    def __init__(
        self,
        fcf: list[int],
        use_counts: list[int],
        histogram: dict[int, int],
        reg_reads: list[int],
        reg_writes: list[int],
        branch_count: int,
        load_count: int,
        store_count: int,
        mix: dict[OpClass, int],
    ) -> None:
        self.fcf = fcf
        self.use_counts = use_counts
        self.histogram = histogram
        self.reg_reads = reg_reads
        self.reg_writes = reg_writes
        self.branch_count = branch_count
        self.load_count = load_count
        self.store_count = store_count
        self.mix = mix

    @classmethod
    def compute(
        cls, trace: "Trace", fcf_bits: int = DEFAULT_FCF_BITS
    ) -> "TraceAnalysis":
        """Analyze *trace* in one forward and one backward pass."""
        records = trace.records
        fcf = compute_fcf(trace, fcf_bits)
        use_counts = [-1] * len(records)
        writer = [-1] * NUM_ARCH_REGS
        pending = [0] * NUM_ARCH_REGS
        reg_reads = [0] * NUM_ARCH_REGS
        reg_writes = [0] * NUM_ARCH_REGS
        histogram: dict[int, int] = {}
        mix: dict[OpClass, int] = {}
        branches = loads = stores = 0
        for index, record in enumerate(records):
            op_class = record.op_class
            mix[op_class] = mix.get(op_class, 0) + 1
            if record.is_conditional:
                branches += 1
            if record.is_load:
                loads += 1
            elif record.is_store:
                stores += 1
            for src in record.sources:
                reg_reads[src] += 1
                if writer[src] >= 0:
                    pending[src] += 1
            dest = record.dest
            if dest is not None:
                reg_writes[dest] += 1
                previous = writer[dest]
                if previous >= 0:
                    uses = pending[dest]
                    use_counts[previous] = uses
                    histogram[uses] = histogram.get(uses, 0) + 1
                writer[dest] = index
                pending[dest] = 0
        for reg in range(NUM_ARCH_REGS):
            previous = writer[reg]
            if previous >= 0:
                uses = pending[reg]
                use_counts[previous] = uses
                histogram[uses] = histogram.get(uses, 0) + 1
        return cls(
            fcf, use_counts, histogram, reg_reads, reg_writes,
            branches, loads, stores, mix,
        )


class Trace:
    """A materialized committed-instruction trace.

    Thin wrapper over a list of :class:`DynamicInst` that records the
    program it came from plus lazily cached summary statistics. Traces
    are immutable after construction; the cached :meth:`analysis` never
    needs invalidation.

    A trace made by :meth:`deferred` knows its length up front and
    decodes its records (and its analysis) on first use: reading
    :attr:`records`, iterating, indexing or calling :meth:`analysis`.
    """

    def __init__(self, records: Iterable[DynamicInst], name: str = "") -> None:
        self._records: list[DynamicInst] | None = list(records)
        self._length = len(self._records)
        self.name = name
        #: ``(kernel_name, scale, seed)`` when the trace came from the
        #: benchmark-suite registry, else ``None``. Provenance lets the
        #: experiment engine re-derive the trace inside worker processes
        #: and key its on-disk result cache without shipping or hashing
        #: the record list itself.
        self.provenance: tuple[str, float, int | None] | None = None
        self._analysis: TraceAnalysis | None = None
        self._decode: Callable[[], Trace] | None = None

    @classmethod
    def deferred(
        cls, length: int, decode: Callable[[], "Trace"], name: str = ""
    ) -> "Trace":
        """A trace of *length* records that *decode* builds on first use.

        *decode* returns an eager trace whose records and analysis this
        one adopts. The trace pickles when *decode* does, as a
        ``functools.partial`` of a module-level function does.
        """
        trace = cls((), name)
        trace._records = None
        trace._length = length
        trace._decode = decode
        return trace

    @property
    def records(self) -> list[DynamicInst]:
        """The committed records, decoded first if this trace is deferred."""
        records = self._records
        if records is None:
            records = self._materialize()
        return records

    def _materialize(self) -> list[DynamicInst]:
        source = self._decode()
        self._records = records = source.records
        self._length = len(records)
        self._analysis = source._analysis
        self._decode = None
        return records

    @property
    def decoded(self) -> bool:
        """Whether the records exist yet (always, unless :meth:`deferred`)."""
        return self._records is not None

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[DynamicInst]:
        return iter(self.records)

    def __getitem__(self, index: int) -> DynamicInst:
        return self.records[index]

    def analysis(self) -> TraceAnalysis:
        """The trace's :class:`TraceAnalysis`, computed once and cached."""
        if self._records is None:
            self._materialize()  # restores the packed analysis too
        result = self._analysis
        if result is None:
            result = self._analysis = TraceAnalysis.compute(self)
        return result

    def branch_count(self) -> int:
        """Number of conditional branches in the trace."""
        return self.analysis().branch_count

    def load_count(self) -> int:
        """Number of loads in the trace."""
        return self.analysis().load_count

    def store_count(self) -> int:
        """Number of stores in the trace."""
        return self.analysis().store_count

    def mix(self) -> dict[OpClass, int]:
        """Instruction count by functional-unit class."""
        return dict(self.analysis().mix)

    def degree_of_use_histogram(self) -> dict[int, int]:
        """Histogram of the *actual* degree of use of produced values.

        The degree of use of a value is the number of dynamic reads of the
        defining write before the architectural register is overwritten
        (or the trace ends). This is the quantity the paper's degree-of-use
        predictor learns (paper §3.3).
        """
        return dict(self.analysis().histogram)


# ----------------------------------------------------------------------
# Packed serialization (the on-disk trace cache format).
#
# Only the dynamic outcomes are stored — per-record pc, branch outcome,
# branch target (branch records), memory address (memory records), and
# result value (writing records) — as raw little/big-native int64
# sections. Static metadata is reconstructed from the (deterministically
# re-assembled) program at decode time via :func:`static_meta`, so the
# format stays compact and loading never re-executes the VM.
# :func:`packed_length` checks only the header, for callers that defer
# the decode (:meth:`Trace.deferred`).


def pack_trace(trace: Trace, analysis: TraceAnalysis | None = None) -> bytes:
    """Serialize *trace* (and optionally its analysis) to bytes.

    Raises:
        ValueError: if the trace cannot be packed (e.g. synthetic records
            whose values fall outside the VM's canonical signed-64 range).
    """
    records = trace.records
    try:
        pcs = array("q", (r.pc for r in records))
        taken = bytes(bytearray(1 if r.taken else 0 for r in records))
        targets = array("q", (r.target for r in records if r.is_branch))
        mem_addrs = array(
            "q",
            (r.mem_addr for r in records if r.is_load or r.is_store),
        )
        values = array(
            "q", (r.value for r in records if r.dest is not None)
        )
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"trace is not packable: {exc}") from exc
    payload: dict[str, object] = {
        "magic": _PACK_MAGIC,
        "version": TRACE_PACK_VERSION,
        "byteorder": sys.byteorder,
        "name": trace.name,
        "provenance": list(trace.provenance) if trace.provenance else None,
        "n": len(records),
        "pcs": pcs.tobytes(),
        "taken": taken,
        "targets": targets.tobytes(),
        "mem_addrs": mem_addrs.tobytes(),
        "values": values.tobytes(),
    }
    if analysis is not None:
        payload["analysis"] = {
            "fcf_bits": DEFAULT_FCF_BITS,
            "fcf": bytes(analysis.fcf),
            "use_counts": array("q", analysis.use_counts).tobytes(),
            "reg_reads": array("q", analysis.reg_reads).tobytes(),
            "reg_writes": array("q", analysis.reg_writes).tobytes(),
            "histogram": dict(analysis.histogram),
            "branch_count": analysis.branch_count,
            "load_count": analysis.load_count,
            "store_count": analysis.store_count,
            "mix": {oc.value: c for oc, c in analysis.mix.items()},
        }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def _int64s(blob: object, expected: int | None = None) -> array:
    values = array("q")
    if not isinstance(blob, bytes) or len(blob) % values.itemsize:
        raise ValueError("corrupt int64 section")
    values.frombytes(blob)
    if expected is not None and len(values) != expected:
        raise ValueError("int64 section length mismatch")
    return values


def _restore_analysis(blob: dict, n: int) -> TraceAnalysis:
    if blob["fcf_bits"] != DEFAULT_FCF_BITS:
        raise ValueError("analysis cached at a different fcf width")
    fcf = list(blob["fcf"])
    if len(fcf) != n:
        raise ValueError("fcf length mismatch")
    return TraceAnalysis(
        fcf,
        _int64s(blob["use_counts"], n).tolist(),
        {int(k): int(v) for k, v in blob["histogram"].items()},
        _int64s(blob["reg_reads"], NUM_ARCH_REGS).tolist(),
        _int64s(blob["reg_writes"], NUM_ARCH_REGS).tolist(),
        int(blob["branch_count"]),
        int(blob["load_count"]),
        int(blob["store_count"]),
        {OpClass(k): int(v) for k, v in blob["mix"].items()},
    )


def _checked_payload(data: bytes) -> dict:
    """Unpickle a packed trace and check its header.

    Raises ``ValueError`` unless the magic, version and byte order match
    this build and the record count is a non-negative int.
    """
    try:
        payload = pickle.loads(data)
    except Exception as exc:
        raise ValueError(f"corrupt trace blob: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("magic") != _PACK_MAGIC
        or payload.get("version") != TRACE_PACK_VERSION
        or payload.get("byteorder") != sys.byteorder
    ):
        raise ValueError("unrecognized trace blob header")
    n = payload.get("n")
    if not isinstance(n, int) or n < 0:
        raise ValueError("bad record count")
    return payload


def packed_length(data: bytes) -> int:
    """The record count of a :func:`pack_trace` blob, after checking
    its header (``ValueError`` if bad); nothing else is decoded, so a
    corrupt section surfaces only in :func:`unpack_trace`."""
    return _checked_payload(data)["n"]


def unpack_trace(data: bytes, program: Program) -> Trace:
    """Reconstruct a trace serialized by :func:`pack_trace`.

    *program* must be the same program that produced the trace (the
    caller guarantees this by keying cache entries on a fingerprint of
    the kernel/ISA/VM sources). Any structural inconsistency raises
    ``ValueError`` so callers treat the blob as corrupt and regenerate.
    """
    payload = _checked_payload(data)
    n = payload["n"]
    taken = payload.get("taken")
    if not isinstance(taken, bytes) or len(taken) != n:
        raise ValueError("taken section length mismatch")
    pcs = _int64s(payload["pcs"], n)
    targets = _int64s(payload["targets"])
    mem_addrs = _int64s(payload["mem_addrs"])
    values = _int64s(payload["values"])

    metas = [
        static_meta(pc, inst) for pc, inst in enumerate(program.instructions)
    ]
    num_static = len(metas)
    records: list[DynamicInst] = []
    append = records.append
    from_decoded = DynamicInst.from_decoded
    ti = mi = vi = 0
    try:
        for seq in range(n):
            pc = pcs[seq]
            if not 0 <= pc < num_static:
                raise ValueError(f"record {seq}: pc {pc} out of range")
            decoded = metas[pc]
            if decoded[6]:  # is_branch
                target = targets[ti]
                ti += 1
            else:
                target = -1
            if decoded[9] or decoded[10]:  # is_load / is_store
                mem_addr = mem_addrs[mi]
                mi += 1
            else:
                mem_addr = None
            if decoded[4] is not None:  # dest
                value = values[vi]
                vi += 1
            else:
                value = None
            append(
                from_decoded(decoded, seq, taken[seq] == 1, target,
                             mem_addr, value)
            )
    except IndexError as exc:
        raise ValueError("truncated trace section") from exc
    if ti != len(targets) or mi != len(mem_addrs) or vi != len(values):
        raise ValueError("trace section length mismatch")

    trace = Trace(records, name=payload.get("name") or program.name)
    provenance = payload.get("provenance")
    if provenance:
        trace.provenance = (
            provenance[0], float(provenance[1]), provenance[2]
        )
    analysis = payload.get("analysis")
    if isinstance(analysis, dict):
        try:
            trace._analysis = _restore_analysis(analysis, n)
        except (KeyError, TypeError, ValueError):
            trace._analysis = None  # recomputed lazily on demand
    return trace
