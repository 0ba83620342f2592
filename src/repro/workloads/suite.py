"""Benchmark suite registry and trace factory.

Provides named access to the SPECint-like kernels, assembling and
functionally executing each one to produce the committed trace consumed
by the timing model. Trace production is layered for reuse across the
experiment grid:

1. an in-process ``lru_cache`` memo per ``(name, scale, seed)`` — repeat
   loads in one process return the *same* ``Trace`` object;
2. an **on-disk trace cache** in ``$REPRO_CACHE_DIR/traces``, kept by
   the store the result cache uses (:mod:`repro.store`; ``REPRO_CACHE=0``
   turns both off), holding the packed record stream plus its
   :class:`~repro.vm.trace.TraceAnalysis`, keyed by
   ``(kernel name, scale, seed)`` and a fingerprint of the ISA, VM and
   workload sources — so cold worker processes *load* traces instead of
   re-executing the VM, and an edit anywhere in the trace-producing code
   invalidates every entry;
3. VM execution as the fallback, storing the result back to disk.

A disk hit checks only the packed header and returns a deferred trace
(:meth:`~repro.vm.trace.Trace.deferred`): the kernel is assembled and
the records decoded when a job first reads them, so a run served from
the result cache never assembles a kernel. A blob whose header is bad
is repaired at load, one that fails to decode at that first read.

A parallel experiment engine loads and decodes its jobs' traces before
its pool forks, so workers inherit them; :func:`trace_counters` surfaces
the generated-vs-loaded split.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from dataclasses import dataclass

from repro import store
from repro.errors import ReproError
from repro.isa.program import Program
from repro.obs.log import get_logger
from repro.testing import faults
from repro.vm.trace import Trace, pack_trace, packed_length, unpack_trace

_log = get_logger("suite")

#: This module, through which a trace miss reaches the lazily loaded VM.
_suite = sys.modules[__name__]


def __getattr__(name: str):
    # The VM loads on the first trace this process generates, so a run
    # whose traces all come from the disk cache never imports it. Bound
    # once loaded, ``run_program`` stays a module attribute perfbench
    # rebinds.
    if name == "run_program":
        from repro.vm.machine import run_program

        globals()[name] = run_program
        return run_program
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Default suite used by the experiment harness (the eight primary
#: kernels; ``bitpack`` and ``tree_walk`` are extra workloads available
#: by name via :func:`load_trace`).
DEFAULT_SUITE = (
    "pointer_chase", "compress", "hash_dict", "sort",
    "graph_walk", "interp", "crc", "strmatch",
)

#: Short suite used by wide parameter sweeps to bound wall-clock time.
SHORT_SUITE = ("pointer_chase", "compress", "hash_dict", "interp")


def benchmark_names() -> tuple[str, ...]:
    """Names of all available benchmarks."""
    from repro.workloads.kernels import KERNELS

    return tuple(KERNELS)


def build_program(name: str, scale: float = 1.0, seed: int | None = None) -> Program:
    """Assemble the named kernel at the given scale.

    Args:
        name: a key of :data:`repro.workloads.kernels.KERNELS`.
        scale: dynamic-instruction-count multiplier (see kernels module).
        seed: RNG seed for the kernel's data set; ``None`` uses the
            kernel's default.

    Raises:
        ReproError: if *name* is not a known benchmark.
    """
    # Imported here: only generating or decoding a trace assembles one.
    from repro.isa.assembler import assemble
    from repro.workloads.kernels import KERNELS

    builder = KERNELS.get(name)
    if builder is None:
        raise ReproError(
            f"unknown benchmark {name!r}; available: {', '.join(KERNELS)}"
        )
    source = builder(scale) if seed is None else builder(scale, seed)
    return assemble(source, name=name)


# ----------------------------------------------------------------------
# Observability: how traces were obtained (generated vs. loaded).


@dataclass
class TraceCounters:
    """Counts of trace-factory activity in this process."""

    generated: int = 0
    loaded: int = 0
    repairs: int = 0
    gen_seconds: float = 0.0
    load_seconds: float = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "traces_generated": self.generated,
            "traces_loaded": self.loaded,
            "trace_cache_repairs": self.repairs,
            "trace_gen_seconds": self.gen_seconds,
            "trace_load_seconds": self.load_seconds,
        }

    def since(self, before: dict[str, float]) -> dict[str, float]:
        """Delta of :meth:`snapshot` values since *before*."""
        now = self.snapshot()
        return {key: now[key] - before.get(key, 0) for key in now}


_counters = TraceCounters()


def trace_counters() -> TraceCounters:
    """This process's trace-factory counters."""
    return _counters


# ----------------------------------------------------------------------
# On-disk trace cache.

#: Bump when the cache addressing scheme changes.
TRACE_CACHE_SCHEMA_VERSION = 1

#: The sources that can change what the VM commits: an edit there
#: retires every entry, an edit elsewhere (the timing core) none.
_TRACE_SOURCES = ("isa", "vm", "workloads")


def _trace_dir() -> str:
    return os.path.join(store.cache_dir(), "traces")


def _trace_key(name: str, scale: float, seed: int | None) -> str:
    material = "\x1f".join((
        str(TRACE_CACHE_SCHEMA_VERSION),
        store.fingerprint(include=_TRACE_SOURCES),
        name, repr(float(scale)), repr(seed),
    ))
    return hashlib.sha256(material.encode()).hexdigest()


def _count_repair(name: str, scale: float, seed: int | None) -> None:
    # Unlike a plain miss, a repair means an entry existed and was
    # unreadable, so it is counted: a climbing repair rate flags a sick
    # cache volume.
    _counters.repairs += 1
    _log.warning(
        "repairing corrupt trace-cache entry for %s (scale=%s, seed=%s): %s",
        name, scale, seed,
        store.path(_trace_dir(), _trace_key(name, scale, seed), ".trace"),
    )


def _load_cached(name: str, scale: float, seed: int | None) -> Trace | None:
    """A deferred trace over the disk entry, or ``None`` on miss or a
    bad header (the caller then regenerates and stores over it)."""
    data = store.read(_trace_dir(), _trace_key(name, scale, seed), ".trace")
    if data is None:
        return None
    try:
        length = packed_length(data)
    except ValueError:
        _count_repair(name, scale, seed)
        return None
    decode = functools.partial(_decode_cached, name, scale, seed, data)
    return Trace.deferred(length, decode, name=name)


def _decode_cached(name: str, scale: float, seed: int | None, data: bytes) -> Trace:
    """Decode a disk entry whose header checked out, on first use.

    A body that fails to decode is repaired the way a bad header is at
    load: regenerate, store back, count the repair.
    """
    program = build_program(name, scale=scale, seed=seed)
    try:
        return unpack_trace(data, program)
    except Exception:
        _count_repair(name, scale, seed)
        return _generate(name, scale, seed, program)


def _store_cached(name: str, scale: float, seed: int | None, trace: Trace) -> None:
    """Publish the packed trace (with analysis); best-effort."""
    try:
        data = pack_trace(trace, trace.analysis())
    except ValueError:
        return  # caching is an optimization; never fail the load
    key = _trace_key(name, scale, seed)
    data = faults.corrupt_bytes("truncate_trace", key, data)
    store.write(_trace_dir(), key, ".trace", data)


def load_trace(name: str, scale: float = 1.0, seed: int | None = None) -> Trace:
    """Return the committed trace of a benchmark, via the trace factory.

    Checks the in-process memo, then the on-disk trace cache, and only
    then assembles and executes the kernel on the VM (storing the result
    back to disk). Results are cached; callers must treat the returned
    trace as immutable.

    The memo is keyed on the normalized ``(name, scale, seed)``, so
    ``load_trace(n, scale=s)`` and ``load_trace(n, s, None)`` return the
    same object.
    """
    return _memo_trace(name, float(scale), seed)


@functools.lru_cache(maxsize=128)
def _memo_trace(name: str, scale: float, seed: int | None) -> Trace:
    if store.enabled():
        started = time.perf_counter()
        trace = _load_cached(name, scale, seed)
        if trace is not None:
            _counters.loaded += 1
            _counters.load_seconds += time.perf_counter() - started
            trace.provenance = (name, scale, seed)
            return trace
    return _generate(name, scale, seed, build_program(name, scale, seed))


def _generate(
    name: str, scale: float, seed: int | None, program: Program
) -> Trace:
    """Execute *program* on the VM and store the trace back to disk."""
    started = time.perf_counter()
    trace = _suite.run_program(program)
    _counters.generated += 1
    _counters.gen_seconds += time.perf_counter() - started
    trace.provenance = (name, scale, seed)
    if store.enabled():
        _store_cached(name, scale, seed, trace)
    return trace


#: The memo's ``lru_cache`` statistics, under the name callers use.
load_trace.cache_info = _memo_trace.cache_info


def clear_trace_memo() -> None:
    """Drop the in-process trace memo (tests and cache experiments)."""
    _memo_trace.cache_clear()


def load_suite(
    names: tuple[str, ...] = DEFAULT_SUITE, scale: float = 1.0
) -> dict[str, Trace]:
    """Load traces for a set of benchmarks.

    Args:
        names: benchmark names (defaults to the full suite).
        scale: instruction-count multiplier applied to each kernel.

    Returns:
        Mapping of benchmark name to committed trace, in *names* order.
    """
    return {name: load_trace(name, scale=scale) for name in names}
