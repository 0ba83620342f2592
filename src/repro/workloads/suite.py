"""Benchmark suite registry and trace factory.

Provides named access to the SPECint-like kernels, assembling and
functionally executing each one to produce the committed trace consumed
by the timing model. Trace production is layered for reuse across the
experiment grid:

1. an in-process ``lru_cache`` memo per ``(name, scale, seed)`` — repeat
   loads in one process return the *same* ``Trace`` object;
2. an **on-disk trace cache** (``REPRO_TRACE_CACHE`` /
   ``REPRO_TRACE_CACHE_DIR``) holding the packed record stream plus its
   :class:`~repro.vm.trace.TraceAnalysis`, keyed by
   ``(kernel name, scale, seed)`` and a fingerprint of the kernel / ISA /
   VM sources — so cold worker processes *load* traces instead of
   re-executing the VM, and a source edit anywhere in the trace-producing
   code invalidates every entry;
3. VM execution as the fallback, storing the result back to disk.

The experiment engine warms this cache once before process fan-out (see
:meth:`repro.analysis.engine.ExperimentEngine.run`) and surfaces the
generated-vs-loaded split through :func:`trace_counters`.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.obs.log import get_logger
from repro.testing import faults
from repro.vm.trace import Trace, pack_trace, unpack_trace
from repro.workloads.kernels import KERNELS

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
#
# The key mirrors engine._code_fingerprint's discipline: cache identity
# is (kernel, scale, seed) + a hash of every source file that can change
# what the VM commits — the ISA, the VM itself, and the workload
# generators. Any edit to those trees invalidates all entries.

#: Bump when the cache addressing scheme changes.
TRACE_CACHE_SCHEMA_VERSION = 1

_FINGERPRINT_ROOTS = ("isa", "vm", "workloads")


def _hash_tree(root: Path, digest: "hashlib._Hash") -> None:
    """Fold every ``*.py`` under *root* (sorted) into *digest*."""
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())


@functools.lru_cache(maxsize=1)
def _trace_fingerprint() -> str:
    """Hash of the sources that determine a trace's contents."""
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    digest.update(f"trace-schema:{TRACE_CACHE_SCHEMA_VERSION}".encode())
    for name in _FINGERPRINT_ROOTS:
        root = package_root / name
        digest.update(name.encode())
        if root.is_dir():
            _hash_tree(root, digest)
    return digest.hexdigest()


def trace_cache_enabled() -> bool:
    """Whether the on-disk trace cache is active (default: yes)."""
    return os.environ.get("REPRO_TRACE_CACHE", "1").lower() not in (
        "0", "false", "off",
    )


def trace_cache_dir() -> Path:
    """Directory holding packed trace files."""
    override = os.environ.get("REPRO_TRACE_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
    return Path(base) / "traces"


def _trace_key(name: str, scale: float, seed: int | None) -> str:
    material = "\x1f".join(
        (_trace_fingerprint(), name, repr(float(scale)), repr(seed))
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _trace_path(key: str) -> Path:
    return trace_cache_dir() / key[:2] / f"{key[2:]}.trace"


def _load_cached(
    name: str, scale: float, seed: int | None, program: Program
) -> Trace | None:
    """Load a packed trace from disk, or ``None`` on miss/corruption."""
    path = _trace_path(_trace_key(name, scale, seed))
    try:
        data = path.read_bytes()
    except OSError:
        return None
    try:
        return unpack_trace(data, program)
    except Exception:
        # Corrupt or stale blob: repair by regenerating (the caller
        # stores the fresh trace over this entry). Unlike a plain miss
        # this means an entry existed and was unreadable, so it is
        # counted — a climbing repair rate flags a sick cache volume.
        _counters.repairs += 1
        _log.warning(
            "repairing corrupt trace-cache entry for %s (scale=%s, "
            "seed=%s): %s", name, scale, seed, path,
        )
        return None


def _store_cached(name: str, scale: float, seed: int | None, trace: Trace) -> None:
    """Atomically write the packed trace (with analysis); best-effort."""
    key = _trace_key(name, scale, seed)
    path = _trace_path(key)
    try:
        data = pack_trace(trace, trace.analysis())
        if faults.enabled():
            data = faults.corrupt_bytes("truncate_trace", key, data)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except (OSError, ValueError):
        pass  # caching is an optimization; never fail the load


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
    program = build_program(name, scale=scale, seed=seed)
    if trace_cache_enabled():
        started = time.perf_counter()
        trace = _load_cached(name, scale, seed, program)
        if trace is not None:
            _counters.loaded += 1
            _counters.load_seconds += time.perf_counter() - started
            trace.provenance = (name, scale, seed)
            return trace
    started = time.perf_counter()
    trace = _suite.run_program(program)
    _counters.generated += 1
    _counters.gen_seconds += time.perf_counter() - started
    trace.provenance = (name, scale, seed)
    if trace_cache_enabled():
        _store_cached(name, scale, seed, trace)
    return trace


#: The memo's ``lru_cache`` statistics, under the name callers use.
load_trace.cache_info = _memo_trace.cache_info


def warm_trace_cache(name: str, scale: float = 1.0, seed: int | None = None) -> bool:
    """Ensure the on-disk cache holds the packed trace for one workload.

    Called by the experiment engine before process fan-out so cold
    workers load traces instead of re-executing the VM. Returns ``True``
    when a disk entry exists afterwards.
    """
    if not trace_cache_enabled():
        return False
    path = _trace_path(_trace_key(name, scale, seed))
    if path.is_file():
        return True
    # load_trace may be memoized from before the disk entry existed (or
    # was deleted), so store explicitly rather than relying on its
    # generate-then-store path.
    trace = load_trace(name, scale=scale, seed=seed)
    _store_cached(name, scale, seed, trace)
    return path.is_file()


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
