"""Simulation statistics containers.

:class:`SimStats` is the unit of exchange between the simulator and the
analysis layer, so it must travel well: across process boundaries (the
parallel experiment engine pickles results back from its workers) and
onto disk (the content-addressed result cache stores JSON). Both paths
use the compact :meth:`SimStats.to_dict` form; :meth:`SimStats.from_dict`
reverses it exactly.

The lifetime log has one form everywhere: a flat ``list[int]`` with four
ints per physical-register allocation, ``alloc, write, last_read,
free``. The pipeline appends to it, ``to_dict`` emits a copy of it, and
the analyses in :mod:`repro.core.lifetimes` read its columns
(``log[0::4]`` ...) directly, so no per-allocation object is built on
any path.

``to_dict()`` is also the repo's *equality surface*: an engine sweep
must return ``to_dict()``-equal payloads to direct ``Pipeline`` runs of
the same (trace, config), and ``tests/golden/simstats.json`` pins
hashes of it for a grid of kernels and schemes, so any refactor of the
timing loop must reproduce every field here bit for bit.

The lifetime log is opt-in (``MachineConfig.record_lifetimes``). A run
that did not record it has ``lifetimes = None`` — serialized as
``null`` — so it can never pass for a run that recorded an empty log.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.regfile.register_cache import CacheStats

#: Bump when the serialized form of :class:`SimStats` changes shape, so
#: the engine's on-disk result cache invalidates stale entries.
STATS_SCHEMA_VERSION = 2


@dataclass
class SimStats:
    """Everything measured during one timing-simulation run.

    Rate properties (:attr:`ipc`, :attr:`bypass_fraction`,
    :attr:`predictor_accuracy`, and every ``*_bandwidth``) are defined
    to return ``0.0`` — never raise — when their denominator is zero
    (an empty or zero-cycle run), so report code can format any
    :class:`SimStats` without guarding against fresh instances.
    """

    benchmark: str = ""
    scheme: str = ""
    cycles: int = 0
    retired: int = 0

    # Operand sourcing at issue.
    operands_bypass: int = 0
    operands_bypass_first: int = 0
    operands_storage: int = 0

    # Register cache (None for non-cache schemes).
    cache: CacheStats | None = None

    # Register file / backing file traffic.
    rf_reads: int = 0
    rf_writes: int = 0

    # Speculation events.
    branch_mispredicts: int = 0
    rc_miss_events: int = 0
    load_miss_replays: int = 0
    issue_blocked_cycles: int = 0

    # Front-end and rename stalls.
    dispatch_stall_cycles: int = 0
    rename_stall_cycles: int = 0  # two-level only

    # Two-level move engine.
    tl_moves: int = 0
    tl_restores: int = 0
    tl_recovery_stalls: int = 0

    # Degree-of-use predictor.
    predictor_queries: int = 0
    predictor_supplied: int = 0
    predictor_correct: int = 0

    # Per-allocation lifetime log (Figure 1 / Figure 2 inputs), four ints
    # per allocation: alloc, write, last_read, free. None when the run
    # did not record it (MachineConfig.record_lifetimes off).
    lifetimes: list[int] | None = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def bypass_fraction(self) -> float:
        """Fraction of operands supplied by the bypass network."""
        total = self.operands_bypass + self.operands_storage
        return self.operands_bypass / total if total else 0.0

    @property
    def predictor_accuracy(self) -> float:
        """Degree-of-use predictor accuracy on supplied predictions."""
        if not self.predictor_supplied:
            return 0.0
        return self.predictor_correct / self.predictor_supplied

    # Bandwidth figures (Figure 9): accesses per cycle.

    @property
    def cache_read_bandwidth(self) -> float:
        if not self.cycles or self.cache is None:
            return 0.0
        return self.cache.reads / self.cycles

    @property
    def cache_write_bandwidth(self) -> float:
        if not self.cycles or self.cache is None:
            return 0.0
        writes = self.cache.writes_initial + self.cache.writes_fill
        return writes / self.cycles

    @property
    def rf_read_bandwidth(self) -> float:
        return self.rf_reads / self.cycles if self.cycles else 0.0

    @property
    def rf_write_bandwidth(self) -> float:
        return self.rf_writes / self.cycles if self.cycles else 0.0

    def summary(self) -> dict[str, float]:
        """Flat dict of headline numbers (for reports and tests)."""
        out = {
            "ipc": self.ipc,
            "cycles": float(self.cycles),
            "retired": float(self.retired),
            "bypass_fraction": self.bypass_fraction,
            "branch_mispredicts": float(self.branch_mispredicts),
            "predictor_accuracy": self.predictor_accuracy,
        }
        if self.cache is not None:
            out.update({
                "miss_rate": self.cache.miss_rate,
                "reads_per_cached_value": self.cache.reads_per_cached_value,
                "cache_count": self.cache.cache_count,
                "avg_occupancy": self.cache.average_occupancy(self.cycles),
                "avg_entry_lifetime": self.cache.average_lifetime,
            })
        return out

    # ------------------------------------------------------------------
    # Aggregation (the observability summary path).

    @classmethod
    def merge(cls, runs: "Iterable[SimStats]") -> "SimStats":
        """Pool several runs into one aggregate :class:`SimStats`.

        Integer counters add; the cache sub-records merge via
        :meth:`CacheStats.merge` (present when any run had one); the
        lifetime logs concatenate (``None`` when any run did not record
        one). ``benchmark`` joins the distinct
        input names with ``+`` and ``scheme`` is kept when unanimous
        (``mixed`` otherwise), so derived rates (:attr:`ipc`,
        :attr:`bypass_fraction`, ...) read as suite-level aggregates.
        Merging zero runs returns an empty instance (all rates 0.0).
        """
        runs = list(runs)
        merged = cls()
        benchmarks: list[str] = []
        schemes: list[str] = []
        caches = []
        for stats in runs:
            if stats.benchmark and stats.benchmark not in benchmarks:
                benchmarks.append(stats.benchmark)
            if stats.scheme and stats.scheme not in schemes:
                schemes.append(stats.scheme)
            if stats.cache is not None:
                caches.append(stats.cache)
            for spec in dataclasses.fields(cls):
                if spec.name in ("benchmark", "scheme", "cache", "lifetimes"):
                    continue
                setattr(
                    merged, spec.name,
                    getattr(merged, spec.name) + getattr(stats, spec.name),
                )
            if stats.lifetimes is None:
                merged.lifetimes = None
            elif merged.lifetimes is not None:
                merged.lifetimes.extend(stats.lifetimes)
        merged.benchmark = "+".join(benchmarks)
        merged.scheme = (
            schemes[0] if len(schemes) == 1 else ("mixed" if schemes else "")
        )
        if caches:
            merged.cache = CacheStats.merge(caches)
        return merged

    # ------------------------------------------------------------------
    # Serialization (process boundaries and the on-disk result cache).

    def to_dict(self, include_lifetimes: bool = True) -> dict:
        """Compact plain-data form, exactly invertible by :meth:`from_dict`.

        Scalar counters are copied as-is; the cache sub-record becomes a
        plain dict; the lifetime log, already one flat int array, is
        copied so the dict never aliases the live log; an unrecorded log
        stays ``None``. Pass ``include_lifetimes=False`` to drop the log
        entirely when the consumer only needs the counters.
        """
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in ("cache", "lifetimes")
        }
        out["cache"] = None if self.cache is None else self.cache.to_dict()
        if not include_lifetimes:
            out["lifetimes"] = []
        elif self.lifetimes is None:
            out["lifetimes"] = None
        else:
            out["lifetimes"] = list(self.lifetimes)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Inverse of :meth:`to_dict`.

        The lifetime log is kept as given, not copied: it is already the
        flat array :class:`SimStats` holds.
        """
        data = dict(data)
        cache = data.get("cache")
        data["cache"] = None if cache is None else CacheStats.from_dict(cache)
        return cls(**data)

    def __reduce__(self):
        # Pickle via the compact dict form: plain data only, the same
        # form the result cache stores.
        return (_simstats_from_dict, (self.to_dict(),))


def _simstats_from_dict(data: dict) -> SimStats:
    """Module-level unpickling hook for :meth:`SimStats.__reduce__`."""
    return SimStats.from_dict(data)
