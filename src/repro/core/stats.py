"""Simulation statistics containers.

:class:`SimStats` is the unit of exchange between the simulator and the
analysis layer, so it must travel well: across process boundaries (the
parallel experiment engine pickles results back from its workers) and
onto disk (the content-addressed result cache stores JSON). Both paths
use the positional :meth:`SimStats.to_row` form: the fields in dataclass
order, the :class:`CacheStats` record nested as its own row with its
miss counts in :data:`MISS_CAUSES` order, and the lifetime log as its
flat int list. :meth:`SimStats.from_row` reverses it exactly and
rejects a row of any other shape, so a stale or damaged entry can never
decode with defaults standing in for missing fields. The register-cache
record and its miss-cause labels live here too, so a process that only
decodes results loads none of the timing model.

The lifetime log has one form everywhere: a flat ``list[int]`` with four
ints per physical-register allocation, ``alloc, write, last_read,
free``. The pipeline appends to it, ``to_row`` emits a copy of it, and
the analyses in :mod:`repro.core.lifetimes` read its columns
(``log[0::4]`` ...) directly, so no per-allocation object is built on
any path.

``to_dict()`` is the repo's readable *equality surface*: an engine sweep
must return ``to_dict()``-equal payloads to direct ``Pipeline`` runs of
the same (trace, config), and ``tests/golden/simstats.json`` pins
hashes of it for a grid of kernels and schemes, so any refactor of the
timing loop must reproduce every field here bit for bit. It is the row
form with field names attached.

The lifetime log is opt-in (``MachineConfig.record_lifetimes``). A run
that did not record it has ``lifetimes = None`` — serialized as
``null`` — so it can never pass for a run that recorded an empty log.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import attrgetter

#: Bump when the serialized form of :class:`SimStats` changes shape (a
#: field added, removed or reordered, or the miss-cause order), so the
#: engine's on-disk result cache invalidates stale entries.
STATS_SCHEMA_VERSION = 3

#: Miss-cause labels used in the statistics (Figure 8 taxonomy).
MISS_FILTERED = "filtered"
MISS_CONFLICT = "conflict"
MISS_CAPACITY = "capacity"
MISS_COLD = "cold"

#: Miss causes in the order a serialized row lists their counts.
MISS_CAUSES = (MISS_FILTERED, MISS_CONFLICT, MISS_CAPACITY, MISS_COLD)


def _check_row(row: object, width: int, what: str) -> None:
    """Raise unless *row* is a list of exactly *width* items."""
    if type(row) is not list:
        raise TypeError(f"{what} row is {type(row).__name__}, not list")
    if len(row) != width:
        raise ValueError(f"{what} row has {len(row)} fields, not {width}")


@dataclass
class CacheStats:
    """Aggregate register-cache statistics.

    Attributes mirror the paper's reported metrics; see Figures 8-10 and
    Table 2.
    """

    reads: int = 0
    hits: int = 0
    misses: dict[str, int] = field(default_factory=lambda: {
        MISS_FILTERED: 0, MISS_CONFLICT: 0, MISS_CAPACITY: 0, MISS_COLD: 0,
    })
    writes_initial: int = 0
    writes_fill: int = 0
    writes_filtered: int = 0
    evictions: int = 0
    evictions_with_uses: int = 0
    zero_use_victims: int = 0
    invalidations: int = 0
    instances_cached: int = 0
    instances_never_read: int = 0
    lifetime_sum: int = 0
    lifetime_count: int = 0
    values_freed: int = 0
    values_never_cached: int = 0
    occupancy_integral: int = 0

    @property
    def miss_count(self) -> int:
        """Total misses across all causes."""
        return sum(self.misses.values())

    @property
    def miss_rate(self) -> float:
        """Per-operand miss rate (misses / cache reads)."""
        return self.miss_count / self.reads if self.reads else 0.0

    @property
    def reads_per_cached_value(self) -> float:
        """Average reads satisfied per cached instance (Table 2 row 1)."""
        if not self.instances_cached:
            return 0.0
        return self.hits / self.instances_cached

    @property
    def cache_count(self) -> float:
        """Average times each produced value was cached (Table 2 row 2)."""
        if not self.values_freed:
            return 0.0
        return self.instances_cached / self.values_freed

    @property
    def never_read_fraction(self) -> float:
        """Fraction of cached instances never read (Figure 10, left)."""
        if not self.instances_cached:
            return 0.0
        return self.instances_never_read / self.instances_cached

    @property
    def filtered_write_fraction(self) -> float:
        """Fraction of initial writes filtered (Figure 10, middle)."""
        total = self.writes_initial + self.writes_filtered
        return self.writes_filtered / total if total else 0.0

    @property
    def never_cached_fraction(self) -> float:
        """Fraction of produced values never cached (Figure 10, right)."""
        if not self.values_freed:
            return 0.0
        return self.values_never_cached / self.values_freed

    def average_occupancy(self, cycles: int) -> float:
        """Time-averaged number of valid entries (Table 2 row 3)."""
        return self.occupancy_integral / cycles if cycles else 0.0

    @property
    def average_lifetime(self) -> float:
        """Average cycles between entry write and departure (Table 2)."""
        if not self.lifetime_count:
            return 0.0
        return self.lifetime_sum / self.lifetime_count

    def to_row(self) -> list:
        """Positional form: the fields in dataclass order, with the miss
        counts as a list in :data:`MISS_CAUSES` order."""
        row = list(_cache_fields(self))
        misses = self.misses
        row[_MISSES_INDEX] = [misses[cause] for cause in MISS_CAUSES]
        if len(misses) != len(MISS_CAUSES):
            raise ValueError(f"unknown miss causes in {sorted(misses)}")
        return row

    @classmethod
    def from_row(cls, row: list) -> "CacheStats":
        """Inverse of :meth:`to_row`; raises on a row of another shape."""
        _check_row(row, _CACHE_WIDTH, "CacheStats")
        cache = cls(*row)
        misses = cache.misses
        _check_row(misses, len(MISS_CAUSES), "misses")
        cache.misses = dict(zip(MISS_CAUSES, misses))
        return cache

    def to_dict(self) -> dict:
        """Plain-data form (ints and a str-keyed dict), JSON-safe."""
        out = dict(zip(_CACHE_NAMES, self.to_row()))
        out["misses"] = dict(zip(MISS_CAUSES, out["misses"]))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        data["misses"] = dict(data.get("misses", {}))
        return cls(**data)

    @classmethod
    def merge(cls, parts: "list[CacheStats]") -> "CacheStats":
        """Sum several cache-stat records (suite-level aggregation).

        Every counter adds, including per-cause miss counts, so derived
        rates on the merged record are traffic-weighted means.
        """
        merged = cls(**dict(zip(
            _CACHE_COUNTERS, map(sum, zip(*map(_cache_counters, parts))),
        )))
        misses = merged.misses
        for part in parts:
            for cause, count in part.misses.items():
                misses[cause] = misses.get(cause, 0) + count
        return merged


_CACHE_NAMES = tuple(spec.name for spec in dataclasses.fields(CacheStats))
_CACHE_WIDTH = len(_CACHE_NAMES)
_MISSES_INDEX = _CACHE_NAMES.index("misses")
#: The fields :meth:`CacheStats.merge` adds (all but the miss dict).
_CACHE_COUNTERS = tuple(name for name in _CACHE_NAMES if name != "misses")
_cache_fields = attrgetter(*_CACHE_NAMES)
_cache_counters = attrgetter(*_CACHE_COUNTERS)


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
        # One tuple of counters per run, summed column by column.
        merged = cls(**dict(zip(
            _SIMSTATS_COUNTERS, map(sum, zip(*map(_simstats_counters, runs))),
        )))
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

    def to_row(self) -> list:
        """Positional form, exactly invertible by :meth:`from_row`.

        The fields in dataclass order: scalar counters as-is, the cache
        sub-record as its own row (:meth:`CacheStats.to_row`) or
        ``None``, and the lifetime log, already one flat int array,
        copied so the row never aliases the live log; an unrecorded log
        stays ``None``. JSON-safe as long as every counter is an int.
        """
        row = list(_simstats_fields(self))
        if self.cache is not None:
            row[_CACHE_INDEX] = self.cache.to_row()
        if self.lifetimes is not None:
            row[_LIFETIMES_INDEX] = list(self.lifetimes)
        return row

    @classmethod
    def from_row(cls, row: list) -> "SimStats":
        """Inverse of :meth:`to_row`.

        Raises ``TypeError`` or ``ValueError`` unless *row*, its cache
        row and its miss counts have exactly the fields
        :meth:`to_row` writes: positional construction would otherwise
        fill missing trailing fields with their defaults. The lifetime
        log is kept as given, not copied: it is already the flat array
        :class:`SimStats` holds.
        """
        _check_row(row, _SIMSTATS_WIDTH, "SimStats")
        stats = cls(*row)
        if stats.cache is not None:
            stats.cache = CacheStats.from_row(stats.cache)
        lifetimes = stats.lifetimes
        if lifetimes is not None and type(lifetimes) is not list:
            raise TypeError(
                f"lifetimes is {type(lifetimes).__name__}, not list"
            )
        return stats

    def to_dict(self) -> dict:
        """Readable form: :meth:`to_row` keyed by field name.

        The cache sub-record becomes a plain dict (its miss counts a
        cause-keyed dict); an unrecorded lifetime log stays ``None``.
        """
        out = dict(zip(_SIMSTATS_NAMES, self.to_row()))
        if self.cache is not None:
            out["cache"] = self.cache.to_dict()
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
        # Pickle via the row form: plain data only, the same form the
        # result cache stores.
        return (_simstats_from_row, (self.to_row(),))


_SIMSTATS_NAMES = tuple(spec.name for spec in dataclasses.fields(SimStats))
_SIMSTATS_WIDTH = len(_SIMSTATS_NAMES)
_CACHE_INDEX = _SIMSTATS_NAMES.index("cache")
_LIFETIMES_INDEX = _SIMSTATS_NAMES.index("lifetimes")
#: The integer counters :meth:`SimStats.merge` adds.
_SIMSTATS_COUNTERS = tuple(
    name for name in _SIMSTATS_NAMES
    if name not in ("benchmark", "scheme", "cache", "lifetimes")
)
_simstats_fields = attrgetter(*_SIMSTATS_NAMES)
_simstats_counters = attrgetter(*_SIMSTATS_COUNTERS)


def _simstats_from_row(row: list) -> SimStats:
    """Module-level unpickling hook for :meth:`SimStats.__reduce__`."""
    return SimStats.from_row(row)
