"""Parallel experiment engine with content-addressed result caching.

Every figure and table of the reproduction reduces to simulating a grid
of ``(MachineConfig, trace)`` pairs. This module owns that execution:

* **Fan-out** — jobs run across a :class:`~concurrent.futures.
  ProcessPoolExecutor` when more than one worker is configured, with
  deterministic result ordering (results come back in job order no
  matter which worker finishes first) and graceful fallback to the
  serial in-process path when a pool cannot be created or breaks.
* **Memoization** — results are stored in a content-addressed on-disk
  cache keyed by the cache and stats schema versions, a fingerprint of
  the simulator source itself, the machine configuration's memoized
  :meth:`~repro.core.config.MachineConfig.config_hash`, and the trace
  provenance ``(kernel, scale, seed)``. Figures that share baseline
  configs (fig7/fig8/fig11/table2 all re-run the ``preg``/``monolithic``
  variants) hit the cache instead of re-simulating, and any edit to the
  simulator code automatically invalidates stale entries.
* **Decoded once per engine** — every result the engine loads from
  disk, or executes and validates, enters an in-process table keyed by
  its cache key, so each key is read and decoded at most once per
  engine (figures that share configs get them from memory). Entries are
  content-addressed and never rewritten with other content, so the
  table cannot go stale; a file corrupted after this engine decoded it
  is caught by the next process's load. Within one
  :meth:`ExperimentEngine.run` call a missing key executes at most
  once; its later slots take the first slot's outcome. A table hit is a
  cache hit in every counter and manifest record. Failures never enter
  the table, so a hole re-executes on the next run.
* **One attempt per job** — jobs are deterministic simulations, so a
  failure would only repeat: every job runs once and its outcome is
  final. A runaway job stops inside the simulator
  (``MachineConfig.max_cycles`` during timing, the VM's
  ``max_instructions`` during trace generation) and surfaces as an
  ``error``. A worker that dies breaks its pool; the jobs still in it
  rerun one per fresh pool, so only the job that killed its worker
  ends as a ``crash``. Recovery is a re-run: the result cache makes it
  execute only the holes.
* **Validation before caching** — every freshly executed result must
  pass the differential oracle's conservation invariants
  (:func:`repro.testing.oracle.validate_stats`), and the JSON text of
  its cache entry must decode back to an equal result, *before* it is
  returned or written to the result cache; that validated text is
  what the cache stores. A half-unwound worker can never publish a
  corrupted result, nor can a value that JSON would change.
* **One entry form** — a cache entry is the JSON array ``[key, row]``,
  ``row`` being :meth:`~repro.core.stats.SimStats.to_row`: decoded by
  position, checked for shape, never keyed by field name. The manifest's
  job records map each key to its trace and config.
* **Incremental publication** — results are cached and manifest
  records written as jobs finish, so re-running a sweep killed by
  SIGINT or a crash executes only the jobs whose results are not yet
  in the content-addressed cache.
* **Graceful degradation** — with ``raise_on_error=False`` a sweep
  with failed jobs returns partial results whose failed slots hold
  falsy :class:`JobFailure` records (explicit holes), and every
  failure is also appended to :attr:`ExperimentEngine.failure_log` so
  reports can render what is missing instead of the run raising.
* **Error capture** — a worker failure is captured per job (with its
  traceback) rather than poisoning the whole sweep; by default the
  first captured failure re-raises as
  :class:`~repro.errors.EngineError`.
* **One job path** — the serial and parallel paths run every job the
  same way (:func:`_execute_job`): resolve the trace, take its branch
  plan (:func:`~repro.frontend.fetch.branch_plan_for`, memoized on the
  trace, so one prediction pass per trace per process), simulate. No
  job is grouped with another, so a fault never reaches past its job.
* **Observability** — the engine counts jobs, cache hits/misses,
  errors, refused manifest writes, and per-job wall-clock (including
  p50/p95); it logs live progress through :mod:`repro.obs.log`; and
  every run appends per-job records — job identity, config hash, trace
  provenance, cache hit/miss, wall-clock, worker pid, failure
  traceback — to a JSONL manifest under the cache directory
  (:mod:`repro.obs.manifest`), closed by one ``run`` record of totals
  that is written even when the run is interrupted.

Environment knobs (read when the shared engine is created):

* ``REPRO_JOBS`` — worker count (``1``/unset = serial; ``0``/``auto``
  = one per CPU).
* ``REPRO_CACHE`` — set to ``0`` to disable the on-disk result cache
  and the trace factory's trace cache (see :mod:`repro.store`).
* ``REPRO_CACHE_DIR`` — cache location (default ``.repro-cache``); the
  trace cache lives in its ``traces/`` directory.
* ``REPRO_MANIFEST`` — ``0`` disables run manifests; a path overrides
  the default ``<cache_dir>/manifest.jsonl``.
* ``REPRO_LOG_LEVEL`` — progress/diagnostic logging level (the engine
  logs at INFO).

A parallel run loads and decodes its jobs' traces before the pool
forks, so workers neither re-execute the VM nor decode.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import time
import traceback
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import BrokenExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

from repro import store
from repro.core.config import MachineConfig
from repro.core.stats import STATS_SCHEMA_VERSION, SimStats
from repro.errors import EngineError
from repro.obs.log import ProgressReporter, get_logger
from repro.obs.manifest import (
    ManifestWriter,
    manifest_path_for,
    percentile,
)
from repro.testing import oracle
from repro.vm.trace import Trace
from repro.workloads.suite import load_trace, trace_counters

_log = get_logger("engine")

#: This module, through which jobs reach the lazily loaded timing core.
_engine = sys.modules[__name__]


def __getattr__(name: str):
    # ``Pipeline`` and ``branch_plan_for`` load on first use, so a run
    # served from the result cache never imports the timing core. Bound
    # once loaded, they stay plain module attributes that tests and
    # perfbench rebind.
    if name == "Pipeline":
        from repro.core.pipeline import Pipeline as value
    elif name == "branch_plan_for":
        from repro.frontend.fetch import branch_plan_for as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value

#: Bump to invalidate every cached result regardless of code changes
#: (e.g. when the cache file layout or the job-key layout changes).
CACHE_SCHEMA_VERSION = 3

#: Sources that cannot change a result (this package only reports on
#: them); every other source's edit retires the cached results.
_REPORTING_SOURCES = ("analysis",)


# ----------------------------------------------------------------------
# Job model.


@dataclass(frozen=True)
class SimJob:
    """One simulation request: a machine configuration applied to a trace.

    Jobs normally reference a suite trace by ``(trace_name, scale,
    seed)`` provenance so workers can re-derive it locally (trace
    loading is memoized per process) and results are cacheable. A job
    may instead embed an explicit :class:`Trace` — such jobs still run
    (in parallel too; the trace is pickled to the worker) but bypass
    the on-disk cache because their content has no stable identity.
    """

    config: MachineConfig
    trace_name: str = ""
    scale: float = 1.0
    seed: int | None = None
    trace: Trace | None = None
    label: str = ""

    @classmethod
    def for_trace(
        cls, trace: Trace, config: MachineConfig, label: str = ""
    ) -> "SimJob":
        """Build a job from an in-memory trace, using provenance if any."""
        provenance = getattr(trace, "provenance", None)
        name = label or trace.name
        if provenance is not None:
            kernel, scale, seed = provenance
            return cls(
                config=config, trace_name=kernel, scale=scale, seed=seed,
                label=name,
            )
        return cls(config=config, trace_name=trace.name, trace=trace,
                   label=name)

    @property
    def cacheable(self) -> bool:
        """True when the job's result can live in the on-disk cache."""
        return self.trace is None and bool(self.trace_name)

    def describe(self) -> str:
        """Human-readable job name: trace, scheme and a config-hash prefix.

        The hash prefix tells apart configs that share a storage scheme
        (``lru``, ``non_bypass`` and ``use_based`` are all
        ``register_cache``) in logs, failures and manifest records.
        """
        name = self.label or self.trace_name or "<trace>"
        return f"{name}[{self.config.storage}:{self.config.config_hash()[:8]}]"

    def resolve_trace(self) -> Trace:
        """The trace to simulate (loading by provenance if needed)."""
        if self.trace is not None:
            return self.trace
        return load_trace(self.trace_name, scale=self.scale, seed=self.seed)

    def cache_key(self) -> str:
        """Content-addressed identity of this job's result.

        The SHA-256 of a ``:``-joined string. The config enters through
        its memoized :meth:`~repro.core.config.MachineConfig.config_hash`,
        so the jobs of one config share a single canonical encoding of
        it. Every part but the trace name has a fixed character set
        without ``:``; the name comes last, so the layout stays
        unambiguous whatever it holds.
        """
        payload = (
            f"{CACHE_SCHEMA_VERSION}:{STATS_SCHEMA_VERSION}"
            f":{store.fingerprint(exclude=_REPORTING_SOURCES)}"
            f":{self.config.config_hash()}"
            f":{float(self.scale)!r}:{self.seed}:{self.trace_name}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class JobFailure:
    """Captured failure of one job (kept instead of a SimStats).

    ``kind`` distinguishes how the job died: ``error`` (exception in
    the simulator), ``crash`` (its pool worker died), ``invalid``
    (result rejected by the oracle's conservation invariants or its
    cache entry's round trip).
    """

    job: SimJob
    error: str
    kind: str = "error"

    def __bool__(self) -> bool:  # failed jobs are falsy result slots
        return False


# ----------------------------------------------------------------------
# Worker shim.


def _execute_job(job: SimJob) -> tuple[str, object, float, int | None]:
    """Run one job, capturing any exception it raises.

    Returns ``(status, payload, wall_seconds, worker_pid)`` where
    *status* is ``ok`` (payload = SimStats) or ``error`` (payload =
    traceback text); a ``crash`` is found by the pool, not here. Runs
    in worker processes, so it must stay module-level (picklable by
    reference).

    The job resolves its trace (memoized per process), takes the
    trace's branch plan (:func:`branch_plan_for`, computed by the first
    job on that trace in this process and reused by every later one),
    then simulates.
    """
    start = time.perf_counter()
    pid = os.getpid()
    try:
        trace = job.resolve_trace()
        # Memoized on the trace: the prediction pass is a step of its
        # own, not a hidden part of Pipeline construction.
        _engine.branch_plan_for(trace)
        stats = _engine.Pipeline(trace, job.config).run()
        return ("ok", stats, time.perf_counter() - start, pid)
    except Exception:
        return (
            "error", traceback.format_exc(), time.perf_counter() - start, pid,
        )


# ----------------------------------------------------------------------
# Observability counters.


def _wall_summary(walls: list[float]) -> dict[str, float]:
    """Max and p50/p95 of job wall-clocks (all 0 when *walls* is empty)."""
    return {
        "max_job_seconds": round(max(walls, default=0.0), 6),
        "job_seconds_p50": round(percentile(walls, 0.50), 6),
        "job_seconds_p95": round(percentile(walls, 0.95), 6),
    }


@dataclass
class EngineCounters:
    """Cumulative engine activity, cheap to snapshot and diff."""

    jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    errors: int = 0
    parallel_jobs: int = 0
    serial_fallbacks: int = 0
    job_seconds: float = 0.0
    engine_seconds: float = 0.0
    #: Manifest writes the filesystem refused (the run goes on).
    manifest_write_failures: int = 0
    #: Wall-clock of every executed job, in execution order, for the
    #: max and percentiles (``executed`` indexes the next one).
    job_walls: list[float] = field(default_factory=list, repr=False)

    def record_job(self, wall: float) -> None:
        """Fold one executed job's wall-clock into the aggregates."""
        self.executed += 1
        self.job_seconds += wall
        self.job_walls.append(wall)

    def snapshot(self) -> dict[str, float]:
        return {
            "jobs": self.jobs,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "errors": self.errors,
            "parallel_jobs": self.parallel_jobs,
            "serial_fallbacks": self.serial_fallbacks,
            "job_seconds": round(self.job_seconds, 6),
            **_wall_summary(self.job_walls),
            "engine_seconds": round(self.engine_seconds, 6),
            "manifest_write_failures": self.manifest_write_failures,
        }

    def since(self, before: dict[str, float]) -> dict[str, float]:
        """Delta of the counters since a snapshot.

        The max and percentiles summarize only the jobs executed since
        *before* (0 when none ran), not every job this engine ran.
        """
        now = self.snapshot()
        delta = {key: round(now[key] - before.get(key, 0), 6) for key in now}
        delta.update(
            _wall_summary(self.job_walls[int(before.get("executed", 0)):])
        )
        return delta


# ----------------------------------------------------------------------
# The engine.


class ExperimentEngine:
    """Executes lists of :class:`SimJob` with fan-out and memoization.

    Args:
        workers: worker count for :meth:`run`; ``None`` reads
            ``REPRO_JOBS`` (unset = 1, i.e. serial), ``0`` means one
            worker per CPU.
        cache_dir: on-disk result cache location; ``None`` reads
            ``REPRO_CACHE_DIR`` (default ``.repro-cache``).
        use_cache: disable to always re-simulate; ``None`` reads
            ``REPRO_CACHE`` (anything but ``0``/``false`` enables).
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        use_cache: bool | None = None,
    ) -> None:
        if workers is None:
            workers = _parse_jobs()
        if workers <= 0:  # 0 / "auto" = one worker per CPU
            workers = os.cpu_count() or 1
        self.workers = workers
        if use_cache is None:
            use_cache = store.enabled()
        self.use_cache = use_cache
        if cache_dir is None:
            cache_dir = store.cache_dir()
        self.cache_dir = Path(cache_dir)
        self.counters = EngineCounters()
        #: Cache key -> result, for every result this engine loaded from
        #: disk or executed and validated (``None`` without the cache).
        #: Entries are content-addressed, so one never goes stale;
        #: failures never enter, so a hole re-executes on the next run.
        self._table: dict[str, SimStats] | None = {} if use_cache else None
        #: Every JobFailure this engine has returned (graceful-degradation
        #: consumers read the tail to report holes).
        self.failure_log: list[JobFailure] = []
        manifest_path = manifest_path_for(self.cache_dir)
        self.manifest: ManifestWriter | None = (
            None if manifest_path is None else ManifestWriter(manifest_path)
        )

    # ------------------------------------------------------------------
    # Public API.

    def run(
        self,
        jobs: Iterable[SimJob],
        *,
        raise_on_error: bool = True,
    ) -> list[SimStats | JobFailure]:
        """Execute *jobs*, returning results in job order.

        Cached results are served from the engine's table or loaded
        from disk without simulating; the remainder run once each,
        serially or across a process pool. Every fresh
        result is validated before it is cached. Results and manifest
        records are published incrementally as jobs finish, so
        re-running an interrupted or partly failed sweep executes only
        the jobs it never finished.
        With ``raise_on_error`` (the default) the first captured
        failure re-raises as :class:`EngineError`; otherwise failed
        slots hold falsy :class:`JobFailure` records and the sweep
        degrades to partial results.
        """
        start = time.perf_counter()
        jobs = list(jobs)
        counters = self.counters
        counters.jobs += len(jobs)
        results: list[SimStats | JobFailure | None] = [None] * len(jobs)
        run_id = os.urandom(6).hex()
        keys = [job.cache_key() if job.cacheable else None for job in jobs]
        refused_before = self.manifest.write_failures if self.manifest else 0

        prelude: list[dict] = []
        pending: list[int] = []
        # Each key is decoded from disk at most once per engine: the
        # table serves every later slot and call. A key missing from
        # disk executes once per call; its later slots in this call wait
        # for that slot's outcome (``executing`` maps key -> the slot).
        table = self._table
        executing: dict[str, int] = {}
        waiting: list[tuple[int, int]] = []
        hits = 0
        for index, job in enumerate(jobs):
            key = keys[index]
            if table is not None and key is not None:
                cached = table.get(key)
                if cached is None:
                    if key in executing:
                        waiting.append((index, executing[key]))
                        continue
                    cached = self._cache_load(job, key=key)
                    if cached is None:
                        executing[key] = index
                        counters.cache_misses += 1
                        pending.append(index)
                        continue
                    table[key] = cached
                hits += 1
                results[index] = cached
                if self.manifest is not None:
                    prelude.append(
                        self._manifest_record(
                            run_id, job, key, cached=True,
                            status="ok", wall=0.0, worker=None,
                        )
                    )
                continue
            pending.append(index)
        counters.cache_hits += hits

        workers = max(1, min(self.workers, len(pending))) if pending else 0
        _log.info(
            "run %s: %d jobs (%d cached, %d to execute, %d workers)",
            run_id, len(jobs), hits, len(pending), workers,
        )
        if self.manifest is not None:
            self.manifest.append_all(prelude)

        failures: list[JobFailure] = []
        executed = 0
        repairs_before = trace_counters().repairs
        try:
            if pending:
                pending_jobs = [jobs[index] for index in pending]
                hit_rate = (
                    f"{counters.cache_hits}/{counters.jobs}"
                    if counters.jobs else "0/0"
                )
                progress = ProgressReporter(
                    total=len(pending), logger=_log,
                    label=f"run {run_id}",
                )
                outcomes = self._execute_pending(pending_jobs, workers, progress)
                for local_index, outcome in outcomes:
                    index = pending[local_index]
                    job = jobs[index]
                    status, payload, wall, worker = outcome
                    executed += 1
                    counters.record_job(wall)
                    if status == "ok":
                        entry, problem = self._validate_result(payload, keys[index])
                        if problem is not None:
                            status, payload = "invalid", problem
                    if status == "ok":
                        if table is not None and keys[index] is not None:
                            table[keys[index]] = payload
                            self._cache_store(keys[index], entry)
                        results[index] = payload
                        error = None
                    else:
                        counters.errors += 1
                        failure = JobFailure(job=job, error=payload, kind=status)
                        failures.append(failure)
                        results[index] = failure
                        error = payload
                        _log.warning(
                            "run %s: job %s failed (%s) on worker %s",
                            run_id, job.describe(), status, worker,
                        )
                    if self.manifest is not None:
                        self.manifest.append(
                            self._manifest_record(
                                run_id, job, keys[index], cached=False,
                                status=status, wall=wall, worker=worker,
                                error=error,
                            )
                        )
                _log.info(
                    "run %s: done, cumulative cache hits %s, errors %d",
                    run_id, hit_rate, len(failures),
                )

            # Slots whose key an earlier slot of this call executed: a
            # result is the cache hit a later call would have had, a failure
            # is the same hole (nothing was cached, so it would have re-run).
            for index, first in waiting:
                job, outcome = jobs[index], results[first]
                if outcome:
                    hits += 1
                    counters.cache_hits += 1
                    record = self._manifest_record(
                        run_id, job, keys[index], cached=True,
                        status="ok", wall=0.0, worker=None,
                    )
                else:
                    counters.cache_misses += 1
                    counters.errors += 1
                    failures.append(outcome)
                    record = self._manifest_record(
                        run_id, job, keys[index], cached=False,
                        status=outcome.kind, wall=0.0, worker=None,
                        error=outcome.error,
                    )
                results[index] = outcome
                if self.manifest is not None:
                    self.manifest.append(record)
        finally:
            # An interrupted run still counts its time and closes its
            # manifest with the totals of the jobs it finished.
            engine_wall = time.perf_counter() - start
            counters.engine_seconds += engine_wall
            if self.manifest is not None and jobs:
                refused = self.manifest.write_failures - refused_before
                self.manifest.append({
                    "kind": "run",
                    "run": run_id,
                    "ts": round(time.time(), 3),
                    "jobs": len(jobs),
                    "cached": hits,
                    "executed": executed,
                    "errors": len(failures),
                    "workers": self.workers,
                    "engine_seconds": round(engine_wall, 6),
                    "trace_cache_repairs": (
                        trace_counters().repairs - repairs_before
                    ),
                    "manifest_write_failures": refused,
                })
                counters.manifest_write_failures += (
                    self.manifest.write_failures - refused_before
                )
        self.failure_log.extend(failures)
        if failures and raise_on_error:
            first = failures[0]
            raise EngineError(
                f"{len(failures)} of {len(jobs)} jobs failed; first: "
                f"{first.job.describe()}\n{first.error}"
            )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Observability: manifest records.

    def _manifest_record(
        self,
        run_id: str,
        job: SimJob,
        key: str | None,
        *,
        cached: bool,
        status: str,
        wall: float,
        worker: int | None,
        error: str | None = None,
    ) -> dict:
        record = {
            "kind": "job",
            "run": run_id,
            "ts": round(time.time(), 3),
            "job": job.describe(),
            "trace": [job.trace_name, float(job.scale), job.seed],
            "config_hash": job.config.config_hash(),
            "key": key,
            "cached": cached,
            "status": status,
            "wall": round(wall, 6),
            "worker": worker,
        }
        if error is not None:
            record["error"] = error
        return record

    # ------------------------------------------------------------------
    # Execution strategies.

    def _validate_result(
        self, stats: object, key: str | None,
    ) -> tuple[bytes | None, str | None]:
        """Reject a result the oracle or the result cache cannot vouch for.

        Runs on every freshly executed result *before* it is cached or
        returned — the fix for results that used to be published even
        when post-processing later raised. Returns ``(entry, problem)``,
        exactly one of them ``None``: *entry* is the cache entry's JSON
        bytes, already decoded here and found equal to *stats*, which
        :meth:`_cache_store` writes as it is.
        """
        if not isinstance(stats, SimStats):
            return None, f"worker returned {type(stats).__name__}, not SimStats"
        violations = oracle.validate_stats(stats)
        if violations:
            return None, "result failed invariants: " + "; ".join(violations)
        try:
            entry = _encode_entry(key, stats)
            changed = _decode_entry(entry, key) != stats
        except Exception:
            return None, (
                "result failed serialization round-trip:\n"
                + traceback.format_exc()
            )
        if changed:
            return None, "result changed in its JSON round-trip"
        return entry, None

    def _execute_pending(
        self,
        jobs: Sequence[SimJob],
        workers: int,
        progress: ProgressReporter | None = None,
    ) -> Iterator[tuple[int, tuple[str, object, float, int | None]]]:
        """Yield ``(local_index, outcome)`` as *jobs* finish.

        Streaming (rather than returning the jobs as a batch) means an
        interrupt mid-sweep loses no finished job: each has already been
        folded into results, cache, and manifest by the consumer. If
        the parallel path dies after partially yielding, only the jobs
        it never reported are re-run serially.
        """
        done = [False] * len(jobs)
        if workers > 1 and len(jobs) > 1:
            try:
                for index, outcome in self._execute_parallel(
                    jobs, workers, progress,
                ):
                    done[index] = True
                    yield index, outcome
                return
            except (OSError, RuntimeError, pickle.PicklingError, EOFError):
                # Pool creation or transport failed (sandboxed platform,
                # broken worker, unpicklable payload): fall back serial.
                self.counters.serial_fallbacks += 1
        pending = [i for i in range(len(jobs)) if not done[i]]
        for local, outcome in self._execute_serial(
            [jobs[i] for i in pending], progress,
        ):
            yield pending[local], outcome

    def _execute_serial(
        self,
        jobs: Sequence[SimJob],
        progress: ProgressReporter | None = None,
    ) -> Iterator[tuple[int, tuple[str, object, float, int | None]]]:
        for index, job in enumerate(jobs):
            outcome = _execute_job(job)
            if progress is not None:
                progress.update()
            yield index, outcome

    def _execute_parallel(
        self,
        jobs: Sequence[SimJob],
        workers: int,
        progress: ProgressReporter | None = None,
    ) -> Iterator[tuple[int, tuple[str, object, float, int | None]]]:
        """Yield ``(index, outcome)`` as pool workers finish *jobs*.

        A worker that dies breaks the whole pool and fails every job
        still in it. Those jobs rerun one at a time, each in a fresh
        one-worker pool, so only the job that kills its own worker ends
        as a ``crash``: a crash costs the rest of the sweep its
        parallelism, not its results.
        """
        # Imported here, not at module level: a serial process never
        # loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # Load the timing core and every job's trace (generated or
        # decoded) before the pool forks, so forked workers inherit both
        # instead of each compiling the one and loading the other.
        for name in ("Pipeline", "branch_plan_for"):
            getattr(_engine, name)
        for job in jobs:
            try:
                job.resolve_trace().records
            except Exception:
                pass  # the job reports it with a traceback
        broken: list[int] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_execute_job, job): index
                for index, job in enumerate(jobs)
            }
            # Yield in completion order so progress (and its ETA) is
            # live; the caller re-maps indices.
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outcome = future.result()
                except Exception as error:
                    if isinstance(error, BrokenExecutor) and len(jobs) > 1:
                        broken.append(index)
                        continue
                    outcome = ("crash", traceback.format_exc(), 0.0, None)
                if progress is not None:
                    progress.update()
                self.counters.parallel_jobs += 1
                yield index, outcome
        for index in broken:
            for _, outcome in self._execute_parallel([jobs[index]], 1, progress):
                yield index, outcome

    # ------------------------------------------------------------------
    # On-disk result cache.

    def _cache_load(self, job: SimJob, key: str | None = None) -> \
            SimStats | None:
        """Load a cached result; any corruption, staleness or entry of
        another shape is a miss."""
        if key is None:
            key = job.cache_key()
        data = store.read(self.cache_dir, key, ".json")
        if data is None:
            return None
        try:
            return _decode_entry(data, key)
        except (TypeError, ValueError):
            return None

    def _cache_store(self, key: str, entry: bytes) -> None:
        """Publish *entry*, the bytes :meth:`_validate_result` checked,
        as the cached result for *key*."""
        store.write(self.cache_dir, key, ".json", entry)


def _encode_entry(key: str | None, stats: SimStats) -> bytes:
    """The result-cache entry for *stats* under *key*: ``[key, row]``."""
    return json.dumps([key, stats.to_row()]).encode()


def _decode_entry(entry: bytes, key: str | None) -> SimStats:
    """Inverse of :func:`_encode_entry`.

    Raises ``ValueError`` or ``TypeError`` on bytes that are not JSON, an
    entry of another shape, a key other than *key*, or a row
    :meth:`SimStats.from_row` rejects.
    """
    data = json.loads(entry)
    if type(data) is not list or len(data) != 2:
        raise ValueError("a result entry is a [key, row] pair")
    if data[0] != key:
        raise ValueError(f"entry is keyed {data[0]!r}, not {key!r}")
    return SimStats.from_row(data[1])


# ----------------------------------------------------------------------
# Shared engine instance.

_shared_engine: ExperimentEngine | None = None


def _env_number(knob: str, parse, default, expected: str):
    """Numeric knob *knob*: unset means *default*, a typo raises."""
    raw = os.environ.get(knob)
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{knob}={raw!r}: expected {expected}") from None


def _parse_jobs() -> int:
    """``REPRO_JOBS``: unset = 1 (serial), ``0``/``auto`` = 0 (per CPU)."""
    raw = os.environ.get("REPRO_JOBS")
    if raw and raw.strip().lower() == "auto":
        return 0
    return _env_number("REPRO_JOBS", int, 1, "a worker count or 'auto'")


def get_engine() -> ExperimentEngine:
    """The process-wide engine used by sweeps and experiments."""
    global _shared_engine
    if _shared_engine is None:
        _shared_engine = ExperimentEngine()
    return _shared_engine


def configure(
    workers: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool | None = None,
) -> ExperimentEngine:
    """Replace the shared engine (tests, benchmarks, notebooks).

    Arguments left as ``None`` fall back to the environment knobs, so
    ``configure()`` with no arguments resets to the default setup.
    """
    global _shared_engine
    _shared_engine = ExperimentEngine(
        workers=workers, cache_dir=cache_dir, use_cache=use_cache,
    )
    return _shared_engine
