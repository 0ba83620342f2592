"""Spans around the public calls into each layer, and the per-layer metrics.

The benchmark measures layers from outside the program: :func:`install`
replaces the public names that callers bind (``repro.analysis.engine.
Pipeline``, ``repro.analysis.engine.branch_plan_for``,
``repro.workloads.suite.run_program`` and so on) with wrappers that record
a span around each call. A span is ``[name, start, end, parent]`` with
``parent`` the index of the enclosing span (``-1`` for a root). Spans stay
in memory; the repetition writes them out when it ends.

Self time is a span's duration minus the durations of its direct children.
Only the process that installed the wrappers records spans, so a pool
worker's simulations are invisible here; the engine's counters and run
manifest cover them.
"""

from __future__ import annotations

import dataclasses
import functools
import time

#: Register-cache schemes by (insertion, replacement); any other
#: register-cache config (the default and its ablations) is use-based.
_CACHE_SCHEMES = {("always", "lru"): "lru", ("non_bypass", "lru"): "non_bypass"}

#: Scheme labels reported as ``pipeline.run_s.<scheme>``.
SCHEMES = ("lru", "non_bypass", "use_based", "two_level", "monolithic")

#: The simulated counts reported as ``sim.<name>``.
SIM_COUNTS = (
    "retired", "cycles", "rc_reads", "rc_misses", "rf_reads",
    "branch_mispredicts", "predictor_queries", "tl_recovery_stalls",
)


def scheme_of(config) -> str:
    """The paper's scheme label for a machine configuration."""
    if config.storage != "register_cache":
        return config.storage
    return _CACHE_SCHEMES.get(
        (config.insertion, config.replacement), "use_based",
    )


class Tracer:
    """In-memory span recorder plus the records the spans cannot carry."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.paused = False
        #: ``(kernel, scheme, run_seconds, retired)`` per simulated job.
        self.job_runs: list[tuple[str, str, float, int]] = []
        #: ``(trace, stats)`` of jobs simulated since the last oracle check.
        self.unchecked: list[tuple[object, object]] = []
        #: ``SimStats.merge`` of every result the engine returned.
        self.merged = None

    def begin(self, name: str) -> int:
        if self.paused:
            return -1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span *index*; returns its duration."""
        if index < 0:
            return 0.0
        record = self.spans[index]
        record[2] = time.perf_counter()
        self._stack.pop()
        return record[2] - record[1]

    def wrap(self, fn, name: str):
        """*fn* with every call recorded as a span called *name*."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def fold_results(self, results) -> None:
        """Add the counters of engine results into :attr:`merged`."""
        from repro.core.stats import SimStats

        runs = [
            dataclasses.replace(stats, lifetimes=[])
            for stats in results if isinstance(stats, SimStats)
        ]
        if self.merged is not None:
            runs.append(self.merged)
        self.merged = SimStats.merge(runs)


def install(tracer: Tracer) -> None:
    """Wrap the public names each layer's callers bind."""
    import repro.analysis.engine as engine
    import repro.analysis.experiments as experiments
    import repro.analysis.sweeps as sweeps
    import repro.testing.oracle as oracle
    import repro.workloads.suite as suite
    from repro.core.stats import SimStats
    from repro.obs.manifest import ManifestWriter
    from repro.vm.trace import Trace

    # Trace factory. One wrapper serves every name load_trace is bound to.
    load_trace = tracer.wrap(suite.load_trace, "trace.load")
    suite.load_trace = engine.load_trace = sweeps.load_trace = load_trace
    suite.run_program = tracer.wrap(suite.run_program, "trace.vm")
    suite.pack_trace = tracer.wrap(suite.pack_trace, "trace.pack")
    suite.unpack_trace = tracer.wrap(suite.unpack_trace, "trace.unpack")
    Trace.analysis = tracer.wrap(Trace.analysis, "trace.analysis")

    # Front end and timing core, as the engine binds them.
    engine.branch_plan_for = tracer.wrap(engine.branch_plan_for, "frontend.plan")
    base = engine.Pipeline

    class TracedPipeline(base):
        def __init__(self, trace, config, **kwargs):
            index = tracer.begin("pipeline.init")
            try:
                super().__init__(trace, config, **kwargs)
            finally:
                tracer.end(index)

        def run(self):
            index = tracer.begin("pipeline.run")
            try:
                stats = super().run()
            finally:
                seconds = tracer.end(index)
            provenance = getattr(self.trace, "provenance", None)
            kernel = provenance[0] if provenance else self.trace.name
            tracer.job_runs.append(
                (kernel, scheme_of(self.config), seconds, stats.retired),
            )
            tracer.unchecked.append((self.trace, stats))
            return stats

    engine.Pipeline = TracedPipeline

    # Oracle, stats serialization, engine and manifest.
    oracle.validate_stats = tracer.wrap(oracle.validate_stats, "oracle.validate")
    SimStats.to_dict = tracer.wrap(SimStats.to_dict, "stats.to_dict")
    SimStats.from_dict = classmethod(
        tracer.wrap(SimStats.from_dict.__func__, "stats.from_dict"),
    )
    run = engine.ExperimentEngine.run

    @functools.wraps(run)
    def engine_run(self, jobs, **kwargs):
        index = tracer.begin("engine.run")
        try:
            results = run(self, jobs, **kwargs)
        finally:
            tracer.end(index)
        tracer.fold_results(results)
        return results

    engine.ExperimentEngine.run = engine_run
    ManifestWriter.append = tracer.wrap(ManifestWriter.append, "obs.manifest")
    ManifestWriter.append_all = tracer.wrap(
        ManifestWriter.append_all, "obs.manifest",
    )

    # Figure aggregation and rendering, as the experiment registry binds them.
    experiments.aggregate_cache_metrics = tracer.wrap(
        experiments.aggregate_cache_metrics, "analysis.aggregate",
    )
    experiments.mean_ipc = tracer.wrap(experiments.mean_ipc, "analysis.aggregate")
    experiments.render = tracer.wrap(experiments.render, "report.render")


# ----------------------------------------------------------------------
# From spans to metrics.


def _child_time(spans: list[list]) -> list[float]:
    """Per span: the summed durations of its direct children."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def span_totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: total duration, call count and total self time."""
    child_time = _child_time(spans)
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start)
        counts[name] = counts.get(name, 0) + 1
        self_time[name] = (
            self_time.get(name, 0.0) + (end - start) - child_time[index]
        )
    return totals, counts, self_time


def self_time_within(spans: list[list], start: float, end: float) -> float:
    """Summed self time of every span that began inside ``[start, end]``."""
    total = 0.0
    child_time = _child_time(spans)
    for index, (_name, begin, finish, _parent) in enumerate(spans):
        if start <= begin <= end:
            total += (finish - begin) - child_time[index]
    return total


def _percentile_ms(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of seconds *values*, in milliseconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(fraction * len(ordered)) - 1))
    return ordered[rank] * 1000.0


def per_layer_names(kernels, experiment_ids) -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [
        "trace.vm_s", "trace.analysis_s", "trace.pack_s", "trace.unpack_s",
        "trace.load_s", "trace.generated", "trace.loaded", "trace.insts",
        "frontend.plan_s", "frontend.plans", "frontend.jobs_per_plan",
        "pipeline.init_s", "pipeline.run_s", "pipeline.run_ms.p50",
        "pipeline.run_ms.p98", "pipeline.us_per_inst",
    ]
    names += [f"pipeline.us_per_inst.{kernel}" for kernel in kernels]
    names += [f"pipeline.run_s.{scheme}" for scheme in SCHEMES]
    names += [f"sim.{count}" for count in SIM_COUNTS]
    names += [
        "oracle.validate_s", "oracle.calls",
        "stats.to_dict_s", "stats.from_dict_s", "stats.calls",
        "stats.result_kb",
        "engine.run_s", "engine.self_s", "engine.jobs", "engine.executed",
        "engine.cache_hit_ratio", "engine.serial_fallbacks",
        "engine.worker_busy_ratio",
        "obs.manifest_s", "obs.manifest_bytes",
    ]
    names += [f"fig.{experiment}.wall_s" for experiment in experiment_ids]
    names += ["analysis.aggregate_s", "report.render_s",
              "bench.trace_overhead_ratio"]
    return names


def unit_of(name: str) -> str:
    """The unit of per-layer metric *name*."""
    if name.startswith("pipeline.run_ms."):
        return "ms"
    if name.startswith("pipeline.us_per_inst"):
        return "us/inst"
    if name.endswith("_s") or ".run_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "frontend.jobs_per_plan":
        return "jobs/plan"
    if name == "stats.result_kb":
        return "KB"
    if name == "obs.manifest_bytes":
        return "bytes"
    return "count"


def _sim_counts(merged) -> dict[str, int]:
    if merged is None:
        return {count: 0 for count in SIM_COUNTS}
    cache = merged.cache
    return {
        "retired": merged.retired,
        "cycles": merged.cycles,
        "rc_reads": cache.reads if cache is not None else 0,
        "rc_misses": cache.miss_count if cache is not None else 0,
        "rf_reads": merged.rf_reads,
        "branch_mispredicts": merged.branch_mispredicts,
        "predictor_queries": merged.predictor_queries,
        "tl_recovery_stalls": merged.tl_recovery_stalls,
    }


def layer_metrics(
    tracer: Tracer,
    *,
    kernels,
    experiment_ids,
    counters: dict,
    trace_counts: dict,
    trace_insts: int,
    workers: int,
    busy_seconds: float,
    wall_seconds: float,
    result_bytes: int,
    manifest_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead_ratio``."""
    totals, counts, self_time = span_totals(tracer.spans)
    jobs = counters["jobs"]
    executed = counters["executed"]
    plans = counts.get("frontend.plan", 0)
    run_seconds = totals.get("pipeline.run", 0.0)
    retired = sum(run[3] for run in tracer.job_runs)
    out: dict[str, float] = {
        "trace.vm_s": totals.get("trace.vm", 0.0),
        "trace.analysis_s": totals.get("trace.analysis", 0.0),
        "trace.pack_s": totals.get("trace.pack", 0.0),
        "trace.unpack_s": totals.get("trace.unpack", 0.0),
        "trace.load_s": totals.get("trace.load", 0.0),
        "trace.generated": trace_counts["generated"],
        "trace.loaded": trace_counts["loaded"],
        "trace.insts": trace_insts,
        "frontend.plan_s": totals.get("frontend.plan", 0.0),
        "frontend.plans": plans,
        "frontend.jobs_per_plan": executed / plans if plans else 0.0,
        "pipeline.init_s": totals.get("pipeline.init", 0.0),
        "pipeline.run_s": run_seconds,
        "pipeline.run_ms.p50": _percentile_ms(
            [run[2] for run in tracer.job_runs], 0.50),
        "pipeline.run_ms.p98": _percentile_ms(
            [run[2] for run in tracer.job_runs], 0.98),
        "pipeline.us_per_inst": (
            run_seconds / retired * 1e6 if retired else 0.0
        ),
    }
    for kernel in kernels:
        runs = [run for run in tracer.job_runs if run[0] == kernel]
        insts = sum(run[3] for run in runs)
        out[f"pipeline.us_per_inst.{kernel}"] = (
            sum(run[2] for run in runs) / insts * 1e6 if insts else 0.0
        )
    for scheme in SCHEMES:
        out[f"pipeline.run_s.{scheme}"] = sum(
            run[2] for run in tracer.job_runs if run[1] == scheme
        )
    for count, value in _sim_counts(tracer.merged).items():
        out[f"sim.{count}"] = value
    out.update({
        "oracle.validate_s": totals.get("oracle.validate", 0.0),
        "oracle.calls": counts.get("oracle.validate", 0),
        "stats.to_dict_s": totals.get("stats.to_dict", 0.0),
        "stats.from_dict_s": totals.get("stats.from_dict", 0.0),
        "stats.calls": (
            counts.get("stats.to_dict", 0) + counts.get("stats.from_dict", 0)
        ),
        "stats.result_kb": result_bytes / 1024.0,
        "engine.run_s": totals.get("engine.run", 0.0),
        "engine.self_s": self_time.get("engine.run", 0.0),
        "engine.jobs": jobs,
        "engine.executed": executed,
        "engine.cache_hit_ratio": counters["cache_hits"] / jobs if jobs else 0.0,
        "engine.serial_fallbacks": counters["serial_fallbacks"],
        "engine.worker_busy_ratio": (
            busy_seconds / (workers * wall_seconds) if wall_seconds else 0.0
        ),
        "obs.manifest_s": totals.get("obs.manifest", 0.0),
        "obs.manifest_bytes": manifest_bytes,
    })
    for experiment in experiment_ids:
        out[f"fig.{experiment}.wall_s"] = totals.get(f"fig.{experiment}", 0.0)
    out["analysis.aggregate_s"] = totals.get("analysis.aggregate", 0.0)
    out["report.render_s"] = totals.get("report.render", 0.0)
    return out
