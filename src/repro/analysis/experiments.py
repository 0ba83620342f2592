"""One entry point per table and figure of the paper.

Each ``fig*``/``table*``/``tuning*`` function regenerates the data behind
the corresponding artifact of Butts & Sohi (ISCA 2004) on the synthetic
suite, returning an :class:`~repro.analysis.report.ExperimentResult`.

Environment knobs (read once at call time, not import time):

* ``REPRO_SCALE`` — workload scale factor (default 0.3). Larger values
  lengthen every benchmark trace proportionally.
* ``REPRO_SUITE`` — ``full`` (default) or ``short`` (four benchmarks,
  for quick sweeps).

Run from the command line::

    python -m repro.analysis.experiments fig8 table2
    python -m repro.analysis.experiments all

The CLI checks every result against the paper's qualitative shapes
(:mod:`repro.analysis.claims`) and exits 4 when one breaks.
"""

from __future__ import annotations

import functools
import os
import sys
import traceback
from collections.abc import Iterable

from repro.analysis.engine import get_engine
from repro.analysis.metrics import aggregate_cache_metrics
from repro.analysis.report import ExperimentResult, render
from repro.analysis.sweeps import load_traces, run_config, sweep
from repro.core.config import (
    MachineConfig,
    lru_config,
    monolithic_config,
    non_bypass_config,
    two_level_config,
    use_based_config,
)
from repro.core.lifetimes import (
    allocated_cdf,
    concatenate_records,
    live_cdf,
    mean_phase_summary,
    phase_summary,
)
from repro.core.simulator import mean_ipc
from repro.workloads.suite import DEFAULT_SUITE, SHORT_SUITE, trace_counters


def _with_engine_meta(fn):
    """Record engine activity (jobs, cache hits, wall-clock) in meta.

    Wraps an experiment function so its :class:`ExperimentResult`
    carries a ``meta["engine"]`` dict with the shared engine's counter
    deltas for that experiment — the engine note :func:`render` prints
    under each table — and, when any jobs failed, a ``meta["failures"]``
    list describing the holes (sweeps degrade to partial results instead
    of raising; the CLI turns a non-empty failure list into exit code 3
    and checks no claims on that result).

    The trace-factory fields count every trace this process obtained
    for the experiment: the experiment loads its traces before the
    engine runs, so the engine's own run sees them as memo hits.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        engine = get_engine()
        counters = engine.counters
        before = counters.snapshot()
        traces_before = trace_counters().snapshot()
        failures_before = len(engine.failure_log)
        result = fn(*args, **kwargs)
        if isinstance(result, ExperimentResult):
            meta = counters.since(before)
            meta.update(trace_counters().since(traces_before))
            result.meta["engine"] = meta
            new_failures = engine.failure_log[failures_before:]
            if new_failures:
                result.meta["failures"] = [
                    {
                        "job": failure.job.describe(),
                        "kind": failure.kind,
                        "error": failure.error.strip().splitlines()[-1]
                        if failure.error else "",
                    }
                    for failure in new_failures
                ]
        return result

    return wrapper


def _present(results: dict) -> dict:
    """Drop failed-job holes so aggregation sees only real statistics."""
    return {name: stats for name, stats in results.items() if stats}


def _scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.3"))


_SUITES = {"full": DEFAULT_SUITE, "short": SHORT_SUITE}


def _names() -> tuple[str, ...]:
    choice = os.environ.get("REPRO_SUITE", "full")
    if choice not in _SUITES:
        raise ValueError(
            f"REPRO_SUITE={choice!r}: expected 'full' or 'short'"
        )
    return _SUITES[choice]


def _traces(scale: float | None = None, names: Iterable[str] | None = None):
    return load_traces(names or _names(), scale if scale is not None else _scale())


#: The three caching schemes compared throughout §5.4-§5.5, with the
#: indexing assignments the paper uses after Figure 8 (round-robin for
#: the reference designs, filtered round-robin for use-based).
def _scheme_configs(**common) -> dict[str, MachineConfig]:
    return {
        "lru": lru_config(**common),
        "non_bypass": non_bypass_config(**common),
        "use_based": use_based_config(**common),
    }


# ----------------------------------------------------------------------
# Figure 1 / Figure 2 — register lifetimes.


@_with_engine_meta
def fig1_lifetimes(scale: float | None = None) -> ExperimentResult:
    """Median empty/live/dead register lifetime phases (Figure 1)."""
    traces = _traces(scale)
    results = _present(run_config(
        traces, use_based_config(record_lifetimes=True)
    ))
    rows = []
    summaries = []
    for name, stats in results.items():
        summary = phase_summary(stats.lifetimes)
        summaries.append(summary)
        rows.append([name, summary.empty, summary.live, summary.dead])
    mean = mean_phase_summary(summaries)
    rows.append(["MEAN", mean.empty, mean.live, mean.dead])
    return ExperimentResult(
        experiment_id="fig1",
        title="Physical register lifetime phases (median cycles)",
        headers=["benchmark", "empty", "live", "dead"],
        rows=rows,
        notes=(
            "Paper reports means of per-benchmark medians of roughly "
            "16 (empty), 11 (live), 36 (dead) cycles on SPECint 2000; "
            "the shape to check is live << empty + dead."
        ),
    )


@_with_engine_meta
def fig2_occupancy_cdf(scale: float | None = None) -> ExperimentResult:
    """Allocated vs live register distributions (Figure 2)."""
    traces = _traces(scale)
    results = _present(run_config(
        traces, use_based_config(record_lifetimes=True)
    ))
    rows = []
    for name, stats in results.items():
        alloc = allocated_cdf(stats.lifetimes)
        live = live_cdf(stats.lifetimes)
        rows.append([
            name, alloc.median, alloc.percentile(0.9),
            live.median, live.percentile(0.9),
        ])
    pooled = concatenate_records([s.lifetimes for s in results.values()])
    alloc = allocated_cdf(pooled)
    live = live_cdf(pooled)
    rows.append([
        "ALL", alloc.median, alloc.percentile(0.9),
        live.median, live.percentile(0.9),
    ])
    return ExperimentResult(
        experiment_id="fig2",
        title="Simultaneously allocated vs live registers (median / p90)",
        headers=["benchmark", "alloc p50", "alloc p90", "live p50",
                 "live p90"],
        rows=rows,
        notes=(
            "Paper: median live values < 20% of allocated; 90th "
            "percentile of live values is 56 with 512 physical "
            "registers. Check live << allocated and p90(live) well "
            "under the register count."
        ),
        meta={"live_p90": live.percentile(0.9),
              "alloc_p50": alloc.median, "live_p50": live.median},
    )


# ----------------------------------------------------------------------
# Figure 6 / Figure 7 — organization and indexing tuning.


@_with_engine_meta
def fig6_size_assoc(
    scale: float | None = None,
    sizes: tuple[int, ...] = (16, 32, 48, 64, 96, 128),
    assocs: tuple[int, ...] = (1, 2, 4, 0),
) -> ExperimentResult:
    """IPC versus cache size and associativity (Figure 6).

    Uses standard (preg) indexing as the paper's Figure 6 does; 0 in
    *assocs* means fully associative.
    """
    traces = _traces(scale)
    configs: dict[object, MachineConfig] = {
        (size, assoc): use_based_config(
            cache_entries=size, cache_assoc=assoc, indexing="preg",
        )
        for size in sizes
        for assoc in assocs
        if not (assoc and size % assoc)
    }
    baselines = {
        f"RF {latency}-cycle": monolithic_config(latency)
        for latency in (1, 2, 3, 4)
    }
    results = sweep(traces, {**configs, **baselines})
    rows = [
        [size] + [
            mean_ipc(results[size, assoc])
            if (size, assoc) in results else "-"
            for assoc in assocs
        ]
        for size in sizes
    ]
    for label in baselines:
        rows.append([label, "-", "-", "-", mean_ipc(results[label])])
    return ExperimentResult(
        experiment_id="fig6",
        title="Register cache size and organization (mean IPC)",
        headers=["entries", "direct", "2-way", "4-way", "full"],
        rows=rows,
        notes=(
            "Paper: associativity dominates; direct-mapped caches fail "
            "to beat the 3-cycle register file; the fully-associative "
            "curve flattens near the 90th-percentile live-value count; "
            "64-entry 2-way is the chosen design point."
        ),
    )


@_with_engine_meta
def fig7_indexing(
    scale: float | None = None,
    assocs: tuple[int, ...] = (1, 2, 4),
) -> ExperimentResult:
    """Decoupled indexing policies vs standard indexing (Figure 7)."""
    traces = _traces(scale)
    policies = ("preg", "round_robin", "minimum", "filtered_rr")
    grid = sweep(traces, {
        (policy, assoc): use_based_config(indexing=policy, cache_assoc=assoc)
        for policy in policies
        for assoc in assocs
    })
    rows = []
    for policy in policies:
        row: list[object] = [policy]
        for assoc in assocs:
            results = grid[policy, assoc]
            conflicts = sum(
                s.cache.misses["conflict"]
                for s in _present(results).values()
            )
            row.append(mean_ipc(results))
            row.append(conflicts)
        rows.append(row)
    headers = ["policy"]
    for assoc in assocs:
        headers += [f"ipc {assoc}w", f"conf {assoc}w"]
    return ExperimentResult(
        experiment_id="fig7",
        title="Decoupled indexing algorithms (64-entry cache)",
        headers=headers,
        rows=rows,
        notes=(
            "Paper: use-based assignment (filtered round-robin, minimum) "
            "performs best; filtered round-robin gains 1.9% on 2-way; "
            "advantages are larger at lower associativity. Check that "
            "decoupled policies cut conflict misses versus preg."
        ),
    )


# ----------------------------------------------------------------------
# Figure 8-10 and Table 2 — characterization at the design point.


@_with_engine_meta
def fig8_miss_breakdown(scale: float | None = None) -> ExperimentResult:
    """Miss-rate taxonomy under standard vs decoupled indexing (Fig 8)."""
    traces = _traces(scale)
    configs: dict[object, MachineConfig] = {}
    for scheme, base in (
        ("lru", lru_config), ("non_bypass", non_bypass_config),
        ("use_based", use_based_config),
    ):
        configs[scheme, "standard"] = base(indexing="preg")
        configs[scheme, "decoupled"] = base(
            indexing="filtered_rr" if scheme == "use_based" else "round_robin"
        )
    rows = []
    for (scheme, label), results in sweep(traces, configs).items():
        metrics = aggregate_cache_metrics(scheme, results)
        rows.append([
            scheme, label, metrics.miss_filtered,
            metrics.miss_capacity, metrics.miss_conflict,
            metrics.miss_rate,
        ])
    return ExperimentResult(
        experiment_id="fig8",
        title="Register cache misses per operand, 64-entry 2-way",
        headers=["scheme", "indexing", "filtered", "capacity", "conflict",
                 "total"],
        rows=rows,
        notes=(
            "Paper: write filtering trades filtered-value misses for "
            "capacity/conflict misses; non-bypass's filtered misses push "
            "its total above LRU at this size while use-based filtering "
            "does not; decoupled indexing removes 30-40% of conflict "
            "misses for every scheme."
        ),
    )


@_with_engine_meta
def fig9_bandwidth(scale: float | None = None) -> ExperimentResult:
    """Cache / register file access bandwidth (Figure 9)."""
    traces = _traces(scale)
    rows = []
    for scheme, results in sweep(traces, _scheme_configs()).items():
        metrics = aggregate_cache_metrics(scheme, results)
        rows.append([
            scheme, metrics.cache_read_bw, metrics.cache_write_bw,
            metrics.rf_read_bw, metrics.rf_write_bw,
        ])
    return ExperimentResult(
        experiment_id="fig9",
        title="Average access bandwidth (per cycle), 64-entry 2-way",
        headers=["scheme", "cache rd", "cache wr", "RF rd", "RF wr"],
        rows=rows,
        notes=(
            "Paper: write filtering lowers cache write bandwidth for "
            "non-bypass/use-based; RF read bandwidth tracks the miss "
            "rate (fills); RF write bandwidth sees every result."
        ),
    )


@_with_engine_meta
def fig10_filtering(scale: float | None = None) -> ExperimentResult:
    """Write-filtering effects (Figure 10)."""
    traces = _traces(scale)
    rows = []
    for scheme, results in sweep(traces, _scheme_configs()).items():
        metrics = aggregate_cache_metrics(scheme, results)
        rows.append([
            scheme, metrics.never_read_fraction,
            metrics.filtered_write_fraction, metrics.never_cached_fraction,
        ])
    return ExperimentResult(
        experiment_id="fig10",
        title="Filtering effects (fractions)",
        headers=["scheme", "cached never read", "writes filtered",
                 "never cached"],
        rows=rows,
        notes=(
            "Paper: use-based shows the lowest cached-never-read "
            "fraction, filters the most initial writes, and leaves the "
            "largest fraction of values never cached."
        ),
    )


@_with_engine_meta
def table2_metrics(scale: float | None = None) -> ExperimentResult:
    """Register cache metric comparison (Table 2)."""
    traces = _traces(scale)
    rows = []
    for scheme, results in sweep(traces, _scheme_configs()).items():
        metrics = aggregate_cache_metrics(scheme, results)
        rows.append([
            scheme, metrics.reads_per_cached_value, metrics.cache_count,
            metrics.occupancy, metrics.entry_lifetime,
        ])
    return ExperimentResult(
        experiment_id="table2",
        title="Register cache metrics, 64-entry 2-way",
        headers=["scheme", "reads/cached value", "cache count",
                 "occupancy", "entry lifetime"],
        rows=rows,
        notes=(
            "Paper (LRU / non-bypass / use-based): reads per cached "
            "value 0.67 / 1.18 / 1.67; cache count 1.09 / 0.61 / 0.44; "
            "occupancy 36.7 / 28.8 / 26.6; lifetime 25.2 / 36.3 / 43.6. "
            "Check the orderings: use-based highest reads/value and "
            "lifetime, lowest cache count and occupancy."
        ),
    )


# ----------------------------------------------------------------------
# Figure 11 / Figure 12 — performance comparisons.


@_with_engine_meta
def fig11_perf_vs_size(
    scale: float | None = None,
    sizes: tuple[int, ...] = (16, 32, 48, 64, 96),
) -> ExperimentResult:
    """IPC versus cache/L1 size for all schemes (Figure 11)."""
    traces = _traces(scale)
    columns = (
        lambda size: lru_config(cache_entries=size),
        lambda size: non_bypass_config(cache_entries=size),
        lambda size: use_based_config(cache_entries=size),
        lambda size: use_based_config(cache_entries=size, cache_assoc=4),
        lambda size: two_level_config(cache_entries=size),
    )
    configs: dict[object, MachineConfig] = {
        (size, column): make(size)
        for size in sizes
        for column, make in enumerate(columns)
    }
    baselines = {
        f"RF {latency}-cyc": monolithic_config(latency) for latency in (1, 3)
    }
    results = sweep(traces, {**configs, **baselines})
    rows = [
        [size] + [mean_ipc(results[size, column])
                  for column in range(len(columns))]
        for size in sizes
    ]
    for label in baselines:
        rows.append([label, "-", "-", "-", "-", mean_ipc(results[label])])
    return ExperimentResult(
        experiment_id="fig11",
        title="Performance vs cache/L1 size (mean IPC)",
        headers=["entries", "lru", "non_bypass", "use_based",
                 "use_based 4w", "two_level(+32)"],
        rows=rows,
        notes=(
            "Paper: use-based outperforms the other caches across "
            "capacities, with the advantage growing as caches shrink; "
            "the 4-way use-based cache matches the 64-entry 2-way with "
            "~48 entries; the two-level file trails due to rename "
            "stalls and falls off rapidly at small L1 sizes."
        ),
    )


@_with_engine_meta
def fig12_backing_latency(
    scale: float | None = None,
    latencies: tuple[int, ...] = (1, 2, 3, 4, 5, 6),
) -> ExperimentResult:
    """IPC versus backing file / L2 latency (Figure 12)."""
    traces = _traces(scale)
    columns = (
        lambda latency: lru_config(backing_read_latency=latency),
        lambda latency: non_bypass_config(backing_read_latency=latency),
        lambda latency: use_based_config(backing_read_latency=latency),
        lambda latency: two_level_config(two_level_l2_latency=latency),
    )
    configs: dict[object, MachineConfig] = {
        (latency, column): make(latency)
        for latency in latencies
        for column, make in enumerate(columns)
    }
    baselines = {
        f"RF {latency}-cyc": monolithic_config(latency) for latency in (1, 3)
    }
    results = sweep(traces, {**configs, **baselines})
    rows = [
        [latency] + [mean_ipc(results[latency, column])
                     for column in range(len(columns))]
        for latency in latencies
    ]
    for label in baselines:
        rows.append([label, "-", "-", mean_ipc(results[label]), "-"])
    return ExperimentResult(
        experiment_id="fig12",
        title="Performance vs backing file / L2 latency (mean IPC)",
        headers=["latency", "lru", "non_bypass", "use_based",
                 "two_level"],
        rows=rows,
        notes=(
            "Paper: use-based degrades most slowly with backing "
            "latency among the caches; the two-level file is least "
            "sensitive (L2 latency seen only on recovery) but stays "
            "below use-based through latency ~4-5; use-based still "
            "beats a 3-cycle monolithic file at backing latencies up "
            "to ~5."
        ),
    )


# ----------------------------------------------------------------------
# §5.3 tuning studies and §3.3 predictor accuracy.


@_with_engine_meta
def tuning_max_use(
    scale: float | None = None,
    values: tuple[int, ...] = (2, 3, 5, 7, 9, 12, 15),
) -> ExperimentResult:
    """IPC versus the maximum representable use count (§5.3)."""
    traces = _traces(scale)
    rows = []
    grid = sweep(traces, {
        max_use: use_based_config(max_use=max_use) for max_use in values
    })
    for max_use, results in grid.items():
        metrics = aggregate_cache_metrics("use_based", results)
        rows.append([max_use, mean_ipc(results), metrics.miss_rate])
    return ExperimentResult(
        experiment_id="tuning_max_use",
        title="Maximum representable use count",
        headers=["max_use", "mean ipc", "miss rate"],
        rows=rows,
        notes=(
            "Paper: performance falls off rapidly below ~6 (too many "
            "values pinned), improves to ~12, with the knee around 7 "
            "(three bits)."
        ),
    )


@_with_engine_meta
def tuning_defaults(
    scale: float | None = None,
    unknown_values: tuple[int, ...] = (0, 1, 2, 3),
    fill_values: tuple[int, ...] = (0, 1, 2),
) -> ExperimentResult:
    """IPC versus the unknown and fill defaults (§5.3)."""
    traces = _traces(scale)
    configs: dict[object, MachineConfig] = {
        ("unknown", unknown): use_based_config(unknown_default=unknown)
        for unknown in unknown_values
    }
    for fill in fill_values:
        configs["fill", fill] = use_based_config(fill_default=fill)
    rows = [
        [default, value, mean_ipc(results)]
        for (default, value), results in sweep(traces, configs).items()
    ]
    return ExperimentResult(
        experiment_id="tuning_defaults",
        title="Unknown and fill default use counts",
        headers=["default", "value", "mean ipc"],
        rows=rows,
        notes=(
            "Paper: unknown default of 1 (most values are used once) "
            "and fill default of 0 (a filled value's triggering use is "
            "likely its last) maximize performance."
        ),
    )


@_with_engine_meta
def predictor_accuracy(scale: float | None = None) -> ExperimentResult:
    """Degree-of-use predictor accuracy and coverage (§3.3)."""
    traces = _traces(scale)
    results = _present(run_config(traces, use_based_config()))
    rows = []
    total_supplied = total_correct = total_queries = 0
    for name, stats in results.items():
        coverage = (
            stats.predictor_supplied / stats.predictor_queries
            if stats.predictor_queries else 0.0
        )
        rows.append([name, stats.predictor_accuracy, coverage])
        total_supplied += stats.predictor_supplied
        total_correct += stats.predictor_correct
        total_queries += stats.predictor_queries
    rows.append([
        "ALL",
        total_correct / total_supplied if total_supplied else 0.0,
        total_supplied / total_queries if total_queries else 0.0,
    ])
    return ExperimentResult(
        experiment_id="predictor",
        title="Degree-of-use predictor accuracy / coverage",
        headers=["benchmark", "accuracy", "coverage"],
        rows=rows,
        notes="Paper reports 97% average accuracy (§3.3).",
    )


@_with_engine_meta
def incorrect_use_info(
    scale: float | None = None,
    noise_levels: tuple[float, ...] = (0.0, 0.05, 0.15, 0.3, 0.6),
) -> ExperimentResult:
    """Sensitivity to incorrect use information (paper §3.4).

    Injects training noise into the degree-of-use predictor to model
    wrong-path use counting and mispredictions, measuring how stale and
    falsely-dead values affect the miss rate and performance. The paper
    argues both effects are naturally bounded (invalidation-at-free
    limits stale values; lazy eviction and bypassing mask falsely-dead
    values), so degradation should be gradual.
    """
    traces = _traces(scale)
    rows = []
    grid = sweep(traces, {
        noise: use_based_config(wrongpath_use_noise=noise)
        for noise in noise_levels
    })
    for noise, results in grid.items():
        metrics = aggregate_cache_metrics("use_based", results)
        accuracy_num = sum(
            s.predictor_correct for s in _present(results).values()
        )
        accuracy_den = max(
            1, sum(s.predictor_supplied for s in _present(results).values())
        )
        rows.append([
            noise, mean_ipc(results), metrics.miss_rate,
            accuracy_num / accuracy_den,
        ])
    return ExperimentResult(
        experiment_id="s34_noise",
        title="Incorrect use information (training noise sweep)",
        headers=["noise", "mean ipc", "miss rate", "pred accuracy"],
        rows=rows,
        notes=(
            "Paper §3.4: stale values are bounded by invalidation at "
            "register free; falsely-dead values are masked by lazy "
            "eviction and the bypass network. Performance should "
            "degrade gracefully, not collapse, as use information "
            "degrades."
        ),
    )


@_with_engine_meta
def table1_config() -> ExperimentResult:
    """Machine configuration versus Table 1 of the paper."""
    config = MachineConfig()
    rows = [
        ["issue width", config.issue_width, 8],
        ["window", config.window_size, 128],
        ["ROB", config.rob_size, 512],
        ["physical registers", config.num_pregs, 512],
        ["bypass stages", config.bypass_stages, 2],
        ["RF latency (baseline)", config.rf_read_latency, 3],
        ["backing latency", config.backing_read_latency, 2],
        ["cache entries", config.cache_entries, 64],
        ["cache assoc", config.cache_assoc, 2],
        ["max use", config.max_use, 7],
        ["unknown default", config.unknown_default, 1],
        ["fill default", config.fill_default, 0],
        ["predictor entries", config.predictor_entries, 4096],
        ["predictor assoc", config.predictor_assoc, 4],
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Simulator configuration vs paper Table 1",
        headers=["parameter", "ours", "paper"],
        rows=rows,
        notes="All structural parameters match the paper's Table 1.",
    )


@_with_engine_meta
def ablations(scale: float | None = None) -> ExperimentResult:
    """Design-choice ablations beyond the paper's explicit studies."""
    traces = _traces(scale)
    variants = {
        "full use-based": use_based_config(),
        "no pinning": use_based_config(pin_at_max=False),
        "lru replacement": use_based_config(replacement="lru"),
        "always insert": use_based_config(insertion="always"),
        "no predictor (defaults only)": use_based_config(
            predictor_enabled=False
        ),
        "standard indexing": use_based_config(indexing="preg"),
    }
    rows = []
    for label, results in sweep(traces, variants).items():
        metrics = aggregate_cache_metrics(label, results)
        rows.append([label, mean_ipc(results), metrics.miss_rate])
    return ExperimentResult(
        experiment_id="ablations",
        title="Use-based design ablations (64-entry 2-way)",
        headers=["variant", "mean ipc", "miss rate"],
        rows=rows,
        notes=(
            "Each row disables one ingredient of the proposal; the full "
            "configuration should be at or near the top."
        ),
    )


#: Registry used by the CLI and perfbench; ``repro.analysis.claims.CLAIMS``
#: holds the shapes each entry's result must show.
EXPERIMENTS = {
    "table1": table1_config,
    "fig1": fig1_lifetimes,
    "fig2": fig2_occupancy_cdf,
    "fig6": fig6_size_assoc,
    "fig7": fig7_indexing,
    "fig8": fig8_miss_breakdown,
    "fig9": fig9_bandwidth,
    "fig10": fig10_filtering,
    "table2": table2_metrics,
    "fig11": fig11_perf_vs_size,
    "fig12": fig12_backing_latency,
    "tuning_max_use": tuning_max_use,
    "tuning_defaults": tuning_defaults,
    "predictor": predictor_accuracy,
    "s34_noise": incorrect_use_info,
    "ablations": ablations,
}


def _run_profiled(name: str, runner):
    """Run *runner* under cProfile; dump stats next to the result cache.

    Prints the top 25 functions by cumulative time and writes the raw
    profile to ``<cache_dir>/profiles/<name>.prof`` for snakeviz/pstats
    digging. Profiling captures this process only, so pair it with
    serial execution (``REPRO_JOBS`` unset) to see the simulator's hot
    loop rather than pool bookkeeping.
    """
    import cProfile
    import io
    import pstats
    from pathlib import Path

    profiler = cProfile.Profile()
    result = profiler.runcall(runner)
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats(
        "cumulative",
    ).print_stats(25)
    print(f"== profile: {name} (top 25, cumulative) ==")
    print(stream.getvalue())
    prof_dir = Path(get_engine().cache_dir) / "profiles"
    try:
        prof_dir.mkdir(parents=True, exist_ok=True)
        prof_path = prof_dir / f"{name}.prof"
        profiler.dump_stats(prof_path)
        print(f"profile written to {prof_path}")
    except OSError:
        pass  # read-only cache dir: keep the printed table
    return result


def main(argv: list[str] | None = None) -> int:
    """CLI: print the requested experiments (or ``all``).

    ``--verbose``/``-v`` and ``--quiet``/``-q`` adjust the logging setup
    (INFO / ERROR; the default comes from ``REPRO_LOG_LEVEL``).
    ``--profile`` wraps each requested experiment in cProfile, printing
    the top-25 cumulative functions and dumping the raw ``.prof`` under
    the result cache directory. After each table renders, its
    :mod:`~repro.analysis.claims` are checked (only for results without
    failed jobs) and each broken claim is printed. Exit codes: 0
    success, 1 usage, 2 unknown experiment, 3 when at least one
    experiment had failing jobs (the remaining experiments still run
    and render), 4 when every job ran but a claim broke.
    """
    from repro.analysis.claims import broken_claims
    from repro.errors import EngineError
    from repro.obs.log import get_logger, setup_logging

    args = list(argv if argv is not None else sys.argv[1:])
    level = None
    while "--verbose" in args or "-v" in args:
        args.remove("--verbose") if "--verbose" in args else args.remove("-v")
        level = "INFO"
    while "--quiet" in args or "-q" in args:
        args.remove("--quiet") if "--quiet" in args else args.remove("-q")
        level = "ERROR"
    profile = False
    while "--profile" in args:
        args.remove("--profile")
        profile = True
    setup_logging(level)
    logger = get_logger("experiments")

    if not args:
        print(__doc__)
        print("available:", ", ".join(EXPERIMENTS))
        return 1
    requested = list(EXPERIMENTS) if "all" in args else args
    failed: list[str] = []
    broken: list[str] = []
    for name in requested:
        runner = EXPERIMENTS.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2
        try:
            result = _run_profiled(name, runner) if profile else runner()
        except EngineError as error:
            failed.append(name)
            logger.error("experiment %s had failing jobs", name)
            print(f"== {name}: FAILED ==\n{error}\n", file=sys.stderr)
            continue
        except Exception:
            # Sweeps degrade to partial results, so an escaping
            # exception means the experiment could not cope with its
            # holes (or has a bug); report it without killing the rest
            # of the batch.
            failed.append(name)
            logger.error("experiment %s raised", name)
            print(
                f"== {name}: FAILED ==\n{traceback.format_exc()}\n",
                file=sys.stderr,
            )
            continue
        print(render(result))
        print()
        if result.meta.get("failures"):
            # Partial result: it rendered (with its holes called out),
            # but the batch must still exit non-zero.
            failed.append(name)
            logger.error(
                "experiment %s completed with %d failed job(s)",
                name, len(result.meta["failures"]),
            )
            continue
        claims = broken_claims(name, result)
        for claim in claims:
            print(f"claim broken: {name}: {claim}", file=sys.stderr)
        if claims:
            broken.append(name)
    if failed:
        print(
            f"{len(failed)} experiment(s) with failing jobs: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 3
    if broken:
        print(
            f"{len(broken)} experiment(s) with broken claims: "
            f"{', '.join(broken)}",
            file=sys.stderr,
        )
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
