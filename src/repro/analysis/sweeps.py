"""Parameter-sweep helpers shared by the experiment harness.

All sweeps route through the :mod:`repro.analysis.engine` experiment
engine: each ``(config, trace)`` pair becomes one :class:`SimJob`, the
whole grid is submitted in a single engine call (so parallel workers see the
full fan-out, not one trace at a time), and previously simulated pairs
are served from the engine's content-addressed result cache. Every job
runs on its own; configurations of one trace share that trace's
in-process memos (the decoded trace, ``trace.analysis()`` and the
branch plan), so each is computed once per trace per process.

Sweeps degrade gracefully: a failed job leaves an explicit hole — a
falsy :class:`~repro.analysis.engine.JobFailure` in that result slot —
rather than raising, so one bad benchmark costs one point of one curve
instead of the whole figure. Downstream aggregation
(:func:`~repro.core.simulator.mean_ipc`,
:func:`~repro.analysis.experiments.aggregate_cache_metrics`) skips the
holes, and the experiment CLI reports them with exit code 3.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.analysis.engine import (
    ExperimentEngine,
    JobFailure,
    SimJob,
    get_engine,
)
from repro.core.config import MachineConfig
from repro.core.stats import SimStats
from repro.vm.trace import Trace
from repro.workloads.suite import DEFAULT_SUITE, load_trace


def load_traces(
    names: Iterable[str] = DEFAULT_SUITE, scale: float = 0.3
) -> dict[str, Trace]:
    """Load the benchmark traces used by an experiment."""
    return {name: load_trace(name, scale=scale) for name in names}


def run_config(
    traces: dict[str, Trace],
    config: MachineConfig,
    engine: ExperimentEngine | None = None,
) -> dict[str, SimStats | JobFailure]:
    """Simulate every trace under *config*: one column of :func:`sweep`.

    Failed benchmarks map to falsy :class:`JobFailure` holes.
    """
    return sweep(traces, {None: config}, engine)[None]


def sweep(
    traces: dict[str, Trace],
    configs: Mapping[Hashable, MachineConfig],
    engine: ExperimentEngine | None = None,
) -> dict[Hashable, dict[str, SimStats | JobFailure]]:
    """Simulate every trace under every labelled configuration.

    The full ``configs x traces`` grid is submitted as one engine call
    so a parallel engine can overlap work across configurations, not
    just within one. Labels may be any hashable (the figures use tuples
    such as ``(size, assoc)``); two labels with equal configs share one
    simulation per trace.

    Returns:
        Mapping of configuration label to per-benchmark statistics;
        failed cells hold falsy :class:`JobFailure` records.
    """
    engine = engine or get_engine()
    names = list(traces)
    config_list = list(configs.values())
    jobs = [
        SimJob.for_trace(traces[name], config, label=name)
        for name in names
        for config in config_list
    ]
    stats = engine.run(jobs, raise_on_error=False)
    num_configs = len(config_list)
    out: dict[Hashable, dict[str, SimStats | JobFailure]] = {}
    for row, label in enumerate(configs):
        out[label] = {
            name: stats[col * num_configs + row]
            for col, name in enumerate(names)
        }
    return out
