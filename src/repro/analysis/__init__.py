"""Experiment harness: engine, metrics, sweeps, reports, artifacts.

:data:`EXPERIMENTS` is resolved on first access rather than imported
here, so ``python -m repro.analysis.experiments`` runs that module
fresh instead of finding it half-imported by its own package.
"""

from repro.analysis.engine import (
    ExperimentEngine,
    JobFailure,
    SimJob,
    configure,
    get_engine,
)
from repro.analysis.metrics import CacheMetricsRow, aggregate_cache_metrics
from repro.analysis.report import ExperimentResult, render, render_all
from repro.analysis.sweeps import load_traces, run_config, sweep

__all__ = [
    "CacheMetricsRow",
    "EXPERIMENTS",
    "ExperimentEngine",
    "ExperimentResult",
    "JobFailure",
    "SimJob",
    "aggregate_cache_metrics",
    "configure",
    "get_engine",
    "load_traces",
    "render",
    "render_all",
    "run_config",
    "sweep",
]


def __getattr__(name: str):
    if name == "EXPERIMENTS":
        from repro.analysis.experiments import EXPERIMENTS

        return EXPERIMENTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
