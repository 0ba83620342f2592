"""Experiment harness: engine, sweeps, reports, artifacts.

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
from repro.analysis.report import ExperimentResult, render
from repro.analysis.sweeps import load_traces, run_config, sweep

__all__ = [
    "EXPERIMENTS",
    "ExperimentEngine",
    "ExperimentResult",
    "JobFailure",
    "SimJob",
    "configure",
    "get_engine",
    "load_traces",
    "render",
    "run_config",
    "sweep",
]


def __getattr__(name: str):
    if name == "EXPERIMENTS":
        from repro.analysis.experiments import EXPERIMENTS

        return EXPERIMENTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
