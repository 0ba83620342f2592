"""Core timing model: configuration, pipeline, statistics, lifetimes."""

from repro.core.config import (
    NAMED_CONFIGS,
    MachineConfig,
    lru_config,
    monolithic_config,
    non_bypass_config,
    two_level_config,
    use_based_config,
)
from repro.core.lifetimes import (
    OccupancyCdf,
    PhaseSummary,
    allocated_cdf,
    concatenate_records,
    live_cdf,
    mean_phase_summary,
    occupancy_cdf,
    phase_summary,
)
from repro.core.debug import dependence_report, render_timeline
from repro.core.pipeline import Pipeline
from repro.core.simulator import (
    mean_ipc,
    simulate,
    simulate_benchmark,
    simulate_suite,
)
from repro.core.stats import SimStats
from repro.core.validate import (
    TimingViolation,
    check_dataflow_timing,
    check_issue_bandwidth,
)

__all__ = [
    "MachineConfig",
    "NAMED_CONFIGS",
    "OccupancyCdf",
    "PhaseSummary",
    "Pipeline",
    "SimStats",
    "TimingViolation",
    "check_dataflow_timing",
    "check_issue_bandwidth",
    "dependence_report",
    "render_timeline",
    "allocated_cdf",
    "concatenate_records",
    "live_cdf",
    "lru_config",
    "mean_ipc",
    "mean_phase_summary",
    "monolithic_config",
    "non_bypass_config",
    "occupancy_cdf",
    "phase_summary",
    "simulate",
    "simulate_benchmark",
    "simulate_suite",
    "two_level_config",
    "use_based_config",
]
