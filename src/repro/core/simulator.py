"""High-level simulation API.

:func:`simulate` runs one trace under one configuration;
:func:`simulate_suite` runs a set of benchmarks and returns per-benchmark
statistics plus the geometric-mean IPC the paper's figures report
averages over.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.core.config import MachineConfig
from repro.core.stats import SimStats
from repro.vm.trace import Trace
from repro.workloads.suite import DEFAULT_SUITE, load_trace


def simulate(trace: Trace, config: MachineConfig | None = None) -> SimStats:
    """Run the timing model on *trace* and return its statistics.

    Args:
        trace: a committed-instruction trace (from the VM, e.g. via
            :func:`~repro.workloads.suite.load_trace`).
        config: machine configuration; defaults to the paper's use-based
            64-entry 2-way register cache machine.
    """
    from repro.core.pipeline import Pipeline

    config = config or MachineConfig()
    return Pipeline(trace, config).run()


def simulate_benchmark(
    name: str, config: MachineConfig | None = None, scale: float = 1.0
) -> SimStats:
    """Load the named kernel at *scale* and simulate it."""
    return simulate(load_trace(name, scale=scale), config)


def simulate_suite(
    config: MachineConfig | None = None,
    names: Iterable[str] = DEFAULT_SUITE,
    scale: float = 1.0,
) -> dict[str, SimStats]:
    """Simulate each named benchmark; returns name -> stats."""
    return {
        name: simulate_benchmark(name, config, scale=scale)
        for name in names
    }


def mean_ipc(results: dict[str, SimStats]) -> float:
    """Geometric-mean IPC across benchmarks (the figures' y-axis).

    Falsy result slots (failed-job holes from a gracefully degraded
    sweep) are excluded from the mean rather than zeroing it.
    """
    values = [stats for stats in results.values() if stats]
    if not values:
        return 0.0
    log_sum = 0.0
    for stats in values:
        ipc = stats.ipc
        if ipc <= 0:
            return 0.0
        log_sum += math.log(ipc)
    return math.exp(log_sum / len(values))
