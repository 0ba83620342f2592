"""Golden ``SimStats`` hashes: the timing model's recorded behaviour.

``tests/golden/simstats.json`` pins, for every case below, a SHA-256 of
the run's counters (``SimStats.to_dict()`` minus the lifetime field)
and, for ``use_based`` runs, a SHA-256 of the flat lifetime log.
Refactors of the timing loop must reproduce every hash; a change that
is meant to alter simulated behaviour regenerates the file and says
so.

``tests/golden/lifetimes.json`` pins what the lifetime analyses make of
the default-machine ``use_based`` logs: the Figure 1 and Figure 2 rows
per kernel plus the MEAN and pooled ALL rows (:func:`lifetime_figures`).
A refactor of :mod:`repro.core.lifetimes` must reproduce them.

Regenerate with::

    PYTHONPATH=src python -m tests.golden.generate
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.config import NAMED_CONFIGS, MachineConfig
from repro.core.lifetimes import (
    mean_phase_summary,
    occupancy_cdfs,
    phase_summary,
)
from repro.core.pipeline import Pipeline
from repro.core.stats import SimStats
from repro.workloads.suite import DEFAULT_SUITE, load_trace

GOLDEN_PATH = Path(__file__).with_name("simstats.json")
FIGURES_PATH = Path(__file__).with_name("lifetimes.json")
SCALE = 0.02
SEED = 1
SCHEMES = ("lru", "non_bypass", "use_based", "two_level", "monolithic")

#: Extra points outside the default machine: the Fig-12 backing-latency
#: sweep's slowest point, and pointer_chase deep in the memory-stall
#: regime. Each entry: case suffix -> (kernels, schemes, overrides).
EXTRA_POINTS = {
    "backing_read_latency=4": (
        DEFAULT_SUITE, ("lru", "non_bypass", "use_based"),
        {"backing_read_latency": 4},
    ),
    "memory_latency=1500": (
        ("pointer_chase",), SCHEMES, {"memory_latency": 1500},
    ),
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def counters_digest(stats: SimStats) -> str:
    """Hash of every counter of *stats*, lifetime log excluded."""
    data = stats.to_dict()
    data.pop("lifetimes")
    return _digest(data)


def lifetimes_digest(stats: SimStats) -> str:
    """Hash of the flat lifetime log of *stats*."""
    return _digest(stats.lifetimes)


def cases() -> list[tuple[str, str, str, dict]]:
    """Every golden case as ``(case_id, kernel, scheme, overrides)``."""
    out = []
    for kernel in DEFAULT_SUITE:
        for scheme in SCHEMES:
            out.append((f"{kernel}/{scheme}", kernel, scheme, {}))
    for suffix, (kernels, schemes, overrides) in EXTRA_POINTS.items():
        for kernel in kernels:
            for scheme in schemes:
                out.append((
                    f"{kernel}/{scheme}/{suffix}", kernel, scheme, overrides,
                ))
    return out


def make_config(scheme: str, overrides: dict) -> MachineConfig:
    """The named scheme's config with *overrides*; use_based records
    its lifetime log."""
    config = NAMED_CONFIGS[scheme](**overrides)
    if scheme == "use_based":
        config = config.replace(record_lifetimes=True)
    return config


def run_case(kernel: str, scheme: str, overrides: dict) -> SimStats:
    trace = load_trace(kernel, scale=SCALE, seed=SEED)
    return Pipeline(trace, make_config(scheme, overrides)).run()


def lifetime_figures(logs: dict[str, list[int]]) -> dict:
    """The Figure 1 and Figure 2 rows of *logs* (kernel -> lifetime log).

    Figure 1: ``[kernel, empty, live, dead]`` median phases, then the
    MEAN row. Figure 2: ``[kernel, alloc p50, alloc p90, live p50, live
    p90, cdfs]``, then the pooled ALL row; ``cdfs`` hashes the full
    allocated and live CDFs, so a change below the percentiles shows.
    """
    summaries = {name: phase_summary(log) for name, log in logs.items()}
    summaries["MEAN"] = mean_phase_summary(list(summaries.values()))
    fig1 = [
        [name, summary.empty, summary.live, summary.dead]
        for name, summary in summaries.items()
    ]
    fig2 = []
    cdfs = occupancy_cdfs(list(logs.values()))
    for name, (alloc, live) in zip([*logs, "ALL"], cdfs):
        fig2.append([
            name, alloc.median, alloc.percentile(0.9),
            live.median, live.percentile(0.9),
            _digest([alloc.levels, alloc.cumulative,
                     live.levels, live.cumulative]),
        ])
    return {"scale": SCALE, "seed": SEED, "fig1": fig1, "fig2": fig2}


def golden_logs() -> dict[str, list[int]]:
    """The lifetime log of each default-suite kernel's ``use_based``
    run on the default machine."""
    return {
        kernel: run_case(kernel, "use_based", {}).lifetimes
        for kernel in DEFAULT_SUITE
    }


def generate() -> tuple[dict, dict]:
    """The golden hashes, and the lifetime figures of their runs."""
    golden: dict = {"scale": SCALE, "seed": SEED, "cases": {}}
    logs = {}
    for case_id, kernel, scheme, overrides in cases():
        stats = run_case(kernel, scheme, overrides)
        entry = {"counters": counters_digest(stats)}
        if scheme == "use_based":
            entry["lifetimes"] = lifetimes_digest(stats)
            if not overrides:
                logs[kernel] = stats.lifetimes
        golden["cases"][case_id] = entry
    return golden, lifetime_figures(logs)


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> None:
    golden, figures = generate()
    _write(GOLDEN_PATH, golden)
    _write(FIGURES_PATH, figures)
    print(f"wrote {len(golden['cases'])} cases to {GOLDEN_PATH} "
          f"and the lifetime figures to {FIGURES_PATH}")


if __name__ == "__main__":
    main()
