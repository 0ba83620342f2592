"""Golden ``SimStats`` hashes: the timing model's recorded behaviour.

``tests/golden/simstats.json`` pins, for every case below, a SHA-256 of
the run's counters (``SimStats.to_dict()`` minus the lifetime field)
and, for ``use_based`` runs, a SHA-256 of the flat lifetime log.
Refactors of the timing loop must reproduce every hash; a change that
is meant to alter simulated behaviour regenerates the file and says
so.

Regenerate with::

    PYTHONPATH=src python -m tests.golden.generate
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.config import NAMED_CONFIGS, MachineConfig
from repro.core.pipeline import Pipeline
from repro.core.stats import SimStats
from repro.workloads.suite import DEFAULT_SUITE, load_trace

GOLDEN_PATH = Path(__file__).with_name("simstats.json")
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


def generate() -> dict:
    golden: dict = {"scale": SCALE, "seed": SEED, "cases": {}}
    for case_id, kernel, scheme, overrides in cases():
        stats = run_case(kernel, scheme, overrides)
        entry = {"counters": counters_digest(stats)}
        if scheme == "use_based":
            entry["lifetimes"] = lifetimes_digest(stats)
        golden["cases"][case_id] = entry
    return golden


def main() -> None:
    golden = generate()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['cases'])} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
