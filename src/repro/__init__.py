"""repro — reproduction of "Use-Based Register Caching with Decoupled
Indexing" (Butts & Sohi, ISCA 2004).

Public API quick tour::

    from repro import MachineConfig, simulate_benchmark

    stats = simulate_benchmark("compress", MachineConfig())
    print(stats.ipc, stats.cache.miss_rate)

The names in :data:`__all__` load their module on first access (PEP 562),
and the subpackages re-export nothing: a process imports only the
modules it uses, so a run served from the result cache never loads the
timing core. Inside the package, import from the defining module
(``from repro.core.config import MachineConfig``).

See README.md for the architecture overview and DESIGN.md for the
per-experiment index.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "DEFAULT_SUITE": "repro.workloads.suite",
    "Instruction": "repro.isa.instruction",
    "Machine": "repro.vm.machine",
    "MachineConfig": "repro.core.config",
    "Opcode": "repro.isa.opcodes",
    "Pipeline": "repro.core.pipeline",
    "Program": "repro.isa.program",
    "ReproError": "repro.errors",
    "SHORT_SUITE": "repro.workloads.suite",
    "SimStats": "repro.core.stats",
    "Trace": "repro.vm.trace",
    "assemble": "repro.isa.assembler",
    "load_trace": "repro.workloads.suite",
    "lru_config": "repro.core.config",
    "mean_ipc": "repro.core.simulator",
    "monolithic_config": "repro.core.config",
    "non_bypass_config": "repro.core.config",
    "run_program": "repro.vm.machine",
    "simulate": "repro.core.simulator",
    "simulate_benchmark": "repro.core.simulator",
    "simulate_suite": "repro.core.simulator",
    "two_level_config": "repro.core.config",
    "use_based_config": "repro.core.config",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
