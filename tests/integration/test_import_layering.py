"""Import layering: a run served from the caches never loads the timing core.

A warm ``experiments all`` keys jobs, reads the result cache and loads
traces from the trace cache; it simulates nothing. Its process must not
import the pipeline, the register files, the front end, the memory
hierarchy, the predictor or the VM, nor the kernels and the assembler
that only decoding a cached trace needs, and it must decode no trace.
Each check runs in a fresh interpreter, since this test process has
long since imported them all.

The other direction holds too: every library module is reached from the
library itself, so no side tool that only tests or examples use can
live under ``src/``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.vm.trace import TraceAnalysis
from repro.workloads.suite import clear_trace_memo, load_trace

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Modules nothing in the library imports by design: the experiment CLI
#: (the artifact path's entry point) and the checks the tests run.
ENTRY_POINTS = ("repro.analysis.experiments", "repro.testing.")

#: Modules (or package prefixes, ending in ``.``) a warm process must
#: not import.
TIMING_CORE = (
    "repro.core.pipeline", "repro.regfile.", "repro.frontend.",
    "repro.memory.", "repro.predict.", "repro.vm.machine",
)

#: More modules a warm process must not import: the kernels and the
#: assembler serve only to generate or decode a trace, and engine run
#: ids need no ``uuid`` (which also imports ``platform``).
NOT_WHEN_WARM = ("repro.workloads.kernels", "repro.isa.assembler", "uuid")

WARM_PROCESS = """
import json, sys
import repro.analysis.experiments
import repro.obs.manifest
import repro.testing.oracle
import repro.workloads.suite as suite

trace = suite.load_trace("compress", scale=0.02)
print(json.dumps({
    "loaded": suite.trace_counters().loaded,
    "insts": len(trace),
    "decoded": trace.decoded,
    "modules": sorted(sys.modules),
}))
"""

LAZY_SEAMS = """
import json, sys
import repro
import repro.analysis.engine as engine
import repro.workloads.suite as suite
from repro.core.pipeline import Pipeline
from repro.frontend.fetch import branch_plan_for
from repro.vm.machine import run_program

print(json.dumps({
    "resolved": [
        engine.Pipeline is Pipeline,
        engine.branch_plan_for is branch_plan_for,
        suite.run_program is run_program,
        repro.Pipeline is Pipeline,
    ],
    "bound": [
        "Pipeline" in vars(engine),
        "branch_plan_for" in vars(engine),
        "run_program" in vars(suite),
    ],
}))
"""


def _run(code: str, env_extra: dict[str, str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_warm_process_imports_no_timing_core(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_trace_memo()
    try:
        trace = load_trace("compress", scale=0.02)  # fills the trace cache
    finally:
        clear_trace_memo()

    out = _run(WARM_PROCESS, {
        "REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(tmp_path),
    })
    assert out["loaded"] == 1  # the trace came from disk, not the VM
    assert out["insts"] == len(trace)  # from the header alone
    assert out["decoded"] is False
    loaded = [
        name for name in out["modules"]
        if any(name == mod or name.startswith(mod) for mod in TIMING_CORE)
    ]
    assert loaded == []
    assert [name for name in NOT_WHEN_WARM if name in out["modules"]] == []


def test_decoded_cached_trace_equals_the_generated_one(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_trace_memo()
    try:
        eager = load_trace("compress", scale=0.02)  # generated and stored
        clear_trace_memo()
        lazy = load_trace("compress", scale=0.02)
        assert eager.decoded and not lazy.decoded
        assert len(lazy) == len(eager)
        assert [r.signature() for r in lazy] == [
            r.signature() for r in eager
        ]
        assert lazy.decoded
        for field in TraceAnalysis.__slots__:
            assert getattr(lazy.analysis(), field) == getattr(
                eager.analysis(), field
            ), field
    finally:
        clear_trace_memo()


def test_lazy_seams_resolve_to_the_timing_core_and_stay_rebindable():
    out = _run(LAZY_SEAMS, {})
    assert out["resolved"] == [True] * 4
    assert out["bound"] == [True] * 3


def _imports(path: Path) -> set[str]:
    """Every module an ``import`` anywhere in *path* may name."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_reached_from_the_library():
    modules = {
        ".".join(path.relative_to(SRC).with_suffix("").parts): path
        for path in (Path(SRC) / "repro").rglob("*.py")
    }
    reached = set(repro._EXPORTS.values())
    for name, path in modules.items():
        reached |= _imports(path) - {name}
    orphans = sorted(
        name for name, path in modules.items()
        if path.stem not in ("__init__", "__main__")
        and name not in reached
        and not name.startswith(ENTRY_POINTS)
    )
    assert orphans == []
