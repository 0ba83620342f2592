"""Shared fixtures for the chaos (fault-injection) suite.

Every test here gets a private result cache, trace cache, and manifest
(``REPRO_CACHE_DIR`` pointed at its own ``tmp_path``; the trace cache
lives in its ``traces/`` directory), a clean fault-plan memo, and an
empty in-process trace memo — so injected faults and their artifacts
can never leak between tests or into the rest of the run.

The suite is seed-parametric: ``REPRO_CHAOS_SEED`` (CI sweeps several
values) feeds every fault plan, so a recovery path that only survives
one lucky fault ordering still gets caught.
"""

import os

import pytest

from repro.testing import faults
from repro.workloads.suite import clear_trace_memo

#: Base seed for every fault plan in this suite.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "42"))


@pytest.fixture
def chaos_seed():
    return CHAOS_SEED


@pytest.fixture(autouse=True)
def _isolated_chaos_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for knob in ("REPRO_FAULTS", "REPRO_MANIFEST"):
        monkeypatch.delenv(knob, raising=False)
    faults.reset()
    clear_trace_memo()
    yield
    faults.reset()
    clear_trace_memo()
