"""Shared fixtures for the chaos (fault-injection) suite.

The suite faults the real engine through seams it already has
(:mod:`tests.faulty`): a faulty pipeline bound to the rebindable
``engine.Pipeline``, cache entries truncated on disk between runs, and
a manifest path under a regular file, so the OS refuses every manifest
write.

Every test gets a private result cache, trace cache and manifest
(``REPRO_CACHE_DIR`` pointed at its own ``tmp_path``; the trace cache
lives in its ``traces/`` directory) and an empty in-process trace memo,
so faults and their artifacts never leak between tests or into the
rest of the run.

The suite is seed-parametric: ``REPRO_CHAOS_SEED`` (CI sweeps several
values) draws the victims of every fault, so a recovery path that only
survives one lucky choice of victims still gets caught.
"""

import os

import pytest

from repro.workloads.suite import clear_trace_memo

#: Base seed from which every test draws its victims.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "42"))


@pytest.fixture
def chaos_seed():
    return CHAOS_SEED


@pytest.fixture(autouse=True)
def _isolated_chaos_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_MANIFEST", raising=False)
    clear_trace_memo()
    yield
    clear_trace_memo()
