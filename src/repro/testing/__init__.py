"""Test-support subsystems: fault injection and the differential oracle.

This package is shipped with the library (not buried in the test tree)
because its two halves are wired into production code paths:

* :mod:`repro.testing.faults` — a deterministic, seed-driven fault
  injection layer. The experiment engine, trace factory, and manifest
  writer carry cheap injection points (worker crash, corrupted job
  result, corrupt result-cache entry, truncated trace file, ENOSPC on
  manifest writes, mid-sweep interrupt) that are inert unless
  ``REPRO_FAULTS`` arms a plan. The chaos test suite (``tests/chaos``) drives every
  recovery path end-to-end through these hooks.
* :mod:`repro.testing.oracle` — a lightweight differential oracle: an
  in-order functional reference that replays a trace and cross-checks
  the conservation invariants every :class:`~repro.core.stats.SimStats`
  must satisfy (operands read = bypass + storage; storage reads =
  cache hits + filtered/capacity/conflict/cold misses; backing reads =
  misses; writes = initial + fill; ...). The engine runs the
  counter-only half before any result is cached, so recovery from an
  injected fault can never silently publish corrupted results.
"""

from repro.testing import faults, oracle

__all__ = ["faults", "oracle"]
