"""Test support shipped with the library: the oracle and timing checks.

:mod:`repro.testing.oracle` is a lightweight differential oracle: an
in-order functional reference that replays a trace and cross-checks
the conservation invariants every :class:`~repro.core.stats.SimStats`
must satisfy (operands read = bypass + storage; storage reads =
cache hits + filtered/capacity/conflict/cold misses; backing reads =
misses; writes = initial + fill; ...). It lives in the package, not
the test tree, because the engine runs its counter-only half on every
fresh result before it is cached, so a faulted job can never silently
publish corrupted results.

:mod:`repro.testing.validate` checks a run made with
``MachineConfig(record_timing=True)`` against dataflow timing (no
consumer executes before its producer's value exists) and the issue
width; the property tests run it over random programs and the kernels.
"""
