"""Property test: every scheme's statistics conserve on random programs.

For arbitrary small traces, the timing core's ``SimStats`` must satisfy
the differential oracle's internal conservation invariants
(:func:`repro.testing.oracle.validate_stats`) and retire the whole trace
under every register-storage scheme. This is the randomized counterpart
of the golden-file check in ``tests/integration/test_core_equivalence.py``.

(:func:`repro.testing.oracle.check_run` is not applied here: its replay
counts reads of registers the program never wrote, which the timing
model treats as preinitialized environment values rather than operand
reads; random programs make such reads all the time, kernels never do.)
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402

from repro.core.config import NAMED_CONFIGS  # noqa: E402
from repro.core.pipeline import Pipeline  # noqa: E402
from repro.testing.oracle import validate_stats  # noqa: E402
from repro.vm.machine import Machine  # noqa: E402

from tests.property.test_vm_properties import (  # noqa: E402
    straight_line_programs,
)


@settings(max_examples=20, deadline=None)
@given(program=straight_line_programs())
def test_stats_conserve_on_random_traces(program):
    trace = Machine(program).run()
    for factory in NAMED_CONFIGS.values():
        stats = Pipeline(trace, factory()).run()
        assert validate_stats(stats) == []
        assert stats.retired == len(trace)
