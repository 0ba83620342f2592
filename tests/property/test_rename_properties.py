"""Property tests for the pipeline's inlined rename state.

Whatever the program and storage scheme, a completed run conserves the
physical-register population: the free list holds no register twice,
holds no checked-out register, and free plus checked-out registers
account for every register.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    lru_config,
    monolithic_config,
    non_bypass_config,
    two_level_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.vm.machine import Machine

from tests.property.test_vm_properties import straight_line_programs

STORAGE_SCHEMES = [
    use_based_config, lru_config, non_bypass_config,
    lambda: monolithic_config(3), two_level_config,
]


@settings(max_examples=30, deadline=None)
@given(
    program=straight_line_programs(),
    scheme=st.integers(min_value=0, max_value=len(STORAGE_SCHEMES) - 1),
)
def test_free_list_conserves_registers(program, scheme):
    pipeline = Pipeline(Machine(program).run(), STORAGE_SCHEMES[scheme]())
    pipeline.run()
    free = pipeline._free_pregs
    allocated = pipeline._preg_allocated
    assert len(set(free)) == len(free)
    assert not any(allocated[preg] for preg in free)
    assert len(free) + sum(allocated) == len(allocated)
    # A register is checked out exactly while it has a producer.
    assert [p is not None for p in pipeline.producers] == allocated
