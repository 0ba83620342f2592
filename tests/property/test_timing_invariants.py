"""Property tests: dataflow-timing invariants across storage schemes.

Every completed run must satisfy operand-before-execute ordering and the
issue bandwidth limits — for random programs and for real kernels, under
every register-storage scheme. This is the net that catches scheduling
bugs that silently inflate IPC.
"""

import pytest
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
from repro.testing.validate import check_dataflow_timing, check_issue_bandwidth
from repro.vm.machine import Machine
from repro.workloads.suite import load_trace

from tests.property.test_vm_properties import straight_line_programs

ALL_CONFIGS = [
    use_based_config, lru_config, non_bypass_config,
    lambda **kw: monolithic_config(3, **kw),
    lambda **kw: monolithic_config(4, **kw),
    two_level_config,
]


def run_validated(trace, config_factory):
    config = config_factory(record_timing=True)
    pipeline = Pipeline(trace, config)
    pipeline.run()
    assert check_dataflow_timing(pipeline) == []
    assert check_issue_bandwidth(pipeline) == []


@settings(max_examples=15, deadline=None)
@given(
    program=straight_line_programs(),
    config_index=st.integers(min_value=0, max_value=len(ALL_CONFIGS) - 1),
)
def test_random_programs_respect_dataflow_timing(program, config_index):
    trace = Machine(program).run()
    run_validated(trace, ALL_CONFIGS[config_index])


@pytest.mark.parametrize("config_factory", ALL_CONFIGS,
                         ids=["use_based", "lru", "non_bypass",
                              "mono3", "mono4", "two_level"])
@pytest.mark.parametrize("bench", ["pointer_chase", "interp", "compress"])
def test_kernels_respect_dataflow_timing(bench, config_factory):
    trace = load_trace(bench, scale=0.12)
    run_validated(trace, config_factory)


def test_validator_requires_recording():
    trace = load_trace("crc", scale=0.12)
    pipeline = Pipeline(trace, use_based_config())
    pipeline.run()
    with pytest.raises(ValueError):
        check_dataflow_timing(pipeline)
    with pytest.raises(ValueError):
        check_issue_bandwidth(pipeline)


def test_validator_detects_planted_violation():
    trace = load_trace("crc", scale=0.12)
    pipeline = Pipeline(trace, use_based_config(record_timing=True))
    pipeline.run()
    # Corrupt one op's timing and confirm detection.
    for op in pipeline.issue_log.values():
        if op.src_producer_seqs and any(
            s >= 0 for s in op.src_producer_seqs
        ):
            op.exec_start = -100
            break
    assert check_dataflow_timing(pipeline)
