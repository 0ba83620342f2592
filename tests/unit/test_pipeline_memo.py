"""Unit tests for the issue-readiness bound ``_Op.earliest_value``.

Dispatch and ``Pipeline._earliest`` record, per op, the earliest
first-stage-bypass cycle over the op's issued producers, and a failed
issue attempt records the cycle it retries at. Producer completion
times only ever grow, so the value is a sound lower bound on the op's
issue cycle: the issue stage sends an op that arrives before it straight
to the bound without scanning its sources.
"""

from repro.core.config import use_based_config
from repro.core.pipeline import _READY, Pipeline, _Op
from repro.workloads.suite import load_trace


def _run_pipeline():
    trace = load_trace("crc", scale=0.1)
    pipeline = Pipeline(trace, use_based_config(record_timing=True))
    pipeline.run()
    return pipeline


def test_memo_exercised_during_run():
    """No op issues before its recorded bound."""
    pipeline = _run_pipeline()
    assert pipeline.issue_log
    assert any(op.earliest_value > 0 for op in pipeline.issue_log.values())
    for op in pipeline.issue_log.values():
        assert op.issue_time >= op.earliest_value


def test_early_retry_is_sent_to_bound():
    """An op re-pushed before its bound is deferred to the bound."""
    trace = load_trace("crc", scale=0.1)
    pipeline = Pipeline(trace, use_based_config())
    op = _Op(0, trace.records[0])
    op.sources = []  # ready now, but for the bound
    op.earliest_value = 7
    assert pipeline._issue([op], 3) == 0
    assert pipeline._events[7][_READY] == [op]
    assert pipeline._issue(pipeline._events.pop(7)[_READY], 7) == 1
    assert op.issue_time == 7


def test_earliest_follows_producer_times():
    """The bound is recomputed from the producers on every query."""
    pipeline = _run_pipeline()
    read_latency = pipeline.read_latency
    op = next(
        op for op in pipeline.issue_log.values()
        if op.sources and max(
            producer.exec_end for producer in op.sources
        ) > read_latency
    )
    first = pipeline._earliest(op)
    assert first == max(
        producer.exec_end - read_latency for producer in op.sources
    )
    assert op.earliest_value == first
    for producer in op.sources:
        producer.exec_end += 10
    assert pipeline._earliest(op) == first + 10
    assert op.earliest_value == first + 10
