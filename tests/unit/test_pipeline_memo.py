"""Unit tests for the ``Pipeline._earliest`` readiness memo.

The memo caches, per op, the earliest first-stage-bypass cycle over the
op's issued producers, keyed by the producer-state epoch
(``Pipeline._pepoch``): while the epoch is unchanged no producer's
``exec_end`` has moved, so a cached value is exact and repeated queries
must not rescan the sources. Every code path that moves a producer's
``exec_end`` bumps the epoch, which forces the next query to rescan.
"""

from repro.core.config import use_based_config
from repro.core.pipeline import Pipeline
from repro.workloads.suite import load_trace


def _run_pipeline():
    trace = load_trace("crc", scale=0.1)
    pipeline = Pipeline(trace, use_based_config(record_timing=True))
    pipeline.run()
    return pipeline


def _op_with_producer(pipeline):
    """An issued op whose only live producer is its first source's.

    The run has retired everything, so the op's rename-time producer is
    reinstalled and its other sources are left without one.
    """
    for op in pipeline.issue_log.values():
        seqs = op.src_producer_seqs
        if not seqs or seqs[0] < 0:
            continue
        producer = pipeline.issue_log[seqs[0]]
        if producer.exec_end <= pipeline.read_latency:
            continue
        for preg, _assigned in op.sources:
            if preg >= 0:
                pipeline.producers[preg] = None
        pipeline.producers[op.sources[0][0]] = producer
        return op, producer
    raise AssertionError("no op reads a renamed source")


def test_memo_exercised_during_run():
    """Every issued op carries a bound computed at some epoch."""
    pipeline = _run_pipeline()
    assert pipeline.issue_log
    assert all(op.earliest_epoch >= 0 for op in pipeline.issue_log.values())


def test_memo_returns_cached_bound_within_epoch():
    """An unchanged epoch returns the cached bound, without a rescan."""
    pipeline = _run_pipeline()
    op, producer = _op_with_producer(pipeline)
    op.earliest_epoch = -1  # force one fresh computation
    first = pipeline._earliest(op)
    assert first == producer.exec_end - pipeline.read_latency
    producer.exec_end += 10  # moved without an epoch bump
    assert pipeline._earliest(op) == first


def test_memo_invalidated_by_epoch_bump():
    """A producer-state change (new epoch) forces a recomputation."""
    pipeline = _run_pipeline()
    op, producer = _op_with_producer(pipeline)
    op.earliest_epoch = -1
    first = pipeline._earliest(op)
    producer.exec_end += 10
    pipeline._pepoch += 1
    assert pipeline._earliest(op) == first + 10
