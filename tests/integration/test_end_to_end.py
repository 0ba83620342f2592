"""Integration tests: full benchmarks under every storage scheme.

These encode the paper's headline qualitative claims (C1-C5 in
DESIGN.md) at reduced scale so they run in seconds. Comparisons use
generous margins: the claims are about orderings, not absolute numbers.
"""

import math

import pytest

from repro.core.config import (
    lru_config,
    monolithic_config,
    non_bypass_config,
    two_level_config,
    use_based_config,
)
from repro.core.pipeline import Pipeline
from repro.workloads.suite import load_trace

SCALE = 0.2
BENCHES = ("compress", "hash_dict", "interp", "crc", "strmatch")


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_all(config):
    return {
        name: Pipeline(load_trace(name, scale=SCALE), config).run()
        for name in BENCHES
    }


@pytest.fixture(scope="module")
def results():
    configs = {
        "use_based": use_based_config(record_lifetimes=True),
        "use_based_16": use_based_config(cache_entries=16),
        "lru": lru_config(),
        "lru_16": lru_config(cache_entries=16),
        "non_bypass": non_bypass_config(),
        "two_level": two_level_config(),
        "mono1": monolithic_config(1),
        "mono2": monolithic_config(2),
        "mono3": monolithic_config(3),
    }
    return {label: run_all(cfg) for label, cfg in configs.items()}


def ipc(results, label):
    return gmean([s.ipc for s in results[label].values()])


def test_everything_retires(results):
    for per_bench in results.values():
        for name, stats in per_bench.items():
            assert stats.retired == len(load_trace(name, scale=SCALE))


def test_monolithic_latency_ordering(results):
    assert ipc(results, "mono1") > ipc(results, "mono2") >= ipc(
        results, "mono3"
    )


def test_use_based_beats_three_cycle_rf(results):
    """Headline claim C1: the 64-entry 2-way use-based cache outperforms
    the 3-cycle monolithic register file."""
    assert ipc(results, "use_based") > ipc(results, "mono3")


def test_use_based_recovers_most_of_latency_loss(results):
    """Paper: use-based caching recovers over half the performance lost
    to the 3-cycle register file."""
    recovered = ipc(results, "use_based") - ipc(results, "mono3")
    lost = ipc(results, "mono1") - ipc(results, "mono3")
    assert recovered > 0.5 * lost


def test_use_based_beats_non_bypass(results):
    assert ipc(results, "use_based") > ipc(results, "non_bypass")


def test_use_based_advantage_grows_at_small_sizes(results):
    """Paper: the advantage over other caches increases as caches
    shrink."""
    margin_64 = ipc(results, "use_based") - ipc(results, "lru")
    margin_16 = ipc(results, "use_based_16") - ipc(results, "lru_16")
    assert margin_16 > margin_64


def test_use_based_at_16_beats_lru_at_16(results):
    assert ipc(results, "use_based_16") > ipc(results, "lru_16")


def test_miss_rate_orderings(results):
    """Claim C2: non-bypass's filtered misses push its total miss rate
    above LRU's at 64 entries; use-based stays below non-bypass."""
    def total_miss_rate(label):
        reads = sum(s.cache.reads for s in results[label].values())
        misses = sum(s.cache.miss_count for s in results[label].values())
        return misses / reads

    assert total_miss_rate("non_bypass") > total_miss_rate("lru")
    assert total_miss_rate("use_based") < total_miss_rate("non_bypass")


def test_bypass_supplies_large_fraction(results):
    """Paper §3.1: the bypass network supplies many operands (57% in
    their simulations)."""
    stats = results["use_based"]
    bypassed = sum(s.operands_bypass for s in stats.values())
    total = bypassed + sum(s.operands_storage for s in stats.values())
    assert 0.35 < bypassed / total < 0.9


def test_predictor_accuracy_high(results):
    """Paper §3.3: degree-of-use prediction accuracy ~97%."""
    stats = results["use_based"]
    supplied = sum(s.predictor_supplied for s in stats.values())
    correct = sum(s.predictor_correct for s in stats.values())
    assert correct / supplied > 0.9


def test_table2_orderings(results):
    """Claim: use-based has the most reads per cached value and the
    longest entry lifetimes; LRU caches every value at least once."""
    def agg(label):
        per = results[label]
        hits = sum(s.cache.hits for s in per.values())
        instances = sum(s.cache.instances_cached for s in per.values())
        freed = sum(s.cache.values_freed for s in per.values())
        return hits / instances, instances / freed

    ub_reads, ub_count = agg("use_based")
    lru_reads, lru_count = agg("lru")
    nb_reads, nb_count = agg("non_bypass")
    assert ub_reads > nb_reads > lru_reads
    assert lru_count > nb_count > ub_count
    assert lru_count >= 0.99  # LRU writes every value


def test_two_level_between_baselines(results):
    """The two-level file lands between the 1-cycle and 3-cycle
    monolithic files."""
    assert ipc(results, "mono3") < ipc(results, "two_level") <= ipc(
        results, "mono1"
    ) * 1.001


def test_lifetime_shape(results):
    """Claim C4: values are live for a short fraction of their
    lifetime."""
    from repro.core.lifetimes import phase_summary
    for stats in results["use_based"].values():
        summary = phase_summary(stats.lifetimes)
        assert summary.live <= summary.empty + summary.dead


def test_live_registers_well_below_allocated(results):
    from repro.core.lifetimes import occupancy_cdfs
    allocated, live = occupancy_cdfs(
        [stats.lifetimes for stats in results["use_based"].values()]
    )[-1]
    assert live.median < allocated.median
