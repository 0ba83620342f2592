"""Tests for :meth:`SimStats.merge` and the zero-denominator contract.

The merge path feeds perfbench's ``sim.*`` layer counts, which sum
every engine result with :meth:`SimStats.merge`; the zero-on-empty rate
properties are what let report code format fresh or merged-empty
instances without guards.
"""

import pytest

from repro.core.stats import SimStats
from repro.regfile.register_cache import CacheStats


class TestZeroDenominators:
    def test_all_rates_zero_on_fresh_instance(self):
        stats = SimStats()
        assert stats.ipc == 0.0
        assert stats.bypass_fraction == 0.0
        assert stats.predictor_accuracy == 0.0
        assert stats.cache_read_bandwidth == 0.0
        assert stats.cache_write_bandwidth == 0.0
        assert stats.rf_read_bandwidth == 0.0
        assert stats.rf_write_bandwidth == 0.0

    def test_summary_of_fresh_instance_is_formattable(self):
        summary = SimStats().summary()
        assert summary["ipc"] == 0.0
        assert summary["predictor_accuracy"] == 0.0

    def test_cache_bandwidths_zero_without_cache(self):
        stats = SimStats(cycles=100, cache=None)
        assert stats.cache_read_bandwidth == 0.0
        assert stats.cache_write_bandwidth == 0.0


class TestMerge:
    def _run(self, benchmark, cycles, retired, **kwargs):
        return SimStats(
            benchmark=benchmark, scheme="use_based",
            cycles=cycles, retired=retired, **kwargs,
        )

    def test_counters_add(self):
        merged = SimStats.merge([
            self._run("gcc", 100, 150, rf_reads=10),
            self._run("mcf", 300, 150, rf_reads=5),
        ])
        assert merged.cycles == 400
        assert merged.retired == 300
        assert merged.rf_reads == 15

    def test_rates_are_traffic_weighted(self):
        merged = SimStats.merge([
            self._run("gcc", 100, 200),   # ipc 2.0
            self._run("mcf", 300, 100),   # ipc 0.33
        ])
        assert merged.ipc == pytest.approx(300 / 400)

    def test_benchmark_and_scheme_labels(self):
        merged = SimStats.merge([
            self._run("gcc", 1, 1), self._run("mcf", 1, 1),
        ])
        assert merged.benchmark == "gcc+mcf"
        assert merged.scheme == "use_based"

    def test_mixed_schemes_labelled_mixed(self):
        a = self._run("gcc", 1, 1)
        b = SimStats(benchmark="mcf", scheme="base", cycles=1, retired=1)
        assert SimStats.merge([a, b]).scheme == "mixed"

    def test_merge_of_nothing_is_empty(self):
        merged = SimStats.merge([])
        assert merged.cycles == 0
        assert merged.ipc == 0.0
        assert merged.benchmark == ""
        assert merged.cache is None

    def test_cache_stats_merge(self):
        cache_a = CacheStats(reads=10, hits=8)
        cache_a.misses["capacity"] = 2
        cache_b = CacheStats(reads=10, hits=2)
        cache_b.misses["capacity"] = 5
        cache_b.misses["conflict"] = 3
        a = self._run("gcc", 10, 10, cache=cache_a)
        b = self._run("mcf", 10, 10, cache=cache_b)
        merged = SimStats.merge([a, b])
        assert merged.cache.reads == 20
        assert merged.cache.hits == 10
        assert merged.cache.misses["capacity"] == 7
        assert merged.cache.miss_rate == pytest.approx(0.5)

    def test_cache_none_runs_do_not_block_merge(self):
        a = self._run("gcc", 10, 10, cache=CacheStats(reads=4, hits=4))
        b = self._run("mcf", 10, 10, cache=None)
        merged = SimStats.merge([a, b])
        assert merged.cache is not None
        assert merged.cache.reads == 4

    def test_merge_concatenates_lifetimes(self):
        a = self._run("gcc", 10, 10)
        a.lifetimes += (0, 1, 2, 3)
        b = self._run("mcf", 10, 10)
        b.lifetimes += (4, 5, 6, 7)
        merged = SimStats.merge([a, b])
        assert len(merged.lifetimes) // 4 == 2
        assert merged.lifetimes[4] == 4

    def test_merge_does_not_mutate_inputs(self):
        a = self._run("gcc", 100, 100)
        SimStats.merge([a, self._run("mcf", 1, 1)])
        assert a.cycles == 100
        assert a.benchmark == "gcc"
