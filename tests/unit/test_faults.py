"""Unit tests for the deterministic fault-injection layer."""

import errno

import pytest

from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


class TestParsePlan:
    def test_disabled_specs_return_none(self):
        for spec in ("", "0", "off", "false", "  "):
            assert faults.parse_plan(spec) is None

    def test_rates_only_spec(self):
        plan = faults.parse_plan("crash=0.5")
        assert plan.rate("crash") == 0.5
        assert plan.rate("bad_stats") == 0.0
        assert plan.seed == 0 and plan.times == 1

    def test_full_spec_with_semicolons(self):
        plan = faults.parse_plan(
            "seed=7; times=2; crash=1.0; enospc=0.25"
        )
        assert plan.seed == 7
        assert plan.times == 2
        assert plan.rate("crash") == 1.0
        assert plan.rate("enospc") == 0.25

    def test_spec_with_no_rates_is_disabled(self):
        assert faults.parse_plan("seed=3,times=2") is None

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown key"):
            faults.parse_plan("explode=1.0")

    def test_out_of_range_rate_raises(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            faults.parse_plan("crash=1.5")

    def test_missing_equals_raises(self):
        with pytest.raises(ValueError, match="key=value"):
            faults.parse_plan("crash")


class TestDecide:
    def test_pure_and_deterministic(self):
        plan = faults.FaultPlan(
            seed=42, rates=faults.MappingProxyType({"crash": 0.5}),
        )
        draws = [plan.decide("crash", f"job{i}") for i in range(200)]
        assert draws == [
            plan.decide("crash", f"job{i}") for i in range(200)
        ]
        # A 0.5 rate should fire for roughly half the identities.
        assert 50 < sum(draws) < 150

    def test_seed_changes_decisions(self):
        a = faults.FaultPlan(
            seed=1, rates=faults.MappingProxyType({"crash": 0.5}),
        )
        b = faults.FaultPlan(
            seed=2, rates=faults.MappingProxyType({"crash": 0.5}),
        )
        assert [a.decide("crash", f"j{i}") for i in range(100)] != [
            b.decide("crash", f"j{i}") for i in range(100)
        ]

    def test_rate_one_always_fires_within_times(self):
        plan = faults.FaultPlan(
            times=2, rates=faults.MappingProxyType({"corrupt_cache": 1.0}),
        )
        assert plan.decide("corrupt_cache", "x", occurrence=0)
        assert plan.decide("corrupt_cache", "x", occurrence=1)
        assert not plan.decide("corrupt_cache", "x", occurrence=2)

    def test_rate_zero_never_fires(self):
        plan = faults.FaultPlan(
            rates=faults.MappingProxyType({"bad_stats": 1.0}),
        )
        assert not plan.decide("crash", "x")


class TestGetPlan:
    def test_no_env_means_disabled(self):
        assert faults.get_plan() is None
        assert not faults.enabled()

    def test_env_plan_is_memoized_per_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        first = faults.get_plan()
        assert first is not None and faults.enabled()
        assert faults.get_plan() is first
        monkeypatch.setenv("REPRO_FAULTS", "bad_stats=1.0")
        second = faults.get_plan()
        assert second is not first and second.rate("bad_stats") == 1.0

    def test_malformed_env_warns_once_and_disables(self, monkeypatch, caplog):
        import logging

        monkeypatch.setenv("REPRO_FAULTS", "bogus=1.0")
        # Once configured, the repro logger stops propagating to the
        # root logger, where caplog listens. Make it propagate for this
        # test, whichever tests ran before, so each record reaches
        # caplog exactly once.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        # (earlier tests may have left the level at ERROR)
        with caplog.at_level("WARNING", logger="repro"):
            assert faults.get_plan() is None
            # Memoized as disabled; asking again must not warn twice.
            assert faults.get_plan() is None
        assert sum(
            "malformed REPRO_FAULTS" in record.message
            for record in caplog.records
        ) == 1
        assert not faults.enabled()


class TestFire:
    def test_occurrence_counter_consumes_times(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt_cache=1.0,times=1")
        assert faults.fire("corrupt_cache", "entry")
        # Second occurrence of the same identity is past `times`.
        assert not faults.fire("corrupt_cache", "entry")
        # A different identity has its own counter.
        assert faults.fire("corrupt_cache", "other")

    def test_job_fault_does_not_consume(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0,times=1")
        assert faults.job_fault("crash", "job")
        assert faults.job_fault("crash", "job")  # pure, re-askable

    def test_disabled_never_fires(self):
        assert not faults.fire("corrupt_cache", "entry")
        assert not faults.job_fault("crash", "job")


class TestSiteHelpers:
    def test_crash_point_raises_in_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        with pytest.raises(faults.InjectedFault):
            faults.crash_point("job", allow_exit=False)

    def test_interrupt_point_raises_keyboard_interrupt(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "interrupt=1.0")
        with pytest.raises(KeyboardInterrupt):
            faults.interrupt_point("job")

    def test_enospc_point_raises_enospc(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "enospc=1.0")
        with pytest.raises(OSError) as excinfo:
            faults.enospc_point("manifest")
        assert excinfo.value.errno == errno.ENOSPC

    def test_corrupt_text_truncates_once(self, monkeypatch):
        # A result-cache entry is JSON text, encoded before it reaches the
        # corrupt_cache site.
        monkeypatch.setenv("REPRO_FAULTS", "corrupt_cache=1.0,times=1")
        text = ("x" * 300).encode()
        corrupted = faults.corrupt_bytes("corrupt_cache", "key", text)
        assert corrupted != text and len(corrupted) == 100
        # Occurrence consumed: the rewrite goes through clean.
        assert faults.corrupt_bytes("corrupt_cache", "key", text) == text

    def test_corrupt_bytes_truncates(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "truncate_trace=1.0,times=1")
        data = b"y" * 90
        assert faults.corrupt_bytes("truncate_trace", "key", data) == b"y" * 30
        # Occurrence consumed: the rewrite goes through clean.
        assert faults.corrupt_bytes("truncate_trace", "key", data) == data

    def test_injected_fault_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(faults.InjectedFault, ReproError)
