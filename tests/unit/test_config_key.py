"""Canonical configuration keys (engine cache identity, sweep labels)."""

import json

import pytest

from repro.core.config import (
    MachineConfig,
    lru_config,
    monolithic_config,
    two_level_config,
    use_based_config,
)
from repro.isa.opcodes import OpClass


def test_equal_configs_built_differently_hash_identically():
    """Field order, dict insertion order, and int/float spelling must
    not change the key: the cache would otherwise resimulate (or worse,
    alias) identical machines."""
    counts_a = {
        OpClass.INT_ALU: 6,
        OpClass.BRANCH: 2,
        OpClass.INT_MUL: 2,
        OpClass.FP_ALU: 4,
        OpClass.FP_MUL: 2,
        OpClass.FP_DIV: 2,
        OpClass.LOAD: 4,
        OpClass.STORE: 2,
        OpClass.SYSTEM: 8,
    }
    # Same mapping, reversed insertion order.
    counts_b = dict(reversed(list(counts_a.items())))
    assert list(counts_a) != list(counts_b)

    a = MachineConfig(
        cache_entries=64,
        backing_read_latency=2,
        fu_counts=counts_a,
        wrongpath_use_noise=0.0,
    )
    b = MachineConfig(
        wrongpath_use_noise=0,  # int spelling of the same value
        fu_counts=counts_b,
        backing_read_latency=2.0,  # float spelling of the same value
        cache_entries=64,
    )
    assert a.config_key() == b.config_key()
    assert a.config_hash() == b.config_hash()


def test_distinct_configs_hash_differently():
    base = use_based_config()
    assert base.config_hash() != lru_config().config_hash()
    assert base.config_hash() != monolithic_config(3).config_hash()
    assert (
        base.config_hash()
        != use_based_config(cache_entries=32).config_hash()
    )


def test_bool_and_int_stay_distinct():
    """pin_at_max=True must not collide with a hypothetical 1-valued
    numeric field; bools keep their own identity in the key."""
    on = use_based_config(pin_at_max=True)
    off = use_based_config(pin_at_max=False)
    assert on.config_hash() != off.config_hash()
    key = dict(on.config_key())
    assert key["pin_at_max"] is True


def test_config_hash_shape_and_stability():
    config = use_based_config()
    digest = config.config_hash()
    assert len(digest) == 64
    int(digest, 16)  # valid hex
    assert digest == config.config_hash()  # deterministic


@pytest.mark.parametrize("factory, digest", [
    (use_based_config,
     "29bc5a3091579ed8a1bdb54bc864d034586a13e170ad00b5e79e5aa6d6b7d5be"),
    (lru_config,
     "e94e0275686bf743bd11e3744b6b872f9cbd9ccff092be6552351d25fe71036a"),
    (lambda: monolithic_config(3),
     "055ff2f344a872cfd2e8c42c52ab0f09d0c72cd47aebcc80ccfd028764b81edc"),
    (two_level_config,
     "581bedd19e29a46dd8a1e0b093fe132649840e68b8e5167a19c75256841c3437"),
])
def test_named_config_hashes_are_pinned(factory, digest):
    """Every cached result is filed under these digests: a change to
    config keying that moves one must be deliberate (and bump
    ``CACHE_SCHEMA_VERSION``), never a side effect."""
    assert factory().config_hash() == digest


def test_plain_field_fast_path_matches_generic_normalization():
    """config_key skips ``_normalize`` for plain values; the key must be
    the one the generic path gives, floats and huge ints included."""
    from repro.core.config import _FIELD_NAMES, _normalize

    config = use_based_config(
        wrongpath_use_noise=0.25, max_cycles=2**53 + 1, rf_write_latency=None,
    )
    generic = tuple(
        (name, _normalize(getattr(config, name))) for name in _FIELD_NAMES
    )
    assert json.dumps(config.config_key()) == json.dumps(generic)


def test_config_key_is_json_serializable():
    payload = json.dumps(use_based_config().config_key(), sort_keys=True)
    assert "fu_counts" in payload


def test_unknown_field_types_rejected():
    from repro.core.config import _normalize

    with pytest.raises(Exception):
        _normalize(object())


def test_record_lifetimes_enters_config_and_engine_cache_keys():
    """A result simulated without the lifetime log must never be served
    to a caller that asked for it (fig1/fig2), so the flag is part of
    both the config key and the engine's result-cache key."""
    from repro.analysis.engine import SimJob

    plain = use_based_config()
    logged = use_based_config(record_lifetimes=True)
    assert dict(plain.config_key())["record_lifetimes"] is False
    assert dict(logged.config_key())["record_lifetimes"] is True
    assert plain.config_hash() != logged.config_hash()
    job = SimJob(config=plain, trace_name="crc", scale=0.02, seed=1)
    logged_job = SimJob(config=logged, trace_name="crc", scale=0.02, seed=1)
    assert job.cache_key() != logged_job.cache_key()


def test_job_names_tell_apart_configs_of_one_scheme():
    """lru, non_bypass and use_based all have storage ``register_cache``;
    a job's name must still say which one failed."""
    from repro.analysis.engine import SimJob

    always = use_based_config(insertion="always")
    non_bypass = use_based_config(insertion="non_bypass")
    names = {
        SimJob(config=config, trace_name="crc", scale=0.02).describe()
        for config in (always, non_bypass)
    }
    assert len(names) == 2
    for config in (always, non_bypass):
        name = SimJob(config=config, trace_name="crc").describe()
        assert name.startswith("crc[register_cache:")
        assert config.config_hash()[:8] in name


def test_config_key_order_is_sorted_field_names():
    """The precomputed field order gives the same key as sorting the
    dataclass fields on every call did, so existing hashes stay valid."""
    import dataclasses

    config = use_based_config(cache_entries=32)
    fields = sorted(dataclasses.fields(config), key=lambda f: f.name)
    assert [name for name, _ in config.config_key()] == [
        f.name for f in fields
    ]


def _job(config=None, **overrides):
    from repro.analysis.engine import SimJob

    spec = dict(trace_name="crc", scale=0.02, seed=1)
    spec.update(overrides)
    return SimJob(config=config or use_based_config(), **spec)


@pytest.mark.parametrize("change", [
    {"config": use_based_config(cache_entries=32)},
    {"trace_name": "sort"},
    {"scale": 0.05},
    {"seed": 2},
])
def test_job_key_changes_with_config_and_trace_provenance(change):
    assert _job(**change).cache_key() != _job().cache_key()


@pytest.mark.parametrize("name", [
    "CACHE_SCHEMA_VERSION", "STATS_SCHEMA_VERSION", "source_fingerprint",
])
def test_job_key_changes_with_schema_versions_and_code(monkeypatch, name):
    from repro import store
    from repro.analysis import engine as engine_mod

    before = _job().cache_key()
    if name == "source_fingerprint":
        monkeypatch.setattr(store, "fingerprint", lambda **scope: "0" * 64)
    else:
        monkeypatch.setattr(engine_mod, name, getattr(engine_mod, name) + 1)
    assert _job().cache_key() != before


def test_equal_configs_built_differently_give_equal_job_keys():
    a = use_based_config(cache_entries=64, backing_read_latency=2)
    b = use_based_config(backing_read_latency=2.0, cache_entries=64.0)
    assert a is not b
    assert _job(a).cache_key() == _job(b).cache_key()
    assert _job(scale=1).cache_key() == _job(scale=1.0).cache_key()


def test_integral_float_size_simulates_as_the_int(tmp_path):
    """``cache_entries=64.0`` has the key of ``64``, so it must also
    simulate like it. Run on an empty cache, the float spelling must
    produce the int spelling's result, not crash sizing the cache."""
    from repro.analysis.engine import ExperimentEngine
    from repro.core.pipeline import Pipeline
    from repro.workloads.suite import load_trace

    spelled = use_based_config(cache_entries=64.0, backing_read_latency=2.0)
    assert type(spelled.cache_entries) is int
    assert type(spelled.backing_read_latency) is int
    engine = ExperimentEngine(workers=1, cache_dir=tmp_path)
    [stats] = engine.run([_job(spelled)])
    assert engine.counters.executed == 1
    direct = Pipeline(
        load_trace("crc", scale=0.02, seed=1), use_based_config(cache_entries=64)
    ).run()
    assert stats.to_dict() == direct.to_dict()


@pytest.mark.parametrize("field", ["cache_entries", "rf_write_latency"])
def test_fractional_int_field_is_rejected(field):
    from repro.errors import ConfigError

    config = use_based_config(**{field: 64.5})
    with pytest.raises(ConfigError, match=field):
        config.validate()
    with pytest.raises(ConfigError, match=field):
        use_based_config().replace(**{field: 64.5})
