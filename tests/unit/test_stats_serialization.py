"""SimStats travels: compact dict form, JSON, and cheap pickling."""

import json
import pickle

from repro.core.config import monolithic_config, use_based_config
from repro.core.pipeline import Pipeline
from repro.core.stats import SimStats
from repro.workloads.suite import load_trace


def _small_stats(config=None):
    trace = load_trace("compress", scale=0.05)
    return Pipeline(
        trace, config or use_based_config(record_lifetimes=True)
    ).run()


def test_lifetime_record_tuple_round_trip():
    """One allocation's four ints survive the dict form in order."""
    stats = SimStats(lifetimes=[3, 7, 20, 31])
    assert SimStats.from_dict(stats.to_dict()).lifetimes == [3, 7, 20, 31]


def test_pack_unpack_lifetimes():
    """The flat log is the serialized form: ``to_dict`` emits a copy of
    it, never the live list, and ``from_dict`` keeps it as given."""
    stats = SimStats(lifetimes=[0, 1, 2, 3, 10, 12, 30, 44])
    flat = stats.to_dict()["lifetimes"]
    assert flat == [0, 1, 2, 3, 10, 12, 30, 44]
    assert flat is not stats.lifetimes
    flat.append(99)
    assert stats.lifetimes == [0, 1, 2, 3, 10, 12, 30, 44]
    data = {"lifetimes": [0, 1, 2, 3]}
    assert SimStats.from_dict(data).lifetimes is data["lifetimes"]
    assert SimStats.from_dict(SimStats().to_dict()).lifetimes == []


def test_to_dict_round_trips_through_json():
    stats = _small_stats()
    data = json.loads(json.dumps(stats.to_dict()))
    rebuilt = SimStats.from_dict(data)
    assert rebuilt.to_dict() == stats.to_dict()
    assert rebuilt.cycles == stats.cycles
    assert rebuilt.lifetimes == stats.lifetimes
    assert rebuilt.cache is not None
    assert rebuilt.cache.misses == stats.cache.misses
    assert rebuilt.ipc == stats.ipc


def test_to_dict_round_trip_without_cache():
    stats = _small_stats(monolithic_config(3))
    assert stats.cache is None
    rebuilt = SimStats.from_dict(stats.to_dict())
    assert rebuilt.cache is None
    assert rebuilt.to_dict() == stats.to_dict()


def test_to_dict_can_drop_lifetimes():
    stats = _small_stats()
    assert stats.lifetimes  # the run produced some
    slim = stats.to_dict(include_lifetimes=False)
    assert slim["lifetimes"] == []
    rebuilt = SimStats.from_dict(slim)
    assert rebuilt.lifetimes == []
    assert rebuilt.retired == stats.retired


def test_pickle_round_trip_is_exact_and_compact():
    stats = _small_stats()
    payload = pickle.dumps(stats)
    rebuilt = pickle.loads(payload)
    assert rebuilt.to_dict() == stats.to_dict()
    # The reduce hook pickles the compact dict, whose lifetime log is
    # one flat int list: the payload is that dict plus the hook's name.
    assert len(payload) < len(pickle.dumps(stats.to_dict())) + 100
