"""Reading the engine's result-cache entries in tests.

An entry is the JSON array ``[key, row]``, ``row`` being
:meth:`SimStats.to_row`; tests read it through :func:`read_entry` and
find it through :func:`entry_path`, rather than indexing the layout
themselves.
"""

import json
from pathlib import Path

from repro import store
from repro.core.stats import SimStats


def entry_path(engine, key: str) -> Path:
    """Where *engine* keeps the result-cache entry for *key*."""
    return Path(store.path(engine.cache_dir, key, ".json"))


def read_entry(path: Path) -> tuple[str, SimStats]:
    """The ``(key, stats)`` a result-cache entry file holds."""
    key, row = json.loads(path.read_text())
    return key, SimStats.from_row(row)
