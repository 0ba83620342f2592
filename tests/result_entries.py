"""Reading the engine's result-cache entries in tests.

An entry is the JSON array ``[key, row]``, ``row`` being
:meth:`SimStats.to_row`; tests read it through :func:`read_entry` rather
than indexing the layout themselves.
"""

import json
from pathlib import Path

from repro.core.stats import SimStats


def read_entry(path: Path) -> tuple[str, SimStats]:
    """The ``(key, stats)`` a result-cache entry file holds."""
    key, row = json.loads(path.read_text())
    return key, SimStats.from_row(row)
