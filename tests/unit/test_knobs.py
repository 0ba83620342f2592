"""Every ``REPRO_*`` environment knob is documented, and only those.

The knobs read under ``src/`` and ``benchmarks/`` and the knobs README.md
names must be the same set, so a new knob cannot ship undocumented and
a removed one cannot linger in the docs. Their count is ratcheted: it
may only fall.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _read_knobs() -> set[str]:
    names: set[str] = set()
    for tree in ("src", "benchmarks"):
        for path in (ROOT / tree).rglob("*.py"):
            names.update(KNOB.findall(path.read_text(encoding="utf-8")))
    return names


def _documented_knobs() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return set(KNOB.findall(readme))


def test_every_read_knob_is_documented():
    assert sorted(_read_knobs() - _documented_knobs()) == []


def test_every_documented_knob_is_read():
    assert sorted(_documented_knobs() - _read_knobs()) == []


def test_knob_count_does_not_grow():
    # A ratchet: lower it when a knob goes, never raise it.
    assert len(_read_knobs()) <= 8
