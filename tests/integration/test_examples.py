"""Integration tests: every shipped example runs end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Every example: the arguments it runs with, and phrases its output
#: must contain.
RUNS = {
    "compare_schemes.py": (
        ["32", "0.12"], ("use-based cache", "monolithic RF, 3 cycles"),
    ),
    "custom_workload.py": ([], ("dot_product",)),
    "lifetime_analysis.py": (["0.12"], ("allocated", "live")),
    "quickstart.py": (["0.12"], ("register cache", "IPC")),
}


def test_every_example_is_run():
    assert sorted(RUNS) == sorted(p.name for p in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_example_runs(name, capsys, monkeypatch):
    argv, phrases = RUNS[name]
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    out = capsys.readouterr().out
    for phrase in phrases:
        assert phrase in out


@pytest.mark.parametrize(
    "name", sorted(p.name for p in EXAMPLES.glob("*.py"))
)
def test_every_example_has_docstring(name):
    text = (EXAMPLES / name).read_text()
    assert text.lstrip().startswith(('"""', "#!"))
