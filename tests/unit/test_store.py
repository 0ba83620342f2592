"""The disk store shared by the result cache and the trace cache.

One fingerprint, one path layout, one read and one atomic publish
(:mod:`repro.store`). Each cache fingerprints its own scope of the
package: the trace cache the sources that can change a trace, the
result cache every source but the reporting layer.
"""

import os
import shutil
from pathlib import Path

import pytest

from repro import store
from repro.analysis.engine import _REPORTING_SOURCES
from repro.workloads.suite import _TRACE_SOURCES


def _tree(root: Path, files: dict[str, str]) -> str:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_fingerprint_separates_path_from_content(tmp_path):
    """A file's bytes cannot run into the next file's path."""
    one = _tree(tmp_path / "one", {"x.py": "y.pyz"})
    two = _tree(tmp_path / "two", {"x.py": "", "y.py": "z"})
    assert store.fingerprint(package=one) != store.fingerprint(package=two)


def test_fingerprint_hashes_only_python_sources(tmp_path):
    base = _tree(tmp_path / "base", {"a.py": "A = 1\n"})
    more = _tree(tmp_path / "more", {"a.py": "A = 1\n", "notes.txt": "x"})
    assert store.fingerprint(package=base) == store.fingerprint(package=more)


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    """A copy of the package sources, to edit without touching them."""
    root = tmp_path_factory.mktemp("package") / "repro"
    shutil.copytree(store.PACKAGE_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _edited(package_copy: Path, tmp_path: Path, top: str) -> str:
    """A copy of *package_copy* with one source under *top* edited."""
    root = tmp_path / "edited"
    shutil.copytree(package_copy, root)
    target = root / top
    if target.is_dir():
        target = sorted(target.rglob("*.py"))[0]
    with open(target, "a") as handle:
        handle.write("\n# edited\n")
    return str(root)


@pytest.mark.parametrize("top, moves", [
    ("isa", True), ("vm", True), ("workloads", True),
    ("core", False), ("analysis", False), ("errors.py", False),
])
def test_trace_scope_moves_only_on_trace_sources(
    package_copy, tmp_path, top, moves,
):
    before = store.fingerprint(_TRACE_SOURCES, package=str(package_copy))
    edited = _edited(package_copy, tmp_path, top)
    after = store.fingerprint(_TRACE_SOURCES, package=edited)
    assert (after != before) is moves


@pytest.mark.parametrize("top, moves", [
    ("core", True), ("regfile", True), ("vm", True), ("workloads", True),
    ("store.py", True), ("errors.py", True), ("analysis", False),
])
def test_result_scope_moves_on_any_edit_outside_analysis(
    package_copy, tmp_path, top, moves,
):
    scope = {"exclude": _REPORTING_SOURCES}
    before = store.fingerprint(**scope, package=str(package_copy))
    edited = _edited(package_copy, tmp_path, top)
    after = store.fingerprint(**scope, package=edited)
    assert (after != before) is moves


def test_layout_and_round_trip(tmp_path):
    key = "ab" + "c" * 62
    assert store.path(tmp_path, key, ".json") == os.path.join(
        tmp_path, "ab", "c" * 62 + ".json",
    )
    assert store.read(tmp_path, key, ".json") is None
    store.write(tmp_path, key, ".json", b"[1]")
    assert store.read(tmp_path, key, ".json") == b"[1]"
    store.write(tmp_path, key, ".json", b"[2]")  # publishes over it
    assert store.read(tmp_path, key, ".json") == b"[2]"
    assert [p.name for p in (tmp_path / "ab").iterdir()] == ["c" * 62 + ".json"]


def test_refused_publish_leaves_no_tmp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    store.write(tmp_path, "ab" + "c" * 62, ".trace", b"data")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_unwritable_root_never_raises(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    store.write(blocker, "ab" + "c" * 62, ".json", b"data")
    assert store.read(blocker, "ab" + "c" * 62, ".json") is None


@pytest.mark.parametrize("value, on", [
    (None, True), ("1", True), ("0", False), ("false", False),
    ("OFF", False),
])
def test_one_switch(monkeypatch, value, on):
    if value is None:
        monkeypatch.delenv("REPRO_CACHE", raising=False)
    else:
        monkeypatch.setenv("REPRO_CACHE", value)
    assert store.enabled() is on
