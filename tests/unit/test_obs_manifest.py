"""Unit tests for JSONL run manifests (write, read, path resolution)."""

from repro.obs.manifest import (
    MANIFEST_NAME,
    ManifestWriter,
    manifest_path_for,
    percentile,
    read_manifest,
)


class TestWriterAndReader:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        writer = ManifestWriter(path)
        assert writer.append({"kind": "job", "job": "a", "status": "ok"})
        assert writer.append({"kind": "job", "job": "b", "status": "error"})
        records = read_manifest(path)
        assert [r["job"] for r in records] == ["a", "b"]

    def test_append_all_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ManifestWriter(path).append_all([
            {"kind": "job", "job": "a"},
            {"kind": "run", "jobs": 1},
        ])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_append_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "m.jsonl"
        assert ManifestWriter(path).append({"kind": "job"})
        assert path.exists()

    def test_append_is_best_effort_on_bad_path(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        # Parent "directory" is a regular file -> OSError -> False.
        writer = ManifestWriter(blocker / "sub" / "m.jsonl")
        assert writer.append({"kind": "job"}) is False
        assert writer.write_failures == 1

    def test_non_json_values_serialized_via_str(self, tmp_path):
        path = tmp_path / "m.jsonl"
        ManifestWriter(path).append({"kind": "job", "path": tmp_path})
        [record] = read_manifest(path)
        assert record["path"] == str(tmp_path)

    def test_reader_skips_corrupt_and_non_dict_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"kind": "job", "job": "a"}\n'
            "{truncated...\n"
            "[1, 2, 3]\n"
            "\n"
            '{"kind": "job", "job": "b"}\n'
        )
        records = read_manifest(path)
        assert [r["job"] for r in records] == ["a", "b"]

    def test_reader_returns_empty_for_missing_file(self, tmp_path):
        assert read_manifest(tmp_path / "nope.jsonl") == []


class TestPathResolution:
    def test_default_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_MANIFEST", raising=False)
        assert manifest_path_for(tmp_path) == tmp_path / MANIFEST_NAME

    def test_disable_values(self, tmp_path, monkeypatch):
        for value in ("0", "false", "off"):
            monkeypatch.setenv("REPRO_MANIFEST", value)
            assert manifest_path_for(tmp_path) is None

    def test_explicit_path_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST", str(tmp_path / "elsewhere.jsonl"))
        assert manifest_path_for(tmp_path) == tmp_path / "elsewhere.jsonl"


class TestSummary:
    """The nearest-rank percentile behind the engine's p50/p95 counters."""

    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.95) == 7.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0
