"""End-to-end tests of the observability subsystem.

Covers the acceptance criteria of the ``repro.obs`` work: an engine
sweep writes a JSONL manifest whose totals match the engine's counters
and the ``obs summarize`` CLI, and the result cache survives concurrent
writers.
"""

import json
import threading

import pytest

from repro.analysis.engine import ExperimentEngine, SimJob
from repro.analysis.obs import main as obs_main
from repro.core.config import lru_config, use_based_config
from repro.obs.manifest import read_manifest, summarize_manifest

SCALE = 0.06


# ----------------------------------------------------------------------
# Engine manifests.


class TestEngineManifest:
    def _jobs(self, with_failure=False):
        jobs = [
            SimJob(config=use_based_config(), trace_name=name, scale=SCALE)
            for name in ("compress", "pointer_chase")
        ]
        if with_failure:
            jobs.append(SimJob(
                config=lru_config(), trace_name="no_such_kernel",
                scale=SCALE,
            ))
        return jobs

    def test_manifest_totals_match_engine(self, tmp_path):
        engine = ExperimentEngine(
            workers=1, cache_dir=tmp_path, use_cache=True,
        )
        engine.run(self._jobs())          # cold: everything executes
        engine.run(self._jobs())          # warm: everything cached
        results = engine.run(
            self._jobs(with_failure=True), raise_on_error=False,
        )

        manifest = tmp_path / "manifest.jsonl"
        assert manifest.exists()
        records = read_manifest(manifest)
        summary = summarize_manifest(records)

        # Totals agree with what the engine actually did.
        assert summary["jobs"] == 7
        assert summary["runs"] == 3
        assert summary["cache_hits"] == engine.counters.cache_hits == 4
        assert summary["cache_misses"] == engine.counters.executed == 3
        assert summary["errors"] == engine.counters.errors == 1
        assert summary["wall_seconds"] == pytest.approx(
            engine.counters.job_seconds, abs=1e-3,
        )

        # The failure record carries the real traceback.
        [failure] = summary["failures"]
        assert "no_such_kernel" in failure["job"]
        assert "Traceback" in str(
            next(r for r in records if r.get("status") == "error")["error"]
        )
        assert not results[-1]  # JobFailure slots are falsy

    def test_run_records_include_provenance(self, tmp_path):
        engine = ExperimentEngine(
            workers=1, cache_dir=tmp_path, use_cache=True,
        )
        engine.run(self._jobs())
        records = read_manifest(tmp_path / "manifest.jsonl")
        job_records = [r for r in records if r["kind"] == "job"]
        run_records = [r for r in records if r["kind"] == "run"]
        assert len(job_records) == 2 and len(run_records) == 1
        for record in job_records:
            assert record["trace"] == ["compress", SCALE, None] or (
                record["trace"] == ["pointer_chase", SCALE, None]
            )
            assert record["config_hash"]
            assert record["key"]
            assert record["worker"]  # executed, so a real pid
        assert run_records[0]["jobs"] == 2
        assert run_records[0]["executed"] == 2

    def test_manifest_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST", "0")
        engine = ExperimentEngine(
            workers=1, cache_dir=tmp_path, use_cache=True,
        )
        assert engine.manifest is None
        engine.run(self._jobs()[:1])
        assert not (tmp_path / "manifest.jsonl").exists()

    def test_counters_expose_wall_percentiles(self, tmp_path):
        engine = ExperimentEngine(
            workers=1, cache_dir=tmp_path, use_cache=False,
        )
        before = engine.counters.snapshot()
        engine.run(self._jobs())
        delta = engine.counters.since(before)
        assert delta["executed"] == 2
        assert delta["job_seconds_p50"] > 0
        assert delta["job_seconds_p95"] >= delta["job_seconds_p50"]

    def test_obs_cli_summarize_matches_engine(self, tmp_path, capsys):
        engine = ExperimentEngine(
            workers=1, cache_dir=tmp_path, use_cache=True,
        )
        engine.run(self._jobs())
        assert obs_main(
            ["summarize", str(tmp_path / "manifest.jsonl")],
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jobs"] == 2
        assert summary["errors"] == 0


# ----------------------------------------------------------------------
# Concurrent cache writers.


class TestConcurrentCacheWriters:
    def test_racing_writers_and_readers_never_tear(self, tmp_path):
        engine = ExperimentEngine(
            workers=1, cache_dir=tmp_path, use_cache=True,
        )
        job = SimJob(
            config=use_based_config(), trace_name="compress", scale=SCALE,
        )
        [stats] = engine.run([job])
        expected = stats.to_dict()
        key = job.cache_key()
        entry, _ = engine._validate_result(stats, key)

        errors: list[BaseException] = []

        def writer():
            try:
                for _ in range(20):
                    engine._cache_store(key, entry)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(40):
                    loaded = engine._cache_load(job)
                    # A reader may race the very first publish (miss),
                    # but must never see a torn/partial entry.
                    if loaded is not None:
                        assert loaded.to_dict() == expected
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = (
            [threading.Thread(target=writer) for _ in range(4)]
            + [threading.Thread(target=reader) for _ in range(4)]
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # No leftover tmp files once all writers finished.
        leftovers = [
            p for p in tmp_path.rglob("*.tmp.*") if p.is_file()
        ]
        assert leftovers == []
        assert engine._cache_load(job).to_dict() == expected
