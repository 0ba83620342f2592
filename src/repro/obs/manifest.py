"""Append-only JSONL run manifests.

Every :meth:`repro.analysis.engine.ExperimentEngine.run` call appends
one record per job to a manifest file under the engine's cache
directory, making sweeps auditable after the fact: what ran, with which
config hash and trace provenance, whether it was served from cache, how
long it took, on which worker, and — for failures — the full traceback.
Each run adds one ``run`` record with its totals, including two health
signals recorded nowhere else: ``trace_cache_repairs`` (corrupt
trace-cache entries regenerated) and ``manifest_write_failures``
(manifest writes the filesystem refused, counted by
:class:`ManifestWriter`).

Records are single JSON lines written with one ``os.write`` on an
``O_APPEND`` descriptor, so concurrent engine processes interleave whole
records rather than tearing each other's lines. :func:`read_manifest`
skips corrupt lines silently, so a crash mid-write loses at most that
one record.

Knobs: ``REPRO_MANIFEST=0`` disables manifest writing; any other value
is used as an explicit manifest path (default
``<cache_dir>/manifest.jsonl``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Default manifest file name under the engine cache directory.
MANIFEST_NAME = "manifest.jsonl"


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (0.0 for an empty list).

    Args:
        samples: unsorted observations.
        fraction: percentile as a fraction, e.g. ``0.95``.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def manifest_path_for(cache_dir: str | os.PathLike) -> Path | None:
    """Resolve the manifest location from the env and *cache_dir*.

    Returns None when ``REPRO_MANIFEST`` disables manifests.
    """
    knob = os.environ.get("REPRO_MANIFEST", "")
    if knob.lower() in ("0", "false", "off"):
        return None
    if knob and knob != "1":
        return Path(knob)
    return Path(cache_dir) / MANIFEST_NAME


class ManifestWriter:
    """Appends JSON records to a manifest file, one per line.

    Writing is best-effort: a read-only or full filesystem never fails
    the experiment (mirroring the result cache's contract). Refused
    writes are counted in :attr:`write_failures`, which the engine
    reports in its counters and in each run record.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.write_failures = 0

    def append(self, record: dict) -> bool:
        """Append one record; returns False when the write failed."""
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        return self._write(line)

    def append_all(self, records: list[dict]) -> bool:
        """Append several records in one write (still line-delimited)."""
        if not records:
            return True
        payload = "".join(
            json.dumps(record, sort_keys=True, default=str) + "\n"
            for record in records
        )
        return self._write(payload)

    def _write(self, payload: str) -> bool:
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, payload.encode("utf-8"))
            finally:
                os.close(fd)
            return True
        except OSError:
            self.write_failures += 1
            return False


def read_manifest(path: str | os.PathLike) -> list[dict]:
    """Parse a manifest into its records, oldest first.

    Blank lines, lines that are not JSON and JSON values that are not
    objects are skipped silently; a missing or unreadable file reads as
    no records.
    """
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        return []
    return records
