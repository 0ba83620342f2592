"""`repro.obs` — the observability subsystem.

Two small, dependency-free modules. Every signal they carry lands in
an artifact something reads — the run manifest or the log; the numbers
of a run itself live in :class:`~repro.core.stats.SimStats` and in the
engine's counters (``meta["engine"]`` of every experiment result).

* :mod:`repro.obs.manifest` — append-only JSONL run manifests recording
  what every engine run actually did (job identity, cache hit/miss,
  wall-clock, failures, worker pids), and their reader.
* :mod:`repro.obs.log` — ``logging`` setup (``REPRO_LOG_LEVEL``) and the
  progress reporter the engine uses for jobs-done/ETA/hit-rate lines.
"""

from repro.obs.log import ProgressReporter, get_logger, setup_logging
from repro.obs.manifest import ManifestWriter, read_manifest

__all__ = [
    "ManifestWriter",
    "ProgressReporter",
    "get_logger",
    "read_manifest",
    "setup_logging",
]
