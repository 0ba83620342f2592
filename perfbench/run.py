"""End-to-end and per-layer benchmark of ``experiments all``.

Runs the experiment registry (``repro.analysis.experiments.EXPERIMENTS``)
at a pinned scale over the 8-kernel default suite, in one of these
workloads:

* ``all-cold``: empty result and trace caches, serial execution;
* ``all-warm``: a result cache filled beforehand, so no job simulates.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload all-cold --seed 1 --seconds 20 --trace 0

Each repetition is a fresh process (``rep.py``). ``--trace 0`` prints the
end-to-end metrics, as medians over the repetitions; ``--trace 1`` adds
one traced repetition and prints the per-layer metrics. End-to-end times
are host seconds scaled to a reference host speed (``gauge.py``); the
summary lines before the JSON also give them unscaled. The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when any job or experiment
failed, the oracle found a violation, or the digest of the results
differs from another repetition or from an earlier run of the same code
at the same scale and seed. See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The registry's workload scale. Below about 0.05 every kernel runs at
#: its minimum size, so a cold registry costs about 30 s of host time at
#: any smaller scale; 0.02 keeps that floor.
SCALE = 0.02

#: Set-up samples per run on the cold workload: this many set-up-only
#: processes, plus the set-up of each measured repetition. Set-up is
#: about 0.4 s, so host noise needs several samples.
SETUP_ONLY_SAMPLES = 5

#: No single repetition may run longer than this, seconds.
REP_TIMEOUT = 150.0

#: Measured repetitions start no later than would end them this many
#: seconds after the first, leaving room for a traced repetition within
#: the 180 s a run may take.
MEASURE_BUDGET = 90.0

#: Cross-run record of digests and simulated counts, per code and inputs.
DIGESTS = ROOT / ".perfbench-digests.json"

#: Where traced runs write their spans.
SPANS_DIR = ROOT / ".perfbench-spans"


@dataclass(frozen=True)
class Workload:
    warm: bool
    why: str


WORKLOADS = {
    "all-cold": Workload(
        warm=False,
        why="every artifact from empty caches, serially: the timing loop "
            "does most of the work",
    ),
    "all-warm": Workload(
        warm=True,
        why="every artifact from a filled result cache: no simulation, "
            "only keying, cache reads and aggregation",
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_kips": "kinst/s",
    "peak_rss_mb": "MB",
    "job_ok_ratio": "ratio",
}


class BenchError(Exception):
    """A repetition could not run or produced no result."""


@dataclass
class Report:
    """Everything one run measured."""

    workload: str
    reps: list[dict] = field(default_factory=list)
    #: Results of set-up-only processes and of measured repetitions.
    setups: list[dict] = field(default_factory=list)
    traced: dict | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        runs = self.reps + ([self.traced] if self.traced else [])
        return sum(rep["jobs"] for rep in runs)

    @property
    def failed(self) -> int:
        runs = self.reps + ([self.traced] if self.traced else [])
        return sum(rep["failed"] for rep in runs)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0 and self.attempted > 0

    def samples(self) -> dict[str, list[float]]:
        """Every end-to-end metric's samples in this run.

        Times are host seconds scaled to the reference host speed (see
        ``gauge.py``); :meth:`host_samples` gives them unscaled.
        """
        warm = WORKLOADS[self.workload].warm
        insts = "delivered_insts" if warm else "executed_insts"
        return {
            "wall_s": [rep["wall_ref_s"] for rep in self.reps],
            "setup_s": [setup["setup_ref_s"] for setup in self.setups],
            "sim_kips": [
                rep[insts] / 1000.0 / rep["wall_ref_s"] for rep in self.reps
            ],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in self.reps],
            "job_ok_ratio": [1.0 - self.failed / max(1, self.attempted)],
        }

    def host_samples(self) -> dict[str, list[float]]:
        """Unscaled host seconds of the timed parts and the set-ups."""
        return {
            "host_wall_s": [rep["wall_s"] for rep in self.reps],
            "host_setup_s": [setup["setup_s"] for setup in self.setups],
        }

    def end_to_end(self) -> dict[str, float]:
        """The median of each end-to-end metric's samples."""
        return {
            name: statistics.median(values)
            for name, values in self.samples().items()
        }

    def per_layer(self) -> dict[str, float]:
        metrics = dict(self.traced["layers"])
        metrics["bench.trace_overhead_ratio"] = (
            self.traced["wall_ref_s"] / self.end_to_end()["wall_s"]
        )
        return metrics


def _spawn(
    *,
    out: Path,
    cache_dir: Path,
    manifest: Path,
    seed: int | None,
    scale: float,
    workers: int,
    experiments: str,
    setup_only: bool = False,
    spans: Path | None = None,
) -> dict:
    """Run one repetition in a fresh interpreter; return its result."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(SRC),
        "REPRO_JOBS": str(workers),
        "REPRO_CACHE_DIR": str(cache_dir),
        "REPRO_MANIFEST": str(manifest),
        "REPRO_SCALE": repr(scale),
    })
    command = [
        sys.executable, str(HERE / "rep.py"), "--out", str(out),
        "--scale", repr(scale), "--workers", str(workers),
        "--experiments", experiments,
    ]
    if seed is not None:
        command += ["--seed", str(seed)]
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", str(spans)]
    command += ["--t0", repr(time.monotonic())]
    try:
        completed = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"repetition exceeded {REP_TIMEOUT}s") from error
    if completed.returncode != 0 or not out.exists():
        raise BenchError(
            f"repetition exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(out.read_text())


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_against_history(
    key: str, digest: str, sim: dict | None, errors: list[str],
) -> None:
    """Compare with, then extend, the digests of earlier runs."""
    try:
        history = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        history = {}
    entry = history.setdefault(key, {"digest": digest})
    if entry["digest"] != digest:
        errors.append(
            f"results digest {digest} differs from an earlier run's "
            f"{entry['digest']}"
        )
    if sim is not None:
        if entry.setdefault("sim", sim) != sim:
            errors.append(f"sim counts {sim} differ from an earlier "
                          f"run's {entry['sim']}")
    tmp = DIGESTS.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(history, sort_keys=True, indent=1))
    os.replace(tmp, DIGESTS)


def measure(
    workload: str,
    *,
    seed: int | None = None,
    seconds: float = 20.0,
    trace: bool = False,
    scale: float = SCALE,
    experiments: str = "",
) -> Report:
    """Run *workload*; the repetitions' timed parts total at least *seconds*."""
    spec = WORKLOADS[workload]
    report = Report(workload)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    counter = itertools.count()

    def spawn(cache: Path, workers: int = 1, **kwargs) -> dict:
        index = next(counter)
        return _spawn(
            out=work / f"rep{index}.json", cache_dir=cache,
            manifest=work / f"manifest{index}.jsonl", seed=seed,
            scale=scale, workers=workers, experiments=experiments, **kwargs,
        )

    def fresh_cache() -> Path:
        return work / f"cache{next(counter)}"

    try:
        digests: set[str] = set()
        if spec.warm:
            # Fill the caches with both CPUs; the warm repetitions must
            # then reproduce the pool's results from the cache exactly.
            cache = fresh_cache()
            filled = spawn(cache, workers=2)
            digests.add(filled["digest"])
            report.errors += filled["errors"]
            cache_for = lambda: cache  # noqa: E731
        else:
            cache_for = fresh_cache
            for _ in range(SETUP_ONLY_SAMPLES):
                report.setups.append(spawn(fresh_cache(), setup_only=True))
        measured = 0.0
        last = 0.0
        stop_by = time.monotonic() + MEASURE_BUDGET
        while not report.reps or (
            measured < seconds and time.monotonic() + last < stop_by
        ):
            began = time.monotonic()
            rep = spawn(cache_for())
            last = time.monotonic() - began
            report.reps.append(rep)
            report.setups.append(rep)
            report.errors += rep["errors"]
            digests.add(rep["digest"])
            measured += rep["wall_s"]
        sim = None
        if trace:
            label = "default" if seed is None else str(seed)
            report.traced = spawn(
                cache_for(), spans=SPANS_DIR / f"{workload}-seed{label}.json",
            )
            report.errors += report.traced["errors"]
            digests.add(report.traced["digest"])
            sim = {name: value
                   for name, value in report.traced["layers"].items()
                   if name.startswith("sim.")}
        if len(digests) > 1:
            report.errors.append(
                f"repetitions disagree on the results digest: {sorted(digests)}"
            )
        history_key = f"{scale!r}:{seed}:{experiments or 'all'}:{_source_hash()}"
        _check_against_history(history_key, min(digests), sim, report.errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


def _summary(name: str, values: list[float]) -> str:
    """One metric's median, quartiles and sample count."""
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{name}: median {statistics.median(values):.6g} "
            f"q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")


def _stop(signum, frame):
    # Unwind through subprocess.run and the work-directory cleanup, which
    # kill the running repetition and wait for it.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="kernel data seed (default: each kernel's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--experiments", default="",
                        help="comma-separated registry ids (default: all)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _stop)
    try:
        report = measure(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), scale=args.scale,
            experiments=args.experiments,
        )
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2

    print(f"{args.workload} seed={args.seed} scale={args.scale}")
    for samples in (report.samples(), report.host_samples()):
        for name, values in samples.items():
            print(_summary(name, values))
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": layers.unit_of(name)}
            for name, value in report.per_layer().items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in report.end_to_end().items()
        }
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
