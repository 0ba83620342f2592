"""One repetition of a benchmark workload, in a process of its own.

``run.py`` spawns this script once per repetition, so every repetition
pays imports and trace loading as a user's ``experiments all`` does. The
engine knobs (``REPRO_JOBS``, ``REPRO_CACHE_DIR``, ``REPRO_MANIFEST``,
``REPRO_SCALE``) come from the environment ``run.py`` builds.

Set-up is everything from the spawn time the parent passes in ``--t0``
until the registry can run: interpreter start, imports, and loading the
default suite's traces through the trace factory with the workload seed.
The timed part then runs every requested entry of
``repro.analysis.experiments.EXPERIMENTS`` and renders its table, as the
experiments CLI does. The host-speed gauge (``gauge.py``) samples right
after set-up and between experiments, outside the timed part, so both
times are also reported scaled to the reference host speed.

With ``--spans FILE`` the repetition is traced (see ``layers.py``): it
records spans, checks every simulated ``(trace, stats)`` pair with
``repro.testing.oracle.check_run`` between experiments (outside the
timed part), and writes the spans to FILE when it ends.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import gauge
import layers


def _digest_material(result) -> bytes:
    """The reproducible part of an ExperimentResult.

    ``meta["engine"]`` carries wall clock and cache activity, which differ
    between a cold and a warm run of the same code, so it is left out.
    """
    meta = {key: value for key, value in result.meta.items() if key != "engine"}
    return json.dumps(
        [result.experiment_id, result.headers, result.rows, meta],
        sort_keys=True, default=repr,
    ).encode()


def _peak_rss_mb() -> float:
    """This process's peak resident set."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result_bytes(cache_dir: Path, since: float) -> int:
    """Size of the result-cache files written at or after *since*."""
    total = 0
    for path in cache_dir.glob("*/*.json"):
        stat = path.stat()
        if stat.st_mtime >= since:
            total += stat.st_size
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--scale", required=True, type=float)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--experiments", default="",
                        help="comma-separated registry ids (default: all)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    import repro.analysis.experiments as experiments
    import repro.workloads.suite as suite
    from repro.analysis.engine import get_engine
    from repro.obs.manifest import read_manifest
    from repro.testing import oracle

    tracer = None
    if args.spans is not None:
        tracer = layers.Tracer()
        layers.install(tracer)

    seed = args.seed

    def load_traces(names=suite.DEFAULT_SUITE, scale=0.3):
        # The registry's trace loader with the workload seed bound in;
        # seed None keeps each kernel's own seed.
        return {
            name: suite.load_trace(name, scale=scale, seed=seed)
            for name in names
        }

    experiments.load_traces = load_traces
    traces = load_traces(suite.DEFAULT_SUITE, args.scale)
    setup_s = time.monotonic() - args.t0
    scaler = gauge.Scaler()
    out: dict = {"setup_s": setup_s, "setup_ref_s": scaler.scale(setup_s)}
    if args.setup_only:
        args.out.write_text(json.dumps(out))
        return 0

    ids = [name for name in args.experiments.split(",") if name] or list(
        experiments.EXPERIMENTS
    )
    engine = get_engine()
    errors: list[str] = []
    digest = hashlib.sha256()
    started_at = time.time()
    start = time.perf_counter()
    for experiment in ids:
        runner = experiments.EXPERIMENTS[experiment]
        began = time.perf_counter()
        span = tracer.begin(f"fig.{experiment}") if tracer else -1
        try:
            result = runner()
            experiments.render(result)
        except Exception:
            errors.append(f"{experiment}: {traceback.format_exc()}")
            continue
        finally:
            if tracer:
                tracer.end(span)
            scaler.add(time.perf_counter() - began)
        digest.update(_digest_material(result))
        if result.meta.get("failures"):
            errors.append(f"{experiment}: {result.meta['failures']}")
        if tracer:
            tracer.paused = True
            for trace, stats in tracer.unchecked:
                for violation in oracle.check_run(trace, stats):
                    errors.append(f"{experiment}: oracle: {violation}")
            tracer.unchecked.clear()
            tracer.paused = False
        scaler.close()
    scaler.close(force=True)
    end = time.perf_counter()
    wall_s = scaler.host_s

    counters = engine.counters.snapshot()
    manifest_path = engine.manifest.path if engine.manifest else None
    records = [
        record for record in read_manifest(manifest_path)
        if record.get("kind") == "job"
    ] if manifest_path else []
    lengths = {name: len(trace) for name, trace in traces.items()}
    executed = [record for record in records if not record["cached"]]
    out.update({
        "wall_s": wall_s,
        "wall_ref_s": scaler.reference_s,
        "digest": digest.hexdigest(),
        "jobs": counters["jobs"],
        "failed": counters["errors"],
        "executed": counters["executed"],
        "executed_insts": sum(
            lengths[record["trace"][0]] for record in executed
            if record["status"] == "ok"
        ),
        "delivered_insts": sum(
            lengths[record["trace"][0]] for record in records
            if record["status"] == "ok"
        ),
        "busy_s": sum(record["wall"] for record in executed),
        "peak_rss_mb": _peak_rss_mb(),
        "errors": errors,
    })
    if tracer:
        trace_counts = suite.trace_counters()
        out["layers"] = layers.layer_metrics(
            tracer,
            kernels=suite.DEFAULT_SUITE,
            experiment_ids=list(experiments.EXPERIMENTS),
            counters=counters,
            trace_counts={
                "generated": trace_counts.generated,
                "loaded": trace_counts.loaded,
            },
            trace_insts=sum(lengths.values()),
            workers=args.workers,
            busy_seconds=out["busy_s"],
            wall_seconds=wall_s,
            result_bytes=_result_bytes(engine.cache_dir, started_at),
            manifest_bytes=(
                manifest_path.stat().st_size
                if manifest_path and manifest_path.exists() else 0
            ),
        )
        out["self_sum_s"] = layers.self_time_within(tracer.spans, start, end)
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps(tracer.spans))
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
