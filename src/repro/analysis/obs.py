"""Observability CLI: engine run-manifest summaries.

::

    python -m repro.analysis.obs summarize <manifest.jsonl> [-o out.json]

``summarize`` rolls an engine run manifest (see
:mod:`repro.obs.manifest`) into a flat summary — job counts, cache
hit/miss totals, failure records, wall-clock aggregates — suitable for
archiving next to an experiment's output.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.obs.manifest import read_manifest, summarize_manifest


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see module docstring); exits 0."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.obs",
        description="Engine run-manifest summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="summarize a run manifest")
    p_sum.add_argument("manifest", help="path to manifest.jsonl")
    p_sum.add_argument("-o", "--output", help="write summary JSON here")

    args = parser.parse_args(argv)

    summary = summarize_manifest(read_manifest(args.manifest))
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
