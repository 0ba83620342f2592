"""ASCII rendering of experiment results.

Every experiment in :mod:`repro.analysis.experiments` returns an
:class:`ExperimentResult`; :func:`render` turns one into the aligned
text table recorded in EXPERIMENTS.md and printed by the experiments
CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """Structured output of one paper experiment.

    Attributes:
        experiment_id: paper artifact id (e.g. "fig11", "table2").
        title: human-readable experiment title.
        headers: column names.
        rows: row cells; numbers are formatted by :func:`render`.
        notes: free-form commentary (paper-vs-measured remarks).
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""
    meta: dict[str, object] = field(default_factory=dict)


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.4f}"
    return str(value)


def _engine_note(meta: dict) -> str | None:
    """One-line engine-activity summary from ``meta["engine"]``."""
    engine = meta.get("engine")
    if not isinstance(engine, dict) or not engine.get("jobs"):
        return None
    parts = [
        f"engine: {engine.get('jobs', 0)} jobs",
        f"{engine.get('cache_hits', 0)} cached",
        f"{engine.get('executed', 0)} run",
    ]
    errors = engine.get("errors", 0)
    if errors:
        parts.append(f"{errors} FAILED")
    seconds = engine.get("engine_seconds")
    if isinstance(seconds, (int, float)):
        parts.append(f"{seconds:.2f}s")
    p95 = engine.get("job_seconds_p95")
    if p95:
        parts.append(f"job p95 {p95:.3f}s")
    return ", ".join(parts)


def render(result: ExperimentResult) -> str:
    """Render an experiment result as an aligned ASCII table.

    Besides the table and ``notes``, two meta entries surface in the
    output when present: ``meta["engine"]`` (the engine counter deltas
    recorded by the experiment wrapper) becomes a one-line activity
    note, and ``meta["failures"]`` (a list of strings or dicts with a
    ``job``/``error``) becomes per-failure notes — so a rendered
    artifact always shows whether its data is complete.
    """
    table = [result.headers] + [
        [_format_cell(cell) for cell in row] for row in result.rows
    ]
    widths = [
        max(len(row[col]) for row in table)
        for col in range(len(result.headers))
    ]
    lines = [f"== {result.experiment_id}: {result.title} =="]
    header = "  ".join(
        cell.ljust(width) for cell, width in zip(table[0], widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in table[1:]:
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    if result.notes:
        lines.append("")
        for note_line in result.notes.strip().splitlines():
            lines.append(f"  note: {note_line.strip()}")
    engine_note = _engine_note(result.meta)
    failures = result.meta.get("failures") or []
    if engine_note or failures:
        lines.append("")
    if engine_note:
        lines.append(f"  {engine_note}")
    for failure in failures:
        if isinstance(failure, dict):
            job = failure.get("job", "?")
            error = str(failure.get("error", "")).strip().splitlines()
            detail = error[-1] if error else ""
            lines.append(f"  failed: {job}{': ' if detail else ''}{detail}")
        else:
            lines.append(f"  failed: {failure}")
    return "\n".join(lines)


def to_json(result: ExperimentResult) -> str:
    """Serialize an experiment result as JSON.

    The output is machine-readable for downstream tooling (plotting,
    regression tracking); :func:`from_json` round-trips it.
    """
    import json

    return json.dumps({
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": result.headers,
        "rows": result.rows,
        "notes": result.notes,
        "meta": result.meta,
    }, indent=2)


def from_json(text: str) -> ExperimentResult:
    """Reconstruct an :class:`ExperimentResult` from :func:`to_json`."""
    import json

    data = json.loads(text)
    return ExperimentResult(
        experiment_id=data["experiment_id"],
        title=data["title"],
        headers=list(data["headers"]),
        rows=[list(row) for row in data["rows"]],
        notes=data.get("notes", ""),
        meta=dict(data.get("meta", {})),
    )
