"""Pipeline debugging aids: textual per-instruction timelines.

Run a pipeline with ``record_timing=True`` and render a window of the
execution as a pipetrace — one line per dynamic instruction showing
dispatch-to-retire occupancy. Invaluable when validating dependence
timing against the paper's Figure 3.

Example::

    config = MachineConfig(record_timing=True)
    pipeline = Pipeline(trace, config)
    pipeline.run()
    print(render_timeline(pipeline, first_seq=0, count=20))
"""

from __future__ import annotations

from repro.core.pipeline import Pipeline

#: Stage glyphs used in the timeline.
ISSUE = "I"
READ = "r"
EXECUTE = "E"
DONE = "."


def render_timeline(
    pipeline: Pipeline,
    first_seq: int = 0,
    count: int = 20,
    max_width: int = 100,
) -> str:
    """Render issue/read/execute occupancy for a window of instructions.

    Args:
        pipeline: a completed pipeline run with ``record_timing`` on.
        first_seq: first dynamic-instruction sequence number to show.
        count: number of instructions.
        max_width: clip the cycle axis to this many columns.

    Returns:
        The rendered timeline (one line per instruction).

    Raises:
        ValueError: if the pipeline was run without timing recording.
    """
    if not pipeline.issue_log:
        raise ValueError(
            "render_timeline needs a pipeline run with "
            "config.record_timing=True"
        )
    window = [
        pipeline.issue_log[seq]
        for seq in range(first_seq, first_seq + count)
        if seq in pipeline.issue_log
    ]
    if not window:
        return "(no instructions in the requested window)"
    base = min(op.issue_time for op in window)
    end = max(op.exec_end for op in window) + 1
    span = min(end - base + 1, max_width)

    lines = [
        f"cycles {base}..{base + span - 1} "
        f"({ISSUE}=issue {READ}=storage read {EXECUTE}=execute)"
    ]
    for op in window:
        cells = [" "] * span

        def put(cycle: int, glyph: str) -> None:
            offset = cycle - base
            if 0 <= offset < span:
                cells[offset] = glyph

        put(op.issue_time, ISSUE)
        for cycle in range(op.issue_time + 1, op.exec_start):
            put(cycle, READ)
        for cycle in range(op.exec_start, op.exec_end + 1):
            put(cycle, EXECUTE)
        text = str(op.dyn.inst)
        lines.append(f"{op.seq:5d} {text[:28]:28s} |{''.join(cells)}|")
    return "\n".join(lines)


def dependence_report(pipeline: Pipeline, seq: int) -> str:
    """Describe how one instruction's operands were satisfied.

    Returns a short human-readable summary of the instruction's issue
    and execution times. Operand sourcing detail requires cross-checking
    the producing instructions, which the caller can do with
    :func:`render_timeline` over the surrounding window.
    """
    op = pipeline.issue_log.get(seq)
    if op is None:
        return f"seq {seq}: never issued (or timing not recorded)"
    return (
        f"seq {seq}: {op.dyn.inst}  issued@{op.issue_time} "
        f"exec[{op.exec_start}..{op.exec_end}] "
        f"sources={[producer.dest_preg for producer in op.sources]}"
    )
