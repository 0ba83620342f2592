"""The paper's qualitative shapes, checked on every experiment result.

The reproduction targets shapes — orderings, trends, crossovers — not
absolute numbers (EXPERIMENTS.md). :data:`CLAIMS` maps each name of
:data:`repro.analysis.experiments.EXPERIMENTS` to a function that
yields ``(claim, holds)`` pairs for that experiment's result; the
experiments CLI evaluates them after it renders each table and exits 4
when any claim breaks.

The checks index the tables that the experiments' default grids
produce (``python -m repro.analysis.experiments all``). Slacks such as
``- 0.01`` are absolute IPC (or fraction) tolerances; none is derived
from measured seed spread yet.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.analysis.report import ExperimentResult

_Claims = Iterator[tuple[str, bool]]


def _numeric(result: ExperimentResult) -> dict[int, list]:
    """Rows keyed by their integer first cell (sizes, latencies)."""
    return {r[0]: r[1:] for r in result.rows if isinstance(r[0], int)}


def _labelled(result: ExperimentResult, label: str) -> list:
    return next(r for r in result.rows if r[0] == label)


def _table1(result: ExperimentResult) -> _Claims:
    for parameter, ours, paper in result.rows:
        yield f"{parameter}: ours {ours} equals the paper's {paper}", ours == paper


def _fig1(result: ExperimentResult) -> _Claims:
    _, empty, live, dead = _labelled(result, "MEAN")
    yield "live time is a small slice of the lifetime (live < empty + dead)", (
        live < empty + dead
    )
    yield "registers spend cycles dead before being freed", dead > 0


def _fig2(result: ExperimentResult) -> _Claims:
    meta = result.meta
    yield "median live values < half the allocated registers", (
        meta["live_p50"] < 0.5 * meta["alloc_p50"]
    )
    yield "p90 live values < 128 (of 512 registers)", meta["live_p90"] < 128


def _fig6(result: ExperimentResult) -> _Claims:
    by_size = _numeric(result)
    rf3 = _labelled(result, "RF 3-cycle")[4]
    for size, (direct, two_way, four_way, full) in by_size.items():
        yield f"2-way >= direct - 0.01 at {size} entries", two_way >= direct - 0.01
        yield f"4-way >= 2-way - 0.01 at {size} entries", four_way >= two_way - 0.01
        yield f"full >= 4-way - 0.01 at {size} entries", full >= four_way - 0.01
    yield "2-way at 128 entries >= 2-way at 16", by_size[128][1] >= by_size[16][1]
    yield "64-entry 2-way beats the 3-cycle register file", by_size[64][1] > rf3


def _fig7(result: ExperimentResult) -> _Claims:
    # Columns per assoc (1, 2, 4): ipc, conflicts; [3] is 2-way conflicts.
    rows = {r[0]: r[1:] for r in result.rows}
    preg = rows["preg"][3]
    decoupled = ("round_robin", "minimum", "filtered_rr")
    for policy in decoupled:
        yield f"{policy} adds no 2-way conflicts over preg", rows[policy][3] <= preg
    yield "some decoupled policy cuts 2-way conflicts below preg", (
        min(rows[p][3] for p in decoupled) < preg
    )


def _fig8(result: ExperimentResult) -> _Claims:
    # Columns: filtered, capacity, conflict, total.
    rows = {(r[0], r[1]): r[2:] for r in result.rows}
    yield "LRU never filters writes (standard)", rows[("lru", "standard")][0] == 0
    yield "LRU never filters writes (decoupled)", rows[("lru", "decoupled")][0] == 0
    nb_total = rows[("non_bypass", "decoupled")][3]
    yield "non-bypass total misses exceed LRU's at 64 entries", (
        nb_total > rows[("lru", "decoupled")][3]
    )
    yield "use-based total misses below non-bypass", (
        rows[("use_based", "decoupled")][3] < nb_total
    )
    for scheme in ("lru", "non_bypass", "use_based"):
        standard = rows[(scheme, "standard")][2]
        yield f"{scheme}: decoupled conflicts <= standard x 1.05", (
            rows[(scheme, "decoupled")][2] <= standard * 1.05
        )


def _fig9(result: ExperimentResult) -> _Claims:
    # Columns: cache rd, cache wr, RF rd, RF wr.
    rows = {r[0]: r[1:] for r in result.rows}
    yield "use-based cache write bandwidth below LRU", (
        rows["use_based"][1] < rows["lru"][1]
    )
    yield "non-bypass cache write bandwidth below LRU", (
        rows["non_bypass"][1] < rows["lru"][1]
    )
    for scheme, (cache_rd, _cache_wr, rf_rd, rf_wr) in rows.items():
        yield f"{scheme}: cache reads and RF writes happen", cache_rd > 0 and rf_wr > 0
        yield f"{scheme}: the cache filters most reads from the RF", rf_rd < cache_rd


def _fig10(result: ExperimentResult) -> _Claims:
    # Columns: cached never read, writes filtered, never cached.
    rows = {r[0]: r[1:] for r in result.rows}
    yield "use-based caches fewer never-read values than LRU", (
        rows["use_based"][0] < rows["lru"][0]
    )
    yield "non-bypass caches fewer never-read values than LRU", (
        rows["non_bypass"][0] < rows["lru"][0]
    )
    yield "LRU filters no writes", rows["lru"][1] == 0
    yield "use-based never-cached fraction >= non-bypass x 0.9", (
        rows["use_based"][2] >= rows["non_bypass"][2] * 0.9
    )
    yield "LRU never-cached fraction <= 0.01", rows["lru"][2] <= 0.01


def _table2(result: ExperimentResult) -> _Claims:
    # Columns: reads/cached value, cache count, occupancy, lifetime.
    rows = {r[0]: r[1:] for r in result.rows}
    lru, nb, ub = rows["lru"], rows["non_bypass"], rows["use_based"]
    yield "reads per cached value: use-based > non-bypass > LRU", ub[0] > nb[0] > lru[0]
    yield "cache count: LRU > non-bypass > use-based", lru[1] > nb[1] > ub[1]
    yield "LRU caches every value at least once (count >= 0.99)", lru[1] >= 0.99
    yield "occupancy: LRU > use-based", lru[2] > ub[2]
    yield "entry lifetime: use-based > non-bypass > LRU", ub[3] > nb[3] > lru[3]


def _fig11(result: ExperimentResult) -> _Claims:
    # Columns: lru, non_bypass, use_based, use_based 4w, two_level.
    rows = _numeric(result)
    rf3 = _labelled(result, "RF 3-cyc")[5]
    for size in (16, 32):
        lru, non_bypass, use_based, _, _ = rows[size]
        yield f"use-based > LRU at {size} entries", use_based > lru
        yield f"use-based > non-bypass at {size} entries", use_based > non_bypass
    yield "use-based's lead over LRU is larger at 16 entries than at 64", (
        rows[16][2] - rows[16][0] > rows[64][2] - rows[64][0]
    )
    yield "4-way at 32 entries >= 2-way at 64 - 0.01", rows[32][3] >= rows[64][2] - 0.01
    yield "64-entry use-based beats the 3-cycle register file", rows[64][2] > rf3
    yield "two-level at 16 entries <= two-level at 64", rows[16][4] <= rows[64][4]


def _fig12(result: ExperimentResult) -> _Claims:
    # Columns: lru, non_bypass, use_based, two_level.
    rows = _numeric(result)
    rf3 = _labelled(result, "RF 3-cyc")[3]
    for col, scheme in enumerate(("lru", "non_bypass", "use_based")):
        yield f"{scheme}: IPC at latency 5 <= latency 1 + 0.02", (
            rows[5][col] <= rows[1][col] + 0.02
        )

    def drop(col: int) -> float:
        return (rows[1][col] - rows[5][col]) / rows[1][col]

    yield "use-based drop (1 -> 5) <= LRU's + 0.02", drop(2) <= drop(0) + 0.02
    yield "use-based drop (1 -> 5) <= non-bypass's + 0.02", drop(2) <= drop(1) + 0.02
    yield "two-level drop (1 -> 5) <= use-based's + 0.02", drop(3) <= drop(2) + 0.02
    yield "use-based at backing latency 2 beats the 3-cycle register file", (
        rows[2][2] > rf3
    )


def _tuning_max_use(result: ExperimentResult) -> _Claims:
    by_value = {r[0]: r[1] for r in result.rows}
    yield "max_use 7 >= max_use 2 - 0.005", by_value[7] >= by_value[2] - 0.005
    yield "flat beyond the knee: |max_use 12 - max_use 7| < 0.03", (
        abs(by_value[12] - by_value[7]) < 0.03
    )


def _tuning_defaults(result: ExperimentResult) -> _Claims:
    unknown = {r[1]: r[2] for r in result.rows if r[0] == "unknown"}
    fill = {r[1]: r[2] for r in result.rows if r[0] == "fill"}
    yield "unknown default 1 within 0.01 of the best unknown default", (
        unknown[1] >= max(unknown.values()) - 0.01
    )
    yield "fill default 0 >= fill default 2 - 0.01", fill[0] >= fill[2] - 0.01


def _predictor(result: ExperimentResult) -> _Claims:
    _, accuracy, coverage = _labelled(result, "ALL")
    yield "aggregate accuracy > 0.9 (paper: 97%)", accuracy > 0.9
    yield "coverage > 0.7", coverage > 0.7


def _s34_noise(result: ExperimentResult) -> _Claims:
    # Columns: mean ipc, miss rate, pred accuracy.
    rows = {r[0]: r[1:] for r in result.rows}
    clean, noisy = rows[0.0], rows[0.6]
    yield "noise 0.6 lowers predictor accuracy", noisy[2] < clean[2]
    yield "noise 0.6 does not lower the miss rate", noisy[1] >= clean[1] - 1e-6
    yield "noise 0.6 keeps IPC above 0.9 x noiseless", noisy[0] > clean[0] * 0.9


def _ablations(result: ExperimentResult) -> _Claims:
    rows = {r[0]: r[1] for r in result.rows}
    full = rows["full use-based"]
    for label, ipc in rows.items():
        yield f"{label} IPC <= full use-based + 0.02", ipc <= full + 0.02


#: Claim checks per experiment, keyed like ``EXPERIMENTS``.
CLAIMS: dict[str, Callable[[ExperimentResult], _Claims]] = {
    "table1": _table1,
    "fig1": _fig1,
    "fig2": _fig2,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "table2": _table2,
    "fig11": _fig11,
    "fig12": _fig12,
    "tuning_max_use": _tuning_max_use,
    "tuning_defaults": _tuning_defaults,
    "predictor": _predictor,
    "s34_noise": _s34_noise,
    "ablations": _ablations,
}


def broken_claims(name: str, result: ExperimentResult) -> list[str]:
    """The claims of experiment *name* that *result* breaks."""
    return [claim for claim, holds in CLAIMS[name](result) if not holds]
