"""Deterministic, seed-driven fault injection (``REPRO_FAULTS``).

The engine, trace factory, and manifest writer contain *injection
points*: named sites where a controlled fault can be triggered. Every
decision hashes ``(seed, site, identity)`` — the same plan always
faults the same jobs and entries — so chaos tests are reproducible.

Plan specs are comma/semicolon-separated ``key=value`` pairs::

    REPRO_FAULTS="seed=42,crash=0.5,corrupt_cache=1.0,times=1"

Recognized keys:

* ``seed`` — integer mixed into every decision hash (default 0).
* ``times`` — how many times a write-side site may fire for one
  identity in one process (default 1), so the re-store after a repair
  is written clean.
* one probability in ``[0, 1]`` per site. Job-level sites: ``crash``
  (worker calls ``os._exit``; raised as :class:`InjectedFault` on the
  in-process serial path so the host survives), ``interrupt``
  (``KeyboardInterrupt`` before a serial job, simulating Ctrl-C
  mid-sweep), ``bad_stats`` (a finished job's statistics are corrupted
  so engine-side validation must reject them). Write-side sites:
  ``corrupt_cache`` (result-cache entry written truncated),
  ``truncate_trace`` (packed trace written truncated), ``enospc``
  (manifest write raises ``OSError(ENOSPC)``).

A job-level site decides on ``(seed, site, identity)`` alone
(:func:`job_fault`), so a pool worker and the host agree, and a job it
hits fails the same way on every run while the plan is armed. A
write-side site (:func:`fire`) also counts its firings per process, up
to ``times``.
"""

from __future__ import annotations

import errno
import hashlib
import os
from dataclasses import dataclass, field
from types import MappingProxyType

#: Every injection point wired into the library.
FAULT_SITES = (
    "crash", "corrupt_cache", "truncate_trace", "enospc",
    "interrupt", "bad_stats",
)

#: Exit status used by the ``crash`` site (distinctive in waitpid logs).
CRASH_EXIT_CODE = 117


class InjectedFault(Exception):
    """An injected fault surfaced as an exception.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults model infrastructure failures, and must not be catchable by
    ``except ReproError`` blocks meant for library errors.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Parsed ``REPRO_FAULTS`` plan; immutable and hashable."""

    seed: int = 0
    times: int = 1
    rates: MappingProxyType = field(
        default_factory=lambda: MappingProxyType({})
    )

    def rate(self, site: str) -> float:
        return self.rates.get(site, 0.0)

    def decide(self, site: str, identity: str, occurrence: int = 0) -> bool:
        """Whether *site* faults *identity* on its *occurrence*-th chance.

        Pure function of the plan: hash ``(seed, site, identity)`` to a
        uniform draw in [0, 1) and compare against the site's rate;
        occurrences at or beyond ``times`` never fault.
        """
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0 or occurrence >= self.times:
            return False
        material = f"{self.seed}\x1f{site}\x1f{identity}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return draw < rate


def parse_plan(spec: str) -> FaultPlan | None:
    """Parse a ``REPRO_FAULTS`` spec string.

    Returns ``None`` for an empty/disabled spec (``""``, ``0``,
    ``off``). Raises :class:`ValueError` on malformed input so typos in
    test setups fail loudly.
    """
    spec = (spec or "").strip()
    if spec.lower() in ("", "0", "false", "off"):
        return None
    seed = 0
    times = 1
    rates: dict[str, float] = {}
    for token in spec.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"REPRO_FAULTS: expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "seed":
            seed = int(value)
        elif key == "times":
            times = int(value)
        elif key in FAULT_SITES:
            rate = float(value)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"REPRO_FAULTS: rate for {key!r} must be in [0, 1]"
                )
            rates[key] = rate
        else:
            raise ValueError(
                f"REPRO_FAULTS: unknown key {key!r}; sites are "
                f"{', '.join(FAULT_SITES)}"
            )
    if not rates:
        return None
    return FaultPlan(
        seed=seed, times=times, rates=MappingProxyType(rates),
    )


# ----------------------------------------------------------------------
# Process-wide plan (memoized per env value) and occurrence tracking.

_plan_memo: tuple[str | None, FaultPlan | None] | None = None
_warned_spec: str | None = None
_occurrences: dict[tuple[str, str], int] = {}


def get_plan() -> FaultPlan | None:
    """The active plan from ``REPRO_FAULTS`` (``None`` when disabled).

    A malformed spec logs one warning and disables injection rather
    than breaking production runs.
    """
    global _plan_memo, _warned_spec
    spec = os.environ.get("REPRO_FAULTS")
    if _plan_memo is not None and _plan_memo[0] == spec:
        return _plan_memo[1]
    plan: FaultPlan | None = None
    if spec:
        try:
            plan = parse_plan(spec)
        except ValueError as error:
            if spec != _warned_spec:
                from repro.obs.log import get_logger

                get_logger("faults").warning(
                    "ignoring malformed REPRO_FAULTS: %s", error,
                )
                _warned_spec = spec
            plan = None
    _plan_memo = (spec, plan)
    return plan


def enabled() -> bool:
    """True when a fault plan is armed (cheap; memoized per env value)."""
    return get_plan() is not None


def reset() -> None:
    """Forget the memoized plan and all occurrence counts (tests)."""
    global _plan_memo, _warned_spec
    _plan_memo = None
    _warned_spec = None
    _occurrences.clear()


def job_fault(site: str, identity: str) -> bool:
    """Should job-level *site* fault the job *identity*?

    A pure function of the plan — correct across worker processes,
    which start with fresh module state — so the same job faults on
    every run while the plan is armed.
    """
    plan = get_plan()
    return plan is not None and plan.decide(site, identity)


def fire(site: str, identity: str = "") -> bool:
    """Should write-side *site* fault now?

    A per-process occurrence counter for ``(site, identity)`` feeds the
    decision, so a site armed with ``times=1`` faults once and then
    behaves.
    """
    plan = get_plan()
    if plan is None:
        return False
    key = (site, str(identity))
    occurrence = _occurrences.get(key, 0)
    if not plan.decide(site, identity, occurrence):
        return False
    _occurrences[key] = occurrence + 1
    return True


# ----------------------------------------------------------------------
# Site helpers (each one line at its call site).


def crash_point(identity: str, allow_exit: bool = False) -> None:
    """``crash`` site: kill this process (worker) or raise (serial)."""
    if not job_fault("crash", identity):
        return
    if allow_exit:
        os._exit(CRASH_EXIT_CODE)
    raise InjectedFault(
        "injected worker crash (raised, not exited: in-process execution)"
    )


def interrupt_point(identity: str) -> None:
    """``interrupt`` site: simulate Ctrl-C landing mid-sweep."""
    if job_fault("interrupt", identity):
        raise KeyboardInterrupt("injected mid-sweep interrupt")


def enospc_point(identity: str) -> None:
    """``enospc`` site: fail a write the way a full filesystem would."""
    if fire("enospc", identity):
        raise OSError(errno.ENOSPC, "No space left on device (injected)")


def corrupt_bytes(site: str, identity: str, data: bytes) -> bytes:
    """Truncate a cache entry's *data* to a third when *site* fires."""
    if fire(site, identity):
        return data[: max(1, len(data) // 3)]
    return data
