"""Faulting the engine through its own seams, in tests.

:class:`FaultyPipeline` is the real pipeline with one fault armed
against chosen jobs. :func:`arm` binds it to the rebindable
``repro.analysis.engine.Pipeline``, so the engine's one job path meets
the fault exactly where a production sweep would. A pool worker runs the
rebound pipeline only when it is forked from the test process (a spawned
or forkserver worker imports the engine afresh), so a test that needs
that carries :data:`needs_fork`.
"""

import multiprocessing
import os
import random

import pytest

from repro.analysis import engine as engine_mod
from repro.core.pipeline import Pipeline

#: The process the tests run in, which a ``crash`` must never kill.
HOST_PID = os.getpid()

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit a rebound engine.Pipeline only when forked",
)


def identity(job):
    """What :class:`FaultyPipeline` knows a job by: trace and config."""
    return job.trace_name, job.config.config_hash()


class FaultyPipeline(Pipeline):
    """The real pipeline, faulting its victims one way.

    ``fault`` is ``crash`` (the forked pool worker exits), ``error``
    (``run`` raises), ``invalid`` (the result breaks a conservation
    invariant) or ``interrupt`` (``run`` raises ``KeyboardInterrupt``,
    as Ctrl-C mid-sweep does); ``victims`` holds the :func:`identity`
    of each job it faults.
    """

    fault = ""
    victims = frozenset()

    def run(self):
        if (self.trace.name, self.config.config_hash()) not in self.victims:
            return super().run()
        if self.fault == "crash":
            if os.getpid() == HOST_PID:
                raise RuntimeError("a crash outside a pool worker")
            os._exit(117)
        if self.fault == "error":
            raise RuntimeError("faulted job")
        if self.fault == "interrupt":
            raise KeyboardInterrupt
        stats = super().run()
        stats.retired = -stats.retired - 1
        return stats


def arm(monkeypatch, fault, victims=()):
    """Make the engine fault the jobs *victims* the *fault* way;
    ``arm(monkeypatch, None)`` gives it back the real pipeline."""
    monkeypatch.setattr(FaultyPipeline, "fault", fault)
    monkeypatch.setattr(
        FaultyPipeline, "victims", frozenset(map(identity, victims)),
    )
    monkeypatch.setattr(
        engine_mod, "Pipeline", Pipeline if fault is None else FaultyPipeline,
    )


def draw_hits(count, seed):
    """Which of *count* jobs to fault, drawn from *seed*: some, never
    none or all."""
    rng = random.Random(seed)
    victims = set(rng.sample(range(count), rng.randint(1, count - 1)))
    return [index in victims for index in range(count)]
