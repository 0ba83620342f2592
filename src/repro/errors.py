"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AssemblyError(ReproError):
    """Raised when assembly source cannot be assembled into a program."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ExecutionError(ReproError):
    """Raised when the functional VM encounters an illegal operation."""


class ExecutionLimitExceeded(ExecutionError):
    """Raised when a program exceeds its dynamic instruction budget."""


class ConfigError(ReproError):
    """Raised when a machine configuration is internally inconsistent."""


class LifetimesNotRecorded(ReproError):
    """Raised when a lifetime analysis is given a run that did not
    record its lifetime log (``MachineConfig.record_lifetimes`` off)."""


class EngineError(ReproError):
    """Raised when the experiment engine cannot produce a result.

    Wraps per-job failures (with their worker tracebacks) so a sweep
    that fans out across processes still surfaces the first underlying
    simulator error to the caller.
    """


class SimulationError(ReproError):
    """Raised when the timing model reaches an impossible state.

    This always indicates a bug in the simulator (or memory corruption in
    a trace), never a property of the simulated workload.
    """


class RenameError(SimulationError):
    """Raised on illegal rename-stage operations (e.g. freeing twice)."""


class RegisterFileError(SimulationError):
    """Raised on illegal register-storage operations."""
