"""Repository quality gates: docstrings, exports, and error hierarchy."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import errors

PACKAGES = [
    "repro", "repro.isa", "repro.vm", "repro.workloads", "repro.frontend",
    "repro.predict", "repro.regfile", "repro.memory",
    "repro.core", "repro.analysis",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":
                continue
            yield importlib.import_module(f"{package_name}.{info.name}")


@pytest.mark.parametrize(
    "module", list(iter_modules()), ids=lambda m: m.__name__
)
def test_every_module_has_docstring(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize(
    "module", list(iter_modules()), ids=lambda m: m.__name__
)
def test_public_callables_documented(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(member) or inspect.isfunction(member):
            assert member.__doc__, (
                f"{module.__name__}.{name} lacks a docstring"
            )


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing {name}"


def test_error_hierarchy():
    assert issubclass(errors.AssemblyError, errors.ReproError)
    assert issubclass(errors.ExecutionError, errors.ReproError)
    assert issubclass(errors.ExecutionLimitExceeded, errors.ExecutionError)
    assert issubclass(errors.ConfigError, errors.ReproError)
    assert issubclass(errors.SimulationError, errors.ReproError)
    assert issubclass(errors.RenameError, errors.SimulationError)
    assert issubclass(errors.RegisterFileError, errors.SimulationError)


def test_assembly_error_carries_line_number():
    error = errors.AssemblyError("bad", line_number=7)
    assert error.line_number == 7
    assert "line 7" in str(error)


def test_version_string():
    assert repro.__version__
