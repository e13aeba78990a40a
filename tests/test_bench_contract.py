"""The benchmark in bench/ reaches into ttembed by name: run.py imports the
modules in its MODULES tuple, tracing.py wraps the attribute paths in
its TARGETS, and workloads.py calls <module>.<name> on the modules run.py
hands it.  Renaming or dropping one of them fails here, not only in a
benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _run_modules() -> tuple:
    """MODULES from bench/run.py, read without importing it (the import
    sets BLAS environment variables)."""
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MODULES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no MODULES")


def _trace_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _workload_names() -> list:
    """Every <module>.<name> that bench/workloads.py reaches through
    `mods.<module>` or `self.mods.<module>`, or through a local alias named
    after one of run.py's MODULES, read without importing it."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Attribute) and ast.unparse(base.value) in ("mods", "self.mods"):
            names.add(f"{base.attr}.{node.attr}")
        elif isinstance(base, ast.Name) and base.id in MODULES:
            names.add(f"{base.id}.{node.attr}")
    return sorted(names)


MODULES = _run_modules()
TARGETS = _trace_targets()
WORKLOAD_NAMES = _workload_names()


@pytest.mark.parametrize("name", MODULES)
def test_run_module_imports(name):
    importlib.import_module(f"ttembed.{name}")


@pytest.mark.parametrize("span, path", sorted(TARGETS.items()), ids=sorted(TARGETS))
def test_trace_target_resolves(span, path):
    first, *rest = path.split(".")
    assert first in MODULES, f"{span}: module {first!r} is not imported by bench/run.py"
    owner = importlib.import_module(f"ttembed.{first}")
    for part in rest:
        assert hasattr(owner, part), f"{span}: {path} does not resolve at {part!r}"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {path} is not callable"


def test_workloads_reach_names():
    assert WORKLOAD_NAMES, "no <module>.<name> found in bench/workloads.py"


@pytest.mark.parametrize("path", WORKLOAD_NAMES)
def test_workload_name_resolves(path):
    module, name = path.split(".")
    assert module in MODULES, f"{path}: module {module!r} is not imported by bench/run.py"
    assert hasattr(importlib.import_module(f"ttembed.{module}"), name), f"{path} does not resolve"
