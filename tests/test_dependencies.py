"""The package imports nothing but the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

import ttembed

MODULES = sorted(Path(ttembed.__file__).parent.rglob("*.py"))


def absolute_imports(source: str):
    """(line, top-level package) of every absolute import in `source`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_finds_absolute_imports_only():
    source = "import os.path, scipy\nfrom .planning import x\nfrom numpy.linalg import svd\n"
    assert list(absolute_imports(source)) == [(1, "os"), (1, "scipy"), (3, "numpy")]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "ttmatrix", "training"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    foreign = [
        (line, name)
        for line, name in absolute_imports(path.read_text())
        if name != "numpy" and name not in sys.stdlib_module_names
    ]
    assert foreign == [], f"{path.name} imports outside the standard library and numpy"
