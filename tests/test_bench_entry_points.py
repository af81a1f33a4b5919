"""The names the benchmark reaches into the package by resolve.

perfbench/tracer.py wraps each (module, function) of its TRACED table by
name, and perfbench/oracles.py and perfbench/worker.py import from the
package.  The files are parsed, not imported or run, so a name the
package lost fails here, in the tier-1 suite, before the benchmark's
self-check would meet it.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced() -> list[tuple[str, str]]:
    """(module, function) of every row of tracer.py's TRACED table."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("perfbench/tracer.py has no TRACED table")


def _imports(name: str) -> list[tuple[str, str]]:
    """(module, name) of every ``from realpathsim... import name`` in a file."""
    tree = ast.parse((BENCH / name).read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "realpathsim"
        for alias in node.names
    ]


def test_the_tables_are_read():
    assert ("realpathsim.cli", "main") in _traced()
    assert ("realpathsim.lattice", "transfer_amplitude") in _imports("oracles.py")


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, name", _imports("oracles.py") + _imports("worker.py"))
def test_benchmark_import_resolves(module, name):
    package = importlib.import_module(module)
    if not hasattr(package, name):
        # `from realpathsim import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
