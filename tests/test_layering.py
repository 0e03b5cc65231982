"""Import layering of the package, read from each module's source with ``ast``.

The oracle imports no conditions: it reads d and dm from the graph
primitives and delta from the ensembles, and the conditions are compared with
its answers.  The independent check on both is ``tests/bruteforce.py``,
which sweeps every failure set.  The graph primitives sit below everything
but the error taxonomy.
"""

from __future__ import annotations

import ast
from pathlib import Path

import nodeloc

PACKAGE = Path(nodeloc.__file__).parent


def _imports(module: str) -> dict[str, set[str]]:
    """Each nodeloc module ``module`` imports from, mapped to the names it takes."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module or ""
            elif node.module and node.module.startswith("nodeloc."):
                source = node.module.removeprefix("nodeloc.")
            else:
                continue
            found.setdefault(source, set()).update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("nodeloc."):
                    found.setdefault(alias.name.removeprefix("nodeloc."), set())
    return found


def test_reader_sees_relative_imports():
    assert "monitor_connectivity" in _imports("conditions")["graph"]


def test_oracle_imports_only_ensemble_errors_and_graph():
    assert set(_imports("oracle")) <= {"ensemble", "errors", "graph"}


def test_graph_imports_only_errors():
    assert set(_imports("graph")) <= {"errors"}
