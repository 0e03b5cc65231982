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


def test_conditions_imports_only_ensemble_errors_and_graph():
    assert set(_imports("conditions")) <= {"ensemble", "errors", "graph"}


def test_graph_imports_only_errors():
    assert set(_imports("graph")) <= {"errors"}


def test_oracle_reads_no_adjacency():
    # Every graph search the oracle makes is a nodeloc.graph primitive.
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "adjacency"
    ]
    assert reads == []


def _calls(module: str, name: str) -> list[ast.Call]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def test_leave_one_out_cap_is_decided_in_graph():
    # Both readers of dm pass d; the cap rule lives in the graph primitive.
    for module in ("conditions", "oracle"):
        calls = _calls(module, "_leave_one_out_connectivity")
        assert len(calls) == 1, module
        assert [ast.unparse(arg) for arg in calls[0].args] == ["topology", "d"], module
        assert calls[0].keywords == [], module
    holders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "max(d - 1, 0)" in path.read_text(encoding="utf-8")
    ]
    assert holders == ["graph.py"]


def test_bounds_are_built_by_one_rule():
    # Every regime's bounds are the verdict table's span, built in one place
    # with no formula branch; UP's bounds are a call to it.
    def builds(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "IdentifiabilityBounds"
        ]

    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert [stem for stem, tree in modules.items() for _ in builds(tree)] == ["conditions"]
    functions = {f.name: f for f in ast.walk(modules["conditions"]) if isinstance(f, ast.FunctionDef)}
    assert len(builds(functions["_bounds"])) == 1
    assert not any(isinstance(node, ast.If) for node in ast.walk(functions["_bounds"]))
    assert ast.unparse(functions["up_bounds"].body[-1]) == "return _bounds(up_verdicts(profile), '')"
