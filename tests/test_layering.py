"""Import layering of the package, read from each module's source with ``ast``.

The oracle imports no conditions: it reads d and dm off the topology value,
which computes each once in the graph primitives, and delta off the ensemble
value, which searches each node's cover once in the ensembles; the
conditions are compared with its answers.  Neither the conditions nor the
oracle imports the connectivity functions.  The independent check on both
is ``tests/bruteforce.py``, which sweeps every failure set.  The graph
primitives sit below everything but the error taxonomy.
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


def test_no_module_imports_hashlib_at_module_level():
    # hashlib loads OpenSSL, which only a report's digest needs: analyze
    # imports it where it hashes, so importing the package never loads it.
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        names = {alias.name for node in body if isinstance(node, ast.Import) for alias in node.names}
        names |= {node.module for node in body if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert not {"hashlib", "_hashlib"} & names, path.name


def test_reader_sees_relative_imports():
    assert "Topology" in _imports("conditions")["graph"]


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
    return _named_calls(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), name)


def _named_calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def test_thresholds_are_read_only_in_graph():
    # The conditions and the oracle read d and dm off the topology value;
    # only graph calls the connectivity functions, and holds the cap rule.
    readers = ("monitor_connectivity", "_leave_one_out_connectivity")
    for module in ("conditions", "oracle"):
        assert not set(readers) & set().union(*_imports(module).values()), module
        assert [call for name in readers for call in _calls(module, name)] == [], module
    holders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "max(d - 1, 0)" in path.read_text(encoding="utf-8")
    ]
    assert holders == ["graph.py"]


def test_cover_search_runs_only_in_ensemble():
    # One search fills each ensemble value's memo: only ensemble holds the
    # branching rule or touches the memo, and the oracle reads delta through
    # it, never through the guarded public functions.
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, text in sources.items() if "min(unhit, key=len)" in text] == ["ensemble.py"]
    assert [name for name, text in sources.items() if "._covers" in text] == ["ensemble.py"]
    assert not {"cover_profile", "min_cover_size"} & _imports("oracle")["ensemble"]
    assert _calls("oracle", "cover_profile") == _calls("oracle", "min_cover_size") == []


def test_no_call_passes_max_candidates():
    # The exact-cover guard is a constant: no parameter or call raises it.
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call) for kw in node.keywords]
        names += [node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)]
        assert "max_candidates" not in names, path.name


def test_bounds_are_built_by_one_rule():
    # Every regime's bounds are the verdict table's span, built in one place
    # with no formula branch; verdict_table builds every regime's table with
    # one call of _table and its bounds with one call of _bounds.
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
    table = functions["verdict_table"]
    assert len(_named_calls(table, "_table")) == len(_named_calls(table, "_bounds")) == 1
    assert [name for name, f in functions.items() if _named_calls(f, "_table") or _named_calls(f, "_bounds")] == [
        "verdict_table"
    ]
    # No regime branch reaches past the one pair of calls: both come last, unconditionally.
    assert [ast.unparse(node) for node in table.body[-2:]] == [
        "verdicts = _table(sigma, threshold, exact, rationale)",
        "return (verdicts, _bounds(verdicts, note))",
    ]
