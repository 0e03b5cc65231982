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
    assert "cover_profile" not in _imports("oracle")["ensemble"]
    assert _calls("oracle", "cover_profile") == []


def test_cover_guard_has_one_site_each_way():
    # cover_profile is the one guarded read of the cover memo and the
    # oracle's stranding level the one unguarded read, so no second reader
    # can refuse, or skip the refusal, on its own terms.
    sites, calls = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += len(_named_calls(tree, "_cover"))
        owner = {}  # call: innermost enclosing function, as ast.walk visits outer ones first
        for f in ast.walk(tree):
            if isinstance(f, ast.FunctionDef):
                owner.update((node, f.name) for node in ast.walk(f) if isinstance(node, ast.Call))
        sites += [
            (path.stem, name, ast.unparse(kw.value))
            for node, name in owner.items()
            for kw in node.keywords
            if kw.arg == "guarded"
        ]
    assert sorted(sites) == [("ensemble", "cover_profile", "True"), ("oracle", "_stranding_level", "False")]
    assert calls == len(sites)


def test_each_oracle_rule_is_stated_once():
    # R(F) is decided in one place: oracle._reached runs the neighbour
    # certificate and walks only when it fails, so the two graph walks hold no
    # certificate.  The maximum reads k_identifiable's verdict at J, which
    # alone holds the level-J sweep and CAP's "no twins at J" rule.
    def calls(tree, name):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
        ]

    functions = {
        (path.stem, f.name): f
        for path in sorted(PACKAGE.glob("*.py"))
        for f in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(f, ast.FunctionDef)
    }
    assert [key for key, f in functions.items() for _ in calls(f, "_certified")] == [("oracle", "_reached")]
    for walk in ("_connected_to_monitors", "_biconnected_to_monitors"):
        assert calls(functions["graph", walk], "_certified") == [], walk
    maximum = functions["oracle", "max_identifiability"]
    assert calls(maximum, "_first_collision") == []
    assert len(calls(maximum, "k_identifiable")) == 1


def test_package_is_within_its_line_cap():
    # The package's size cap, counted as ``wc -l src/nodeloc/*.py`` counts it.
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= 2310, lines


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


def test_flow_arcs_are_built_by_one_rule():
    # Every flow runs on the arcs of one network per topology value: one
    # function builds them (the only one that adds an arc to a node), the
    # Topology memo alone calls it, and _FlowNet reads them off that memo.
    # Only the two flow front ends construct a _FlowNet, which holds one flow's
    # capacities.
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert [stem for stem, tree in modules.items() for _ in _named_calls(tree, "_node_split_network")] == ["graph"]
    assert [stem for stem, tree in modules.items() for _ in _named_calls(tree, "_FlowNet")] == ["graph"] * 2
    graph = modules["graph"]
    functions = {f.name: f for f in ast.walk(graph) if isinstance(f, ast.FunctionDef)}
    classes = {c.name: c for c in graph.body if isinstance(c, ast.ClassDef)}
    memo = [node for node in classes["Topology"].body if _named_calls(node, "_node_split_network")]
    assert [ast.unparse(node) for node in memo] == [
        "_flow_network = cached_property(lambda self: _node_split_network(self))"
    ]
    arc_adders = {
        name
        for name, f in functions.items()
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append"
        and isinstance(node.func.value, ast.Subscript)
        and getattr(node.func.value.value, "id", getattr(node.func.value.value, "attr", None)) == "adj"
    }
    assert arc_adders == {"_node_split_network"}
    assert [f.name for f in classes["_FlowNet"].body if isinstance(f, ast.FunctionDef)] == [
        "__init__", "max_flow", "_bfs_levels", "_blocking_flow"
    ]
    readers = [
        name for name, f in functions.items() for node in ast.walk(f)
        if isinstance(node, ast.Attribute) and node.attr == "_flow_network"
    ]
    assert readers == ["__init__"]
    assert [name for name, f in functions.items() if _named_calls(f, "_FlowNet")] == [
        "disjoint_paths", "_capped_connectivity"
    ]
