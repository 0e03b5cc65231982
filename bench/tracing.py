"""Per-layer spans and counts, recorded from outside nodeloc.

Each traced function is replaced by a wrapper at the place where its caller
binds it (``setattr(module, name, wrapper)``), so nothing under ``src/`` is
instrumented and only calls made through that binding are seen.  A wrapper
records one span per call: name, start, end and the span it ran inside.
Spans stay in memory and are written out once, when the run ends.  A
layer's self time is its span time minus the time of the spans directly
inside it.  Bindings a later nodeloc no longer has are skipped, and their
metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _graph_nodes(tracer, args, result):
    graph = args[0]
    tracer.counts["graph.vertex_connectivity_nodes"] += getattr(graph, "graph", graph).node_count


def _questions(tracer, args, result):
    # One measurability question per non-failed non-monitor of a CAP/CSP
    # signature; UP signatures ask about paths instead.
    topology, model, truth = args[:3]
    if model.kind != "UP":
        tracer.counts["oracle.measurability_questions"] += topology.sigma - len(set(truth))


def _paths_validated(tracer, args, result):
    tracer.counts["ensemble.paths_validated"] += len(result.paths)


#: (module, attribute, span name, hook).  The module is where the caller
#: looks the function up; ``nodeloc`` itself is where the benchmark does.
BINDINGS = [
    ("nodeloc.conditions", "vertex_connectivity", "graph.vertex_connectivity", _graph_nodes),
    ("nodeloc.auxgraph", "vertex_connectivity", "graph.vertex_connectivity", _graph_nodes),
    ("nodeloc.conditions", "merge_monitors", "auxgraph.merge", None),
    ("nodeloc.conditions", "merge_monitors_leaving_out", "auxgraph.merge", None),
    *[("nodeloc.report", f"{model}_{part}", "conditions", None)
      for model in ("cap", "csp", "up") for part in ("verdicts", "bounds")],
    ("nodeloc.oracle", "simulate_measurements", "oracle.signature", _questions),
    ("nodeloc.oracle", "connected_components", "graph.connected_components", None),
    ("nodeloc.oracle", "max_disjoint_paths", "graph.max_disjoint_paths", None),
    ("nodeloc.cli", "max_identifiability", "oracle.enumerate", None),
    ("nodeloc.cli", "k_identifiable", "oracle.enumerate", None),
    ("nodeloc.cli", "localize", "oracle.enumerate", None),
    ("nodeloc.report", "max_identifiability", "oracle.enumerate", None),
    ("nodeloc", "localize", "oracle.enumerate", None),
    ("nodeloc.cli", "parse_topology", "document.parse_topology", None),
    ("nodeloc", "parse_topology", "document.parse_topology", None),
    ("nodeloc.cli", "parse_path_lines", "document.parse_path_lines", None),
    ("nodeloc.cli", "parse_outcomes", "document.parse_outcomes", None),
    ("nodeloc", "parse_outcomes", "document.parse_outcomes", None),
    ("nodeloc.report", "emit_topology", "document.emit_topology", None),
    ("nodeloc.cli", "emit_topology", "document.emit_topology", None),
    ("nodeloc", "emit_topology", "document.emit_topology", None),
    ("nodeloc.document", "build_ensemble", "ensemble.build_ensemble", _paths_validated),
    ("nodeloc.report", "cover_profile", "ensemble.cover_profile", None),
    ("nodeloc.ensemble", "min_cover_size", "ensemble.min_cover_size", None),
    ("nodeloc.cli", "analyze", "report.analyze", None),
    ("nodeloc.cli", "emit_report", "report.emit_report", None),
    ("nodeloc.cli", "main", "cli.main", None),
    *[("nodeloc", name, "generate", None)
      for name in ("erdos_renyi", "barabasi_albert", "grid", "generate_paths")],
]

#: Reported metric -> (unit, how it is computed from spans and counts).
#: "total" is time inside the spans, "self" excludes the spans inside them.
METRICS = {
    "graph.vertex_connectivity_calls": ("count", ("calls", "graph.vertex_connectivity")),
    "graph.vertex_connectivity_s": ("s", ("total", "graph.vertex_connectivity")),
    "graph.vertex_connectivity_nodes": ("count", ("count", "graph.vertex_connectivity_nodes")),
    "auxgraph.merge_calls": ("count", ("calls", "auxgraph.merge")),
    "auxgraph.merge_s": ("s", ("total", "auxgraph.merge")),
    "conditions.calls": ("count", ("calls", "conditions")),
    "conditions.self_s": ("s", ("self", "conditions")),
    "oracle.signatures": ("count", ("calls", "oracle.signature")),
    "oracle.signature_s": ("s", ("self", "oracle.signature")),
    "oracle.fresh_checks": ("count", ("calls", "graph.connected_components", "graph.max_disjoint_paths")),
    "oracle.measurability_questions": ("count", ("count", "oracle.measurability_questions")),
    "oracle.enumerate_self_s": ("s", ("self", "oracle.enumerate")),
    "graph.max_disjoint_paths_s": ("s", ("total", "graph.max_disjoint_paths")),
    "graph.connected_components_s": ("s", ("total", "graph.connected_components")),
    "document.parse_topology_s": ("s", ("total", "document.parse_topology")),
    "document.parse_path_lines_s": ("s", ("total", "document.parse_path_lines")),
    "document.parse_outcomes_s": ("s", ("total", "document.parse_outcomes")),
    "document.emit_topology_s": ("s", ("total", "document.emit_topology")),
    "ensemble.build_ensemble_s": ("s", ("total", "ensemble.build_ensemble")),
    "ensemble.paths_validated": ("count", ("count", "ensemble.paths_validated")),
    "ensemble.cover_profile_s": ("s", ("total", "ensemble.cover_profile")),
    "ensemble.min_cover_calls": ("count", ("calls", "ensemble.min_cover_size")),
    "report.analyze_self_s": ("s", ("self", "report.analyze")),
    "report.emit_report_s": ("s", ("total", "report.emit_report")),
    "cli.self_s": ("s", ("self", "cli.main")),
    "generate.s": ("s", ("total", "generate")),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.restore: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(span)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.starts.append(time.perf_counter())
            self.ends.append(0.0)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, nl) -> None:
        """Wrap every binding of the freshly imported ``nl`` package."""
        for module_name, attr, span, hook in BINDINGS:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self.restore.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, hook))

    def stop(self) -> None:
        for module, attr, original in reversed(self.restore):
            setattr(module, attr, original)
        self.restore.clear()

    def _durations(self):
        total: defaultdict[str, float] = defaultdict(float)
        inner: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            total[name] += d
            calls[name] += 1
            if self.parents[i] >= 0:
                inner[self.names[self.parents[i]]] += d
        return total, inner, calls

    def metrics(self) -> dict[str, tuple[float, str]]:
        total, inner, calls = self._durations()
        out = {}
        for metric, (unit, (how, *names)) in METRICS.items():
            if how == "total":
                value = sum(total[n] for n in names)
            elif how == "self":
                value = sum(total[n] - inner[n] for n in names)
            elif how == "calls":
                value = sum(calls[n] for n in names)
            else:
                value = sum(self.counts[n] for n in names)
            out[metric] = (value, unit)
        questions = self.counts["oracle.measurability_questions"]
        fresh = out["oracle.fresh_checks"][0]
        # Base: oracle.measurability_questions; 0 when the oracle asked none.
        out["oracle.reuse_ratio"] = (1.0 - fresh / questions if questions else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        """One JSON array per span: [id, name, start, end, parent id or -1]."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i] - origin, self.ends[i] - origin,
                                     self.parents[i]]) + "\n")
