"""The package's public surface: exported names and the signatures callers rely on."""

from __future__ import annotations

import dataclasses
import inspect

import nodeloc

PUBLIC_NAMES = [
    "CAP", "CSP",
    "CapacityError", "CoverProfile", "DEFAULT_GUARD",
    "DistinguishingPath", "FailureSet", "FormatError", "INFINITE_COVER",
    "Identifiability", "IdentifiabilityBounds", "IndistinguishablePair", "InputError",
    "InternalError", "NodelocError", "PathEnsemble",
    "ProbingModel", "Topology", "TopologyDocument", "UsageError",
    "Verdict", "Witness", "analyze",
    "barabasi_albert", "build_ensemble",
    "conditions", "connected_components", "cover_profile",
    "disjoint_paths", "distinguishable", "document", "emit_outcomes",
    "emit_report", "emit_topology", "ensemble", "erdos_renyi", "errors",
    "find_measurable_path", "generate",
    "generate_paths", "graph", "grid",
    "k_identifiable", "localize", "max_identifiability",
    "min_cover_size",
    "monitor_connectivity", "oracle", "parse_outcomes", "parse_topology", "reformat_report", "report",
    "simulate_measurements", "up_model", "verdict_table",
]

# Topology's public fields, properties and methods.
TOPOLOGY_MEMBERS = [
    "adjacency", "edges", "monitors", "neighbors",
    "node_count", "nodes", "non_monitors", "sigma",
]

# Parameter names and defaults of the functions whose bodies share one code
# path with another public function, or that must take no guard knob.
PARAMETERS = {
    "verdict_table": [("topology", None), ("model", None)],
    "disjoint_paths": [
        ("topology", None), ("source", None), ("targets", None), ("forbidden", ()), ("limit", None)
    ],
    "monitor_connectivity": [("topology", None), ("left_out", None)],
    "min_cover_size": [("ensemble", None), ("v", None)],
    "cover_profile": [("ensemble", None)],
    "emit_report": [("report", None), ("fmt", "json")],
    "reformat_report": [("data", None), ("fmt", None)],
}


def _parameters(fn):
    return [
        (p.name, None if p.default is inspect.Parameter.empty else p.default)
        for p in inspect.signature(fn).parameters.values()
    ]


def test_exported_names():
    assert sorted(nodeloc.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 55
    assert all(hasattr(nodeloc, name) for name in PUBLIC_NAMES)


def test_shared_path_signatures():
    for name, want in PARAMETERS.items():
        assert _parameters(getattr(nodeloc, name)) == want, name


def test_topology_members():
    fields = {field.name for field in dataclasses.fields(nodeloc.Topology)}
    members = {name for name in dir(nodeloc.Topology) if not name.startswith("_")}
    assert sorted(fields | members) == TOPOLOGY_MEMBERS
