"""The package's public surface: exported names and the signatures callers rely on."""

from __future__ import annotations

import inspect

import nodeloc

PUBLIC_NAMES = [
    "CAP", "CSP",
    "CapacityError", "CoverProfile", "DEFAULT_GUARD",
    "DistinguishingPath", "FailureSet", "FormatError", "INFINITE_COVER",
    "Identifiability", "IdentifiabilityBounds", "IndistinguishablePair", "InputError",
    "InternalError", "NodelocError", "PathEnsemble",
    "ProbingModel", "Topology", "TopologyDocument", "UsageError",
    "Verdict", "Witness", "abstract_necessary", "abstract_sufficient", "analyze",
    "barabasi_albert", "build_ensemble", "cap_bounds", "cap_verdict",
    "cap_verdicts", "conditions", "connected_components", "cover_profile", "csp_bounds",
    "csp_verdict", "csp_verdicts", "disjoint_paths", "distinguishable", "document", "emit_outcomes",
    "emit_report", "emit_topology", "ensemble", "erdos_renyi", "errors",
    "find_measurable_path", "generate",
    "generate_paths", "graph", "grid",
    "k_identifiable", "localize", "max_identifiability",
    "measurable_path_exists", "min_cover_size", "min_leave_one_out_connectivity",
    "monitor_connectivity", "oracle", "parse_outcomes", "parse_topology", "reformat_report", "report",
    "simulate_measurements", "up_bounds", "up_model", "up_verdict", "up_verdicts",
    "vertex_connectivity",
]

# Parameter names and defaults of the functions whose bodies share one code
# path with another public function.
PARAMETERS = {
    "cap_verdict": [("topology", None), ("k", None)],
    "csp_verdict": [("topology", None), ("k", None)],
    "cap_verdicts": [("topology", None)],
    "csp_verdicts": [("topology", None)],
    "cap_bounds": [("topology", None)],
    "csp_bounds": [("topology", None)],
    "disjoint_paths": [
        ("topology", None), ("source", None), ("targets", None), ("forbidden", ()), ("limit", None)
    ],
    "abstract_necessary": [("topology", None), ("model", None), ("k", None), ("guard", 7)],
    "monitor_connectivity": [("topology", None), ("left_out", None)],
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
    assert len(PUBLIC_NAMES) == 68
    assert all(hasattr(nodeloc, name) for name in PUBLIC_NAMES)


def test_shared_path_signatures():
    for name, want in PARAMETERS.items():
        assert _parameters(getattr(nodeloc, name)) == want, name
