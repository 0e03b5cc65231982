"""Identifiability analysis for node-failure localization in monitored networks.

Given an undirected topology whose nodes are split into monitors and
non-monitors, this package decides how many simultaneous non-monitor
failures can be unambiguously localized from Boolean end-to-end path
measurements, under three probing regimes:

* CAP, controllable arbitrary-path probing (monitor-anchored walks),
* CSP, controllable simple-path probing (cycle-free monitor-to-monitor paths),
* UP, uncontrollable probing over a fixed externally given path set.

Polynomial-time sufficient/necessary conditions live in
:mod:`nodeloc.conditions`; exact answers, witnesses and localization, from
sweeps of at most two levels of failure sets, in :mod:`nodeloc.oracle`.
"""

from .conditions import Identifiability, IdentifiabilityBounds, Verdict, verdict_table
from .ensemble import (
    INFINITE_COVER,
    CoverProfile,
    PathEnsemble,
    build_ensemble,
    cover_profile,
)
from .errors import (
    CapacityError,
    FormatError,
    InputError,
    InternalError,
    NodelocError,
    UsageError,
)
from .graph import (
    Topology,
    connected_components,
    disjoint_paths,
    monitor_connectivity,
)
from .document import (
    TopologyDocument,
    emit_outcomes,
    emit_topology,
    parse_outcomes,
    parse_topology,
)
from .generate import barabasi_albert, erdos_renyi, generate_paths, grid
from .oracle import (
    CAP,
    CSP,
    DEFAULT_GUARD,
    DistinguishingPath,
    FailureSet,
    IndistinguishablePair,
    ProbingModel,
    Witness,
    distinguishable,
    find_measurable_path,
    k_identifiable,
    localize,
    max_identifiability,
    simulate_measurements,
    up_model,
)
from .report import analyze, emit_report, reformat_report

from ._version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
