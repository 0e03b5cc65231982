"""Polynomial-time identifiability verdicts and maximum-identifiability bounds.

Every probing regime reads one threshold T off the network: the merged-graph
connectivity d under controllable arbitrary-path probing (CAP), min(d - 1, dm)
under controllable simple-path probing (CSP), with dm the weakest
leave-one-out connectivity, and the minimum cover size delta under
uncontrollable probing (UP).  A failure-set size k >= 1 is certified
identifiable when T >= k + 1 (the sufficient condition) and refuted when
T < k (the necessary one fails); in between the verdict is indeterminate and
only the oracle can settle it.  Exact if-and-only-if rules
override T at the full failure budget (CAP, CSP) and one short of it (CSP).
The largest identifiable k lies in [T - 1, T] while T is at most sigma - 1
(CAP) or sigma - 2 (CSP); past that the bounds span the verdict table.
d and dm are vertex connectivities of auxiliary graphs, with the monitors
merged into one virtual monitor (d) or all but one of them (dm); every
public CAP/CSP function is a view of :func:`controllable_tables`, which reads
them with :mod:`~nodeloc.graph` (dm given d, under its cap rule) and builds no
auxiliary graph.

T is also the oracle's stranding level J: CAP J = d when d < sigma, CSP
J = max(T, 0) unless d = dm = sigma, and UP J = delta; otherwise there is no
J.  The oracle reads d and dm through the same graph functions, and its
module docstring holds the proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .ensemble import CoverProfile
from .errors import InternalError
from .graph import Topology, _leave_one_out_connectivity, monitor_connectivity


class Identifiability(Enum):
    IDENTIFIABLE = "identifiable"
    NOT_IDENTIFIABLE = "not-identifiable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Verdict:
    """Outcome of the condition pair at one failure-set size k."""

    value: Identifiability
    sufficient_holds: bool
    necessary_holds: bool
    rationale: str


@dataclass(frozen=True)
class IdentifiabilityBounds:
    """Lower/upper bounds on the largest identifiable failure-set size.

    ``exact`` is set when an if-and-only-if rule pins the value.  When the
    formula guard fails, ``applicable`` is False and ``guard_note`` names the
    violated precondition; the bounds then span the per-k verdict table,
    exact edge rules included, never extrapolating the guarded formula.
    """

    lower: int
    upper: int
    exact: int | None
    applicable: bool
    guard_note: str


def _make_verdict(sufficient: bool, necessary: bool, rationale: str) -> Verdict:
    if sufficient and not necessary:
        raise InternalError(
            f"sufficient condition held without the necessary one ({rationale})"
        )
    if sufficient:
        value = Identifiability.IDENTIFIABLE
    elif not necessary:
        value = Identifiability.NOT_IDENTIFIABLE
    else:
        value = Identifiability.INDETERMINATE
    return Verdict(value, sufficient, necessary, rationale)


_TRIVIAL = _make_verdict(True, True, "empty-failure-set")


def _table(
    sigma: int, threshold: int | float, exact: dict[int, tuple[bool, str]], rationale: str
) -> tuple[Verdict, ...]:
    """Verdicts for k = 0..sigma under one threshold.

    k = 0 is trivially identifiable; ``exact`` maps a k to the outcome and
    name of its if-and-only-if rule; every other k is certified when
    ``threshold >= k + 1`` and refuted when ``threshold < k``.  Each distinct
    verdict is built once and repeated: at most ``len(exact) + 4`` objects.
    """
    rows = {(s, n): _make_verdict(s, n, rationale) for s, n in ((True, True), (False, True), (False, False))}
    rules = {k: _make_verdict(hit, hit, name) for k, (hit, name) in exact.items()}
    rest = (rules[k] if k in rules else rows[threshold >= k + 1, threshold >= k] for k in range(1, sigma + 1))
    return (_TRIVIAL, *rest)


def _bounds(
    verdicts: tuple[Verdict, ...], threshold: int, top: int, note: str
) -> IdentifiabilityBounds:
    """[T - 1, T] while T <= ``top``; past it, the span of the verdict table."""
    if threshold <= top:
        return IdentifiabilityBounds(max(threshold - 1, 0), max(threshold, 0), None, True, "")
    # From the largest certified k to one below the smallest refuted k.
    lower = max(k for k, v in enumerate(verdicts) if v.sufficient_holds)
    upper = next(
        (k - 1 for k, v in enumerate(verdicts) if not v.necessary_holds), len(verdicts) - 1
    )
    return IdentifiabilityBounds(lower, upper, lower if lower == upper else None, False, note)


# ---------------------------------------------------------------------------
# Controllable probing: CAP and CSP
# ---------------------------------------------------------------------------


def cap_verdicts(topology: Topology) -> tuple[Verdict, ...]:
    """Verdicts for every k from 0 to the number of non-monitors."""
    return _verdicts(topology, "CAP")


def cap_bounds(topology: Topology) -> IdentifiabilityBounds:
    """Maximum-identifiability bounds under arbitrary-path probing.

    When the merged-graph connectivity d stays below the non-monitor count,
    the maximum lies in [d-1, d]; otherwise the merged graph is complete and
    the exact full-budget rule pins the maximum at sigma.
    """
    return controllable_tables(topology, ("CAP",))["CAP"][1]


def csp_verdicts(topology: Topology) -> tuple[Verdict, ...]:
    return _verdicts(topology, "CSP")


def csp_bounds(topology: Topology) -> IdentifiabilityBounds:
    """Maximum-identifiability bounds under simple-path probing.

    Combines the merged-graph connectivity with the weakest leave-one-out
    connectivity; outside the guard the two exact edge rules settle the
    bounds through the verdict table.
    """
    return controllable_tables(topology, ("CSP",))["CSP"][1]


def controllable_tables(
    topology: Topology, kinds: tuple[str, ...]
) -> dict[str, tuple[tuple[Verdict, ...], IdentifiabilityBounds]]:
    """Verdict table and bounds for each of CAP and CSP named in ``kinds``.

    The one builder behind every CAP and CSP function.  Both regimes read
    the merged graph's connectivity d, computed once; CSP adds dm, the least
    of the m leave-one-out connectivities, read given d under the cap rule of
    ``graph._leave_one_out_connectivity``.  Without CAP or CSP in ``kinds``
    it returns ``{}``.
    """
    if not {"CAP", "CSP"} & set(kinds):
        return {}
    sigma = topology.sigma
    d = monitor_connectivity(topology)
    tables = {}
    if "CAP" in kinds:
        # Exact at the full budget: 1-hop probing reaches a node iff it has
        # a monitor neighbor, and nothing else survives to help.  Every
        # non-monitor has one exactly when the merged graph is complete,
        # which is when d = sigma; otherwise d <= sigma - 1.
        adjacent = d == sigma
        exact = {sigma: (adjacent, "full-budget-monitor-adjacency")}
        verdicts = _table(sigma, d, exact, "merged-graph-connectivity")
        note = (
            f"merged-graph connectivity {d} exceeds sigma-1={sigma - 1}; "
            "the connectivity bound is stated only below that threshold"
        )
        tables["CAP"] = (verdicts, _bounds(verdicts, d, sigma - 1, note))
    if "CSP" in kinds:
        # Weakly covered: non-monitors with fewer than two monitor neighbors.
        weak = [v for v in topology.non_monitors if len(topology.adjacency[v] & topology.monitors) < 2]
        # Exact one short of the full budget: at most one weakly covered
        # node, and that node must be reachable around any failure pattern
        # through its own neighborhood.
        near_full = not weak or (
            len(weak) == 1
            and len(topology.adjacency[weak[0]] & topology.monitors) == 1
            and topology.non_monitors - {weak[0]} <= topology.adjacency[weak[0]]
        )
        dm = _leave_one_out_connectivity(topology, d)
        # Exact at the full budget: cycle-free 2-hop probing needs two
        # distinct monitor endpoints per node once every other non-monitor
        # may be down.
        exact = {
            sigma: (not weak, "full-budget-two-monitor-adjacency"),
            sigma - 1: (near_full, "near-full-budget-characterization"),
        }
        threshold = min(d - 1, dm)
        verdicts = _table(sigma, threshold, exact, "merged-and-leave-one-out-connectivity")
        note = (
            f"min(leave-one-out {dm}, merged-1 {d - 1}) exceeds "
            f"sigma-2={sigma - 2}; the connectivity bound is stated only below that threshold"
        )
        tables["CSP"] = (verdicts, _bounds(verdicts, threshold, sigma - 2, note))
    return tables


def _verdicts(topology: Topology, kind: str) -> tuple[Verdict, ...]:
    # Without a non-monitor only k = 0 exists, and no auxiliary graph does.
    if topology.sigma == 0:
        return (_TRIVIAL,)
    return controllable_tables(topology, (kind,))[kind][0]


# ---------------------------------------------------------------------------
# Uncontrollable probing
# ---------------------------------------------------------------------------


def up_verdicts(profile: CoverProfile) -> tuple[Verdict, ...]:
    return _table(len(profile.cover_sizes), profile.min_cover, {}, "cover-size-threshold")


def up_bounds(profile: CoverProfile) -> IdentifiabilityBounds:
    """Maximum-identifiability bounds under a fixed path ensemble."""
    sigma = len(profile.cover_sizes)
    delta = profile.min_cover
    if math.isinf(delta):
        return IdentifiabilityBounds(sigma, sigma, sigma, True, "")
    delta = int(delta)
    lower = max(delta - 1, 0)
    upper = min(delta, sigma)
    exact = lower if lower == upper else None
    return IdentifiabilityBounds(lower, upper, exact, True, "")
