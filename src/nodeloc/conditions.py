"""Polynomial-time identifiability verdicts and maximum-identifiability bounds.

Each probing regime gets a per-k verdict built from a sufficient and a
necessary condition.  The sufficient side certifies identifiability, the
necessary side certifies its absence; when only the necessary side holds the
verdict is indeterminate and only the brute-force engine can settle it.  The
conditions themselves are connectivity thresholds on the auxiliary graphs
(controllable probing) or cover-size thresholds (uncontrollable probing),
with exact special cases when the failure budget reaches the total number of
non-monitors or stops one short of it.

The controllable regimes share one table builder, :func:`controllable_tables`:
one merged-graph connectivity serves CAP and CSP, CSP adds one leave-one-out
connectivity per monitor, and every public CAP/CSP function is a view of its
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .auxgraph import merge_monitors, merge_monitors_leaving_out
from .ensemble import CoverProfile
from .errors import InputError, InternalError
from .graph import Topology, vertex_connectivity


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
    violated precondition; the bounds then come from the exact special cases
    or from scanning the per-k verdicts, never from extrapolating the guarded
    formula.
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


def _check_k(topology: Topology, k: int, name: str = "k") -> None:
    """A failure budget must lie in 0..sigma; ``name`` is how the error calls it."""
    if not 0 <= k <= topology.sigma:
        raise InputError(f"{name} must lie in 0..{topology.sigma}, got {k}")


# ---------------------------------------------------------------------------
# Controllable arbitrary-path probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CapSummary:
    sigma: int
    merged_connectivity: int
    all_monitor_adjacent: bool


def _cap_verdict_at(s: _CapSummary, k: int) -> Verdict:
    if k == 0:
        return _TRIVIAL
    if k == s.sigma:
        # Exact rule at full failure budget: 1-hop probing reaches a node iff
        # it has a monitor neighbor, and nothing else survives to help.
        hit = s.all_monitor_adjacent
        return _make_verdict(hit, hit, "full-budget-monitor-adjacency")
    # node counts: the merged graph has sigma+1 nodes, so the (k+1) threshold
    # is meaningful exactly for k <= sigma-1.
    sufficient = s.sigma + 1 > k + 1 and s.merged_connectivity >= k + 1
    necessary = s.sigma + 1 > k and s.merged_connectivity >= k
    return _make_verdict(sufficient, necessary, "merged-graph-connectivity")


def cap_verdict(topology: Topology, k: int) -> Verdict:
    """Per-k verdict under controllable arbitrary-path probing."""
    _check_k(topology, k)
    return cap_verdicts(topology)[k]


def cap_verdicts(topology: Topology) -> tuple[Verdict, ...]:
    """Verdicts for every k from 0 to the number of non-monitors."""
    return _verdicts(topology, "CAP")


def cap_bounds(topology: Topology) -> IdentifiabilityBounds:
    """Maximum-identifiability bounds under arbitrary-path probing.

    When the merged-graph connectivity d stays below the non-monitor count,
    the maximum lies in [d-1, d]; otherwise that bound is out of its stated
    range and the exact full-budget rule takes over.
    """
    return controllable_tables(topology, ("CAP",))["CAP"][1]


def _cap_bounds(s: _CapSummary) -> IdentifiabilityBounds:
    d = s.merged_connectivity
    if d <= s.sigma - 1:
        return IdentifiabilityBounds(max(d - 1, 0), d, None, True, "")
    note = (
        f"merged-graph connectivity {d} exceeds sigma-1={s.sigma - 1}; "
        "the connectivity bound is stated only below that threshold"
    )
    if s.all_monitor_adjacent:
        return IdentifiabilityBounds(s.sigma, s.sigma, s.sigma, False, note)
    return IdentifiabilityBounds(0, s.sigma, None, False, note + "; full-budget rule failed too")


# ---------------------------------------------------------------------------
# Controllable simple-path probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CspSummary:
    sigma: int
    merged_connectivity: int
    min_leave_one_out: int  # equals min_leave_one_out_connectivity(topology)
    near_full_exact: bool
    full_exact: bool


def _csp_summary(topology: Topology, merged_connectivity: int) -> _CspSummary:
    # Weakly covered: non-monitors with fewer than two monitor neighbors.
    weak = [v for v in topology.non_monitors if topology.monitor_neighbor_count(v) < 2]
    near_full_exact = not weak or (
        len(weak) == 1
        and topology.monitor_neighbor_count(weak[0]) == 1
        and topology.non_monitors - {weak[0]} <= topology.neighbors(weak[0])
    )
    min_leave_one_out = min(
        vertex_connectivity(merge_monitors_leaving_out(topology, m))
        for m in sorted(topology.monitors)
    )
    return _CspSummary(
        topology.sigma, merged_connectivity, min_leave_one_out, near_full_exact, not weak
    )


def _csp_verdict_at(s: _CspSummary, k: int) -> Verdict:
    if k == 0:
        return _TRIVIAL
    if k == s.sigma:
        # Exact: cycle-free 2-hop probing needs two distinct monitor
        # endpoints per node once every other non-monitor may be down.
        return _make_verdict(s.full_exact, s.full_exact, "full-budget-two-monitor-adjacency")
    if k == s.sigma - 1:
        # Exact one short of the full budget: at most one weakly covered
        # node, and that node must be reachable around any failure pattern
        # through its own neighborhood.
        hit = s.near_full_exact
        return _make_verdict(hit, hit, "near-full-budget-characterization")
    nodes = s.sigma + 1
    sufficient = (
        nodes > k + 2 and s.merged_connectivity >= k + 2 and s.min_leave_one_out >= k + 1
    )
    necessary = nodes > k + 1 and s.merged_connectivity >= k + 1 and s.min_leave_one_out >= k
    return _make_verdict(sufficient, necessary, "merged-and-leave-one-out-connectivity")


def csp_verdict(topology: Topology, k: int) -> Verdict:
    """Per-k verdict under controllable simple-path probing."""
    _check_k(topology, k)
    return csp_verdicts(topology)[k]


def csp_verdicts(topology: Topology) -> tuple[Verdict, ...]:
    return _verdicts(topology, "CSP")


def csp_bounds(topology: Topology) -> IdentifiabilityBounds:
    """Maximum-identifiability bounds under simple-path probing.

    Combines the merged-graph connectivity with the weakest leave-one-out
    connectivity; outside the guard it falls back to the two exact edge
    rules and finally to scanning the per-k verdicts.
    """
    return controllable_tables(topology, ("CSP",))["CSP"][1]


def _csp_bounds(s: _CspSummary, verdicts: tuple[Verdict, ...]) -> IdentifiabilityBounds:
    dm = s.min_leave_one_out
    upper = min(dm, s.merged_connectivity - 1)
    if upper <= s.sigma - 2:
        lower = min(dm - 1, s.merged_connectivity - 2)
        return IdentifiabilityBounds(max(lower, 0), max(upper, 0), None, True, "")
    note = (
        f"min(leave-one-out {dm}, merged-1 {s.merged_connectivity - 1}) exceeds "
        f"sigma-2={s.sigma - 2}; the connectivity bound is stated only below that threshold"
    )
    if s.full_exact:
        return IdentifiabilityBounds(s.sigma, s.sigma, s.sigma, False, note)
    if s.sigma >= 2 and s.near_full_exact:
        exact = s.sigma - 1
        return IdentifiabilityBounds(exact, exact, exact, False, note)
    # Scan the per-k verdicts: the largest certified k bounds from below, the
    # smallest refuted k bounds from above.
    lower = max(k for k, v in enumerate(verdicts) if v.sufficient_holds)
    refuted = [k for k, v in enumerate(verdicts) if not v.necessary_holds]
    upper = refuted[0] - 1 if refuted else s.sigma
    return IdentifiabilityBounds(lower, upper, lower if lower == upper else None, False, note)


def controllable_tables(
    topology: Topology, kinds: tuple[str, ...]
) -> dict[str, tuple[tuple[Verdict, ...], IdentifiabilityBounds]]:
    """Verdict table and bounds for each of CAP and CSP named in ``kinds``.

    The one builder behind every CAP and CSP function.  Both regimes read
    the merged graph's connectivity, computed once; CSP adds the
    connectivity of each leave-one-out graph, so a call costs 1 + m
    connectivity computations for m monitors when CSP is asked for and 1
    otherwise.  Without CAP or CSP in ``kinds`` it returns ``{}``.
    """
    if not {"CAP", "CSP"} & set(kinds):
        return {}
    merged = vertex_connectivity(merge_monitors(topology))
    tables = {}
    if "CAP" in kinds:
        adjacent = all(topology.monitor_neighbor_count(v) >= 1 for v in topology.non_monitors)
        s = _CapSummary(topology.sigma, merged, adjacent)
        verdicts = tuple(_cap_verdict_at(s, k) for k in range(s.sigma + 1))
        tables["CAP"] = (verdicts, _cap_bounds(s))
    if "CSP" in kinds:
        s = _csp_summary(topology, merged)
        verdicts = tuple(_csp_verdict_at(s, k) for k in range(s.sigma + 1))
        tables["CSP"] = (verdicts, _csp_bounds(s, verdicts))
    return tables


def _verdicts(topology: Topology, kind: str) -> tuple[Verdict, ...]:
    # Without a non-monitor only k = 0 exists, and no auxiliary graph does.
    if topology.sigma == 0:
        return (_TRIVIAL,)
    return controllable_tables(topology, (kind,))[kind][0]


# ---------------------------------------------------------------------------
# Uncontrollable probing
# ---------------------------------------------------------------------------


def up_verdict(profile: CoverProfile, k: int) -> Verdict:
    """Per-k verdict under a fixed path ensemble.

    Identifiability is certified when every node's minimum cover size
    exceeds k, and refuted when some node's cover size is below k.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    if k == 0:
        return _TRIVIAL
    sizes = profile.cover_sizes.values()
    sufficient = all(size > k for size in sizes)
    necessary = all(size > k - 1 for size in sizes)
    return _make_verdict(sufficient, necessary, "cover-size-threshold")


def up_verdicts(profile: CoverProfile) -> tuple[Verdict, ...]:
    sigma = len(profile.cover_sizes)
    return tuple(up_verdict(profile, k) for k in range(sigma + 1))


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
