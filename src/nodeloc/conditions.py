"""Polynomial-time identifiability verdicts and maximum-identifiability bounds.

Every probing regime reads one threshold T off the network: the merged-graph
connectivity d under controllable arbitrary-path probing (CAP), min(d - 1, dm)
under controllable simple-path probing (CSP), with dm the weakest
leave-one-out connectivity, and the minimum cover size delta under
uncontrollable probing (UP).  A failure-set size k >= 1 is certified
identifiable when T >= k + 1 (the sufficient condition) and refuted when
T < k (the necessary one fails); in between the verdict is indeterminate and
only the oracle can settle it.  A verdict's value is read from those two
outcomes, and each table is checked where it is built: a refuted k stays
refuted.  Exact if-and-only-if rules override T at the full failure budget
(CAP, CSP) and one short of it (CSP).
In every regime the bounds on the largest identifiable k are the span of the
verdict table, :func:`_bounds`.  Below the paper's precondition, T at most
sigma - 1 (CAP) or sigma - 2 (CSP), every exact rule refutes, so the span is
[T - 1, T] floored at 0, the window the paper states; past it the bounds
carry a guard note.
d and dm are vertex connectivities of auxiliary graphs, with the monitors
merged into one virtual monitor (d) or all but one of them (dm).  The one
public builder, :func:`verdict_table`, takes a probing model as the oracle
does and reads d and dm (dm given d, under graph's cap rule) off the topology
value, which computes each once without an auxiliary graph, and delta off
the ensemble value, which searches each node's cover once.

T is also the oracle's stranding level J: CAP J = d when d < sigma, CSP
J = max(T, 0) unless d = dm = sigma, and UP J = delta; otherwise there is no
J.  The oracle reads the same d and dm off the same value, and its module
docstring holds the proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .ensemble import cover_profile
from .errors import InputError, InternalError
from .graph import Topology


class Identifiability(Enum):
    IDENTIFIABLE = "identifiable"
    NOT_IDENTIFIABLE = "not-identifiable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Verdict:
    """Outcome of the condition pair at one failure-set size k.  ``value``, set
    once, is read from the two outcomes; sufficient without necessary is a bug."""

    sufficient_holds: bool
    necessary_holds: bool
    rationale: str

    def __post_init__(self) -> None:
        if self.sufficient_holds and not self.necessary_holds:
            raise InternalError(f"sufficient condition held without the necessary one ({self.rationale})")
        object.__setattr__(self, "value", Identifiability.IDENTIFIABLE if self.sufficient_holds else (
            Identifiability.INDETERMINATE if self.necessary_holds else Identifiability.NOT_IDENTIFIABLE))


@dataclass(frozen=True)
class IdentifiabilityBounds:
    """Lower/upper bounds on the largest identifiable failure-set size.

    The bounds span the per-k verdict table, exact edge rules included, and
    ``exact`` is ``lower`` exactly when ``lower == upper``, else None.
    ``applicable`` is False when the paper's precondition for its [T - 1, T]
    window fails, and ``guard_note`` then names it.
    """

    lower: int
    upper: int
    exact: int | None
    applicable: bool
    guard_note: str


_TRIVIAL = Verdict(True, True, "empty-failure-set")


def _table(
    sigma: int, threshold: int | float, exact: dict[int, tuple[bool, str]], rationale: str
) -> tuple[Verdict, ...]:
    """Verdicts for k = 0..sigma under one threshold.

    k = 0 is trivially identifiable; ``exact`` maps a k to the outcome and
    name of its if-and-only-if rule; every other k is certified when
    ``threshold >= k + 1`` and refuted when ``threshold < k``.  Each distinct
    verdict is built once and repeated: at most ``len(exact) + 4`` objects.
    The table is checked before it is returned: a refuted k stays refuted.
    """
    rows = {(s, n): Verdict(s, n, rationale) for s, n in ((True, True), (False, True), (False, False))}
    rules = {k: Verdict(hit, hit, name) for k, (hit, name) in exact.items()}
    rest = (rules[k] if k in rules else rows[threshold >= k + 1, threshold >= k] for k in range(1, sigma + 1))
    table, refuted = (_TRIVIAL, *rest), False
    for k, verdict in enumerate(table):
        if refuted and verdict.necessary_holds:
            raise InternalError(f"verdict table is not monotone at k={k} ({rationale})")
        refuted = not verdict.necessary_holds
    return table


def _bounds(verdicts: tuple[Verdict, ...], note: str) -> IdentifiabilityBounds:
    """The one bounds rule: from the largest certified k to one below the
    smallest refuted k (sigma if none is), exact when the two meet, and
    applicable unless ``note`` names a failed precondition."""
    lower = max(k for k, v in enumerate(verdicts) if v.sufficient_holds)
    upper = next(
        (k - 1 for k, v in enumerate(verdicts) if not v.necessary_holds), len(verdicts) - 1
    )
    return IdentifiabilityBounds(lower, upper, lower if lower == upper else None, not note, note)


def verdict_table(topology: Topology, model) -> tuple[tuple[Verdict, ...], IdentifiabilityBounds]:
    """Verdicts for k = 0..sigma under ``model``, ``CAP``, ``CSP`` or
    ``up_model(ensemble)`` as for ``max_identifiability``, and their span.

    Without a non-monitor the table is k = 0 alone and the bounds are
    [0, 0], as the oracle answers; no threshold is read.
    """
    kind, ensemble, sigma = model.kind, model.ensemble, topology.sigma
    if kind == "UP" and ensemble.topology != topology:
        raise InputError("the UP ensemble was built for a different topology")
    exact: dict[int, tuple[bool, str]] = {}
    top, claim = math.inf, ""  # the precondition T <= top, and T as the note states it
    if not sigma:
        threshold, rationale = 0, ""
    elif kind == "UP":  # no exact rules and no precondition
        threshold, rationale = cover_profile(ensemble).min_cover, "cover-size-threshold"
    elif kind == "CAP":
        d = topology._d
        # Exact at the full budget: 1-hop probing reaches a node iff it has
        # a monitor neighbor, and nothing else survives to help.  Every
        # non-monitor has one exactly when the merged graph is complete,
        # which is when d = sigma; otherwise d <= sigma - 1.
        exact[sigma] = d == sigma, "full-budget-monitor-adjacency"
        threshold, rationale = d, "merged-graph-connectivity"
        top, claim = sigma - 1, f"merged-graph connectivity {d}"
    else:
        d, dm = topology._d, topology._dm
        # Weakly covered: non-monitors with fewer than two monitor neighbors.
        weak = topology.non_monitors - topology._bordering_two
        # Exact at the full budget: cycle-free 2-hop probing needs two
        # distinct monitor endpoints per node once every other non-monitor
        # may be down.  Exact one short of it: at most one weakly covered
        # node, and that node must border one monitor and be reachable
        # around any failure pattern through its own neighborhood.
        near_full = not weak or (
            len(weak) == 1
            and weak <= topology._bordering_one
            and topology.non_monitors - weak <= topology.adjacency[min(weak)]
        )
        exact[sigma] = not weak, "full-budget-two-monitor-adjacency"
        exact[sigma - 1] = near_full, "near-full-budget-characterization"
        threshold, rationale = min(d - 1, dm), "merged-and-leave-one-out-connectivity"
        top, claim = sigma - 2, f"min(leave-one-out {dm}, merged-1 {d - 1})"
    note = (
        f"{claim} exceeds sigma-{sigma - top}={top}; "
        "the connectivity bound is stated only below that threshold"
    ) if threshold > top else ""
    verdicts = _table(sigma, threshold, exact, rationale)
    return verdicts, _bounds(verdicts, note)
