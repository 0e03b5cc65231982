"""Exact identifiability: maximum, per-k verdict, witnesses and localization.

The identifiability answers read the stranding level J off d, dm and delta
(below) and sweep at most two levels of failure sets; a CAP maximum or
verdict sweeps none.  The sweeps are bounded by a configurable guard on the
number of non-monitors (default 7); beyond it the functions refuse with a
capacity error instead of stalling.  The guard still refuses CAP answers
that sweep nothing, until it counts the sets a call sweeps instead.

A probing regime is captured by :class:`ProbingModel`: controllable
arbitrary walks (CAP), controllable simple paths (CSP), or a fixed path
ensemble (UP).  The one observation of a failure set F is R(F), the
non-monitors some probe still traverses while F is down:

* CAP: the non-monitors whose surviving component contains a monitor,
* CSP: those with two vertex-disjoint paths to distinct monitors,
* UP: those on some given path that avoids F.

One sweep of the surviving graph finds R(F), and under CAP and CSP most
often none runs.  UP reads R(F) off the failed nodes' path incidence.  With
need 1 under CAP and 2 under CSP, a survivor v with need neighbours in R(F)
or the monitors M is in R(F): under CAP one leads on to a monitor; under
CSP, for any node z other than v, one of them is not z and is a monitor or
has two disjoint paths to distinct monitors, one avoiding z, so by the fan
lemma v has two vertex-disjoint paths to distinct monitors, no single node
meeting every path from v to a monitor.  Survivors bordering need monitors
are in R(F), so when every survivor borders need monitors or such anchors,
R(F) is every survivor (``graph._certified``, run by :func:`_reached` before
any walk).  Else CAP searches once from the monitors, and CSP makes one
block sweep: v is in R(F) iff it shares a block (biconnected component)
with a virtual sink joined to every monitor, so one low-point DFS replaces
a max-flow per node.  CAP/CSP probes read R(F) directly, one per
non-monitor, and a UP path reads up exactly when its non-monitors all lie
in R(F); so two failure sets are indistinguishable exactly when their R(F)
are equal.

Identifiability needs at most two levels of failure sets (the sets of one
size), not every set.  R(F) misses F, shrinks as F grows, and holds every
probe that witnesses one of its nodes; so adding v to F changes no
observation exactly when v is outside R(F).  Let the stranding level J be
the least size of a set F that strands another non-monitor (leaves it
outside R(F)); no J exists when no set does.  No set below J has a twin (a
distinct set with equal observations), a stranding set at J has one a level
up, and twins of one size strand at that size.  So k-identifiability fails
exactly when J < k or level k holds twins, and the maximum is sigma without
a J, else J or J - 1 as the network is or is not J-identifiable.

The paper's abstract conditions reduce to these answers.  Its sufficient
condition, every non-monitor measurable under every set of at most k
failures, is "no J, or J > k".  Its necessary condition, every residual
network (V' of fewer than k non-monitors deleted with the probes through
it) staying (k - |V'|)-identifiable, is k-identifiability: V' = {} asks it,
and residual twins F1, F2 lift to the twins F1 | V', F2 | V', as the probes
through V' read down under both and the rest read as in the residual network.

J is read off thresholds the package computes without sweeping.  Let H be
the auxiliary graph that deletes the monitors, adds a virtual monitor x
joined to their non-monitor neighbours, and joins those into a clique;
d = kappa(H), and dm is the least kappa(H_m), H_m leaving monitor m out of
the merge (:func:`~nodeloc.graph.monitor_connectivity`), both read off the
topology value, which computes each once in :mod:`~nodeloc.graph`.

* CAP: F strands v exactly when it separates v from the simplicial x in H,
  so the least such F has size kappa(H) = d unless H is complete (d =
  sigma), when nothing strands: a minimum separator of H avoids x and
  strands the side without it, and a stranding set separates the stranded
  node from x.
* CSP: by the fan form of Menger's theorem, v outside F is stranded exactly
  when G - F has a set of at most one node (monitor or not) meeting every
  path from v to a monitor.  So J + 1 is the least set meeting every such
  path with at most one monitor in it: d with none, dm + 1 with one; J is
  min(d - 1, dm), at least 0 (dm is read given d, graph's cap rule), and
  none when d = dm = sigma (every non-monitor borders two monitors).
* UP: F strands v exactly when F's paths cover v's, which defines the
  cover size, so J is the least cover size delta; an infinite delta means
  no J.  delta is read off the ensemble value, as d and dm off the topology.

Under CAP no level up to J holds twins, so the maximum is J = d, or sigma
without a J, and k-identifiability holds exactly for k <= d; the paper
bounds this maximum only to [d - 1, d].  Take F1 != F2 of at most J nodes
and S = F1 & F2.  S has fewer than J nodes, so G - S strands no node outside
it.  On a shortest path in G - S from F1 ^ F2 to a monitor, the rest of the
path after its last node w of F1 ^ F2 avoids F1 | F2, so w is reached under
the set that does not hold it and not under the one that does.  Above d a
stranding set F and F | {v}, v stranded by F, are twins; only the canonical
(first) pair of :func:`k_identifiable` needs a sweep.

An answer then sweeps one level of C(sigma, J) sets, or two for
:func:`k_identifiable` with k above J, and none when J is missing or above
k, or for a CAP maximum or a CAP k up to J; with J near sigma / 2 that is
still exponential, hence the guard.  A sweep keeps only stranding sets,
since the earlier set F1 of twins (in size-then-lexicographic order)
strands: else R(F2) = R(F1) is every non-monitor outside F1 and misses F2,
putting F2 inside F1, which no later set is.

Localization lists the sets F of at most k_max nodes whose R(F) is the
target T that the up probes read (under UP, the up paths' non-monitors).  A
match lies in the down set D (the non-monitors outside T) and stays one as
nodes of D join it, since R(F) = T misses them; so R(D) = T decides whether
any exists.  CAP/CSP sweep it once.  Under UP a down path inside T rules out
every match; else down paths meet D and up paths avoid it, so R(D) = T.  A
node v of D is in every match exactly when v is in R(D - {v}), which reads
off T and the monitors M once D matches: under CAP and CSP v borders need
nodes of T or M, by the step certifying R(F) above (a probe leaves v by need
neighbours outside D); under UP some path through v has its other
non-monitors in T.  When the forced set is D, D is the only candidate: the
failure is identified, and the answer is D alone, or none if D exceeds
k_max, with no candidate listed.  Else a candidate, the forced set joined to
a subset of the rest of D, matches if it is D or a match plus one node; else
one sweep decides.  Under CAP the forced set itself always matches: a node
of D outside it borders only D, so it stays cut off from every monitor,
while T still reaches one in G - D.  So every CAP candidate closes upward;
a CAP call sweeps R(D) alone.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Iterator, Literal, Sequence

from .ensemble import INFINITE_COVER, PathEnsemble, _cover
from .errors import CapacityError, FormatError, InputError
from .graph import (
    Topology,
    _biconnected_to_monitors,
    _certified,
    _connected_to_monitors,
    _plain_int,
    _shortest_paths,
    disjoint_paths,
)

DEFAULT_GUARD = 7

FailureSet = frozenset[int]


@dataclass(frozen=True)
class ProbingModel:
    """One of the three probing regimes; UP carries its path ensemble."""

    kind: Literal["CAP", "CSP", "UP"]
    ensemble: PathEnsemble | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("CAP", "CSP", "UP"):
            raise InputError(f"unknown probing model {self.kind!r}")
        if (self.kind == "UP") != (self.ensemble is not None):
            raise InputError("exactly the UP model carries a path ensemble")
        if self.ensemble is not None and not isinstance(self.ensemble, PathEnsemble):
            raise InputError(f"the UP ensemble must be a PathEnsemble, not {type(self.ensemble).__name__}")


CAP = ProbingModel("CAP")
CSP = ProbingModel("CSP")


def up_model(ensemble: PathEnsemble) -> ProbingModel:
    return ProbingModel("UP", ensemble)


@dataclass(frozen=True)
class DistinguishingPath:
    """A measurable probe separating two failure sets."""

    walk: tuple[int, ...] | None = None
    path_id: int | None = None


@dataclass(frozen=True)
class IndistinguishablePair:
    """Two failure sets producing identical observations."""

    first: FailureSet
    second: FailureSet


Witness = DistinguishingPath | IndistinguishablePair


def _check_model(topology: Topology, model: ProbingModel) -> None:
    if model.kind == "UP" and model.ensemble.topology != topology:
        raise InputError("the UP ensemble was built for a different topology")


def _check_failure_set(topology: Topology, nodes: Iterable[int]) -> FailureSet:
    failure = topology._check_nodes(nodes)
    bad = failure & topology.monitors
    if bad:
        raise InputError(f"monitors never fail; got {sorted(bad)}")
    return failure


def _check_guard(topology: Topology, guard: int) -> None:
    if topology.sigma > _plain_int(guard, "guard"):
        raise CapacityError(
            f"{topology.sigma} non-monitors exceed the brute-force guard of {guard}"
            " (raise it with --guard)"
        )


def _failure_sets(pool: Sequence[int], sizes: range) -> Iterator[FailureSet]:
    """Subsets of ``pool`` with a size in ``sizes``: ascending size, then ``pool`` order."""
    for size in sizes:
        yield from map(frozenset, combinations(pool, size))


def find_measurable_path(
    topology: Topology, model: ProbingModel, v: int, avoid: Iterable[int] = ()
) -> tuple[int, ...] | int | None:
    """A concrete probe through ``v`` avoiding ``avoid``, or None.

    A path id for UP; for CAP/CSP a walk fixed by the topology value: for CAP
    the first shortest path to a monitor (``graph._shortest_paths``, no flow)
    walked out and back, for CSP two disjoint paths to monitors from one flow
    query (:func:`disjoint_paths`), joined at v.
    """
    _check_model(topology, model)
    avoid_set = _check_failure_set(topology, avoid)
    topology._check_node(v)
    if v in topology.monitors:
        raise InputError(f"node {v} is a monitor; only non-monitors are probed")
    if v in avoid_set:
        raise InputError("the probed node cannot itself be avoided")
    if model.kind == "UP":  # members[p] meets avoid_set as paths[p] does, avoid_set holding non-monitors
        members = model.ensemble.members
        return next((p for p in sorted(model.ensemble.incidence[v]) if avoid_set.isdisjoint(members[p])), None)
    need, search = (1, _shortest_paths) if model.kind == "CAP" else (2, disjoint_paths)
    paths = search(topology, v, topology.monitors, avoid_set, need)
    return tuple(reversed(paths[0])) + paths[-1][1:] if len(paths) == need else None


def _reached(topology: Topology, model: ProbingModel, failure: FailureSet) -> frozenset[int]:
    """R(F): the non-monitors some probe of ``model`` traverses while ``failure`` is down.

    The one place R(F) is decided: under CAP/CSP ``graph._certified``, else one walk, answers
    every non-monitor.  ``failure`` must be checked already (the enumerations build theirs).
    """
    if model.kind == "UP":
        incidence = model.ensemble.incidence
        down = set().union(*(incidence[v] for v in failure))
        return frozenset(v for v in topology.non_monitors if not incidence[v] <= down)
    if _certified(topology, failure, 1 if model.kind == "CAP" else 2):
        return topology.non_monitors - failure
    return (_connected_to_monitors if model.kind == "CAP" else _biconnected_to_monitors)(topology, failure)


def _stranding_level(topology: Topology, model: ProbingModel) -> int | None:
    """J, the least size of a failure set stranding another non-monitor, or None.

    Read off d, dm or delta by the rules in the module docstring.
    """
    sigma = topology.sigma
    if sigma == 0:
        return None
    if model.kind == "UP":
        delta = min(_cover(model.ensemble, v, guarded=False) for v in topology.non_monitors)
        return None if delta == INFINITE_COVER else delta
    d = topology._d
    if model.kind == "CAP":
        return d if d < sigma else None
    dm = topology._dm
    return None if min(d, dm) >= sigma else max(min(d - 1, dm), 0)


def simulate_measurements(
    topology: Topology, model: ProbingModel, truth: Iterable[int]
) -> dict[int, bool]:
    """Deterministic observations produced when ``truth`` is down.

    UP maps every path id to whether its non-monitors all lie in R(F).
    CAP/CSP read R(F) directly: one virtual probe per non-monitor asking
    "does a measurable path through this node survive", which carries
    exactly the information any set of probes of the regime can reveal.
    """
    _check_model(topology, model)
    reached = _reached(topology, model, _check_failure_set(topology, truth))
    if model.kind == "UP":
        return {p: nodes <= reached for p, nodes in enumerate(model.ensemble.members)}
    return {v: v in reached for v in sorted(topology.non_monitors)}


def distinguishable(
    topology: Topology, model: ProbingModel, first: Iterable[int], second: Iterable[int]
) -> tuple[bool, Witness]:
    """Whether two distinct failure sets produce different observations.

    The positive witness is a probe that traverses a node of exactly one set
    while avoiding the other entirely; the negative witness is the pair.
    """
    _check_model(topology, model)
    f1 = _check_failure_set(topology, first)
    f2 = _check_failure_set(topology, second)
    if f1 == f2:
        raise InputError("the two failure sets must differ")
    for mine, other in ((f2, f1), (f1, f2)):
        reached = _reached(topology, model, other)
        for v in sorted(mine - other):
            if v in reached:
                probe = find_measurable_path(topology, model, v, other)
                if isinstance(probe, int):
                    return True, DistinguishingPath(path_id=probe)
                return True, DistinguishingPath(walk=probe)
    return False, IndistinguishablePair(f1, f2)


def _first_collision(
    topology: Topology, model: ProbingModel, levels: range
) -> IndistinguishablePair | None:
    """First pair of failure sets within ``levels`` with equal R(F), or None."""
    seen: dict[frozenset[int], FailureSet] = {}
    for failure in _failure_sets(sorted(topology.non_monitors), levels):
        reached = _reached(topology, model, failure)
        if reached in seen:
            return IndistinguishablePair(seen[reached], failure)
        if len(reached) + len(failure) < topology.sigma:
            seen[reached] = failure
    return None


def k_identifiable(
    topology: Topology, model: ProbingModel, k: int, guard: int = DEFAULT_GUARD
) -> tuple[bool, IndistinguishablePair | None]:
    """Whether every pair of failure sets of size at most k is distinguishable.

    The counterexample is the first indistinguishable pair met when the
    sets are listed by ascending size, lexicographic within size, so it is
    deterministic.  No set below the stranding level J has a twin (see the
    module docstring), so without a J or with J above k the answer costs no
    sweep; it sweeps level J alone when k = J, else J and J + 1.  CAP holds
    no twins at J = d either, so it sweeps only for that pair when k > d.
    """
    _check_model(topology, model)
    _plain_int(k, "k", 0, topology.sigma)
    _check_guard(topology, guard)
    low = _stranding_level(topology, model)
    if low is None or low > k or (low == k and model.kind == "CAP"):
        return True, None
    pair = _first_collision(topology, model, range(low, min(k, low + 1) + 1))
    return pair is None, pair


def max_identifiability(
    topology: Topology, model: ProbingModel, guard: int = DEFAULT_GUARD
) -> int:
    """Largest k for which the network is k-identifiable under ``model``.

    Sigma when no set strands a node, else J or J - 1 as the network is or
    is not J-identifiable, read off :func:`k_identifiable` at the stranding
    level J (see the module docstring): so CAP and a network with no J cost
    no sweep, and CSP and UP sweep level J.
    """
    _check_model(topology, model)
    _check_guard(topology, guard)
    low = _stranding_level(topology, model)
    if low is None:
        return topology.sigma
    return low if k_identifiable(topology, model, low, guard)[0] else low - 1


def localize(
    topology: Topology,
    model: ProbingModel,
    outcomes: Mapping[int, bool],
    k_max: int,
    guard: int = DEFAULT_GUARD,
) -> list[FailureSet]:
    """All failure sets of size at most ``k_max`` matching the observations.

    Candidates are returned by ascending size then lexicographic member
    order.  When ``k_max`` does not exceed the network's maximum
    identifiability the result is a single set.  ``outcomes`` maps each
    probe key, a plain int, to a bool reading; neither is coerced.  The
    probes that read up give the target R(F); a map that no R(F) yields has
    no candidates.  CAP/CSP sweep the down set D once, UP none.  When every
    node of D is forced (in every match), the failure is identified: the
    answer is ``[D]``, or ``[]`` if D exceeds ``k_max``, listing no
    candidate.  Else CSP and UP add one sweep per candidate (see the module
    docstring) that is neither D nor a match plus one node (every CAP
    candidate matches).
    """
    _check_model(topology, model)
    k_max = min(_plain_int(k_max, "k_max"), topology.sigma)  # larger sets cannot exist
    _check_guard(topology, guard)
    if not isinstance(outcomes, Mapping):
        raise InputError(f"outcomes must be a mapping, not {type(outcomes).__name__}")
    for key, up in outcomes.items():
        if type(key) is not int or type(up) is not bool:
            raise InputError(f"outcome {key!r}: {up!r} is not an int probe key with a bool reading")
    battery = set(range(len(model.ensemble.members))) if model.kind == "UP" else topology.non_monitors
    if outcomes.keys() != battery:
        raise FormatError(
            f"outcome map does not cover the probe battery: expected {sorted(battery)}, got {sorted(outcomes)}"
        )
    if model.kind == "UP":
        members, target, down_paths = model.ensemble.members, set(), []
        for p, up in outcomes.items():
            if up:
                target |= members[p]
            else:
                down_paths.append(members[p])
        if any(map(target.issuperset, down_paths)):  # else R(D) = T (module docstring)
            return []
        down, incidence = topology.non_monitors - target, model.ensemble.incidence
        forced = {v for v in down if any(members[p] - {v} <= target for p in incidence[v])}
    else:
        target = frozenset(compress(outcomes, outcomes.values()))
        down = topology.non_monitors - target
        if _reached(topology, model, down) != target:
            return []
        kept, need = target | topology.monitors, 1 if model.kind == "CAP" else 2
        forced = {v for v in down if len(topology.neighbors(v) & kept) >= need}
    if forced == down:  # D is the one match
        return [down] if len(down) <= k_max else []
    matches: dict[FailureSet, None] = {}
    for extra in _failure_sets(sorted(down - forced), range(k_max - len(forced) + 1)):
        failure = extra.union(forced)
        closed = model.kind == "CAP" or failure == down or any(failure - {v} in matches for v in extra)
        if closed or _reached(topology, model, failure) == target:
            matches[failure] = None
    return list(matches)
