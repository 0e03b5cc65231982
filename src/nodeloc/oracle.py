"""Brute-force ground truth for identifiability questions.

Everything here sweeps failure sets outright, so results are exact and
serve as the arbiter for the polynomial-time conditions.  The sweeps are
bounded by a configurable guard on the number of non-monitors (default 7);
beyond it the functions refuse with a capacity error instead of stalling.

A probing regime is captured by :class:`ProbingModel`: controllable
arbitrary walks (CAP), controllable simple paths (CSP), or a fixed path
ensemble (UP).  The one observation of a failure set F is R(F), the
non-monitors some probe still traverses while F is down:

* CAP: the non-monitors whose surviving component contains a monitor,
* CSP: those with two vertex-disjoint paths to distinct monitors,
* UP: those on some given path that avoids F.

One sweep of the surviving graph finds R(F): a component sweep for CAP,
the failed nodes' path incidence for UP, and for CSP one block
(biconnected-component) sweep.  By the fan lemma a non-monitor has two
vertex-disjoint paths to distinct monitors iff it shares a block with a
virtual sink joined to every monitor, so one low-point DFS replaces a
max-flow per node.  The probe battery maps each probe to the non-monitors
it traverses, and a probe reads up exactly when they all lie in R(F); so
two failure sets are indistinguishable exactly when their R(F) are equal.

Identifiability needs two levels of failure sets (the sets of one size),
not every set.  R(F) misses F, shrinks as F grows, and holds every probe
that witnesses one of its nodes; so adding v to F changes no observation
exactly when v is outside R(F).
Let P(j) say some set of j non-monitors leaves another one unreached: P is
monotone up to j = sigma - 1, and its least level J is found by testing
sigma - 1 and bisecting.  No set below J has a twin (a distinct set with
equal observations), a stranding set at J has one a level up, and twins of
one size make P hold there.  So k-identifiability fails exactly when
P(k - 1) holds or level k holds twins, and the maximum is sigma without a
J, else J - 1 or J as level J does or does not hold twins.  The worst case
stays exponential: with the maximum near sigma / 2 the bisection sweeps
whole middle levels, hence the guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from .ensemble import PathEnsemble
from .errors import CapacityError, FormatError, InputError
from .graph import Topology, _biconnected_to_monitors, _check_k, _components, _plain_int, disjoint_paths

DEFAULT_GUARD = 7

FailureSet = frozenset[int]

#: Sentinel selecting the "any single monitor may be deleted" variant of
#: :func:`exhaustive_component_condition`.
ANY_MONITOR = "any"


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


def _check_probe(
    topology: Topology, model: ProbingModel, v: int, avoid: Iterable[int]
) -> FailureSet:
    _check_model(topology, model)
    avoid_set = _check_failure_set(topology, avoid)
    topology._check_node(v)
    if v in topology.monitors:
        raise InputError(f"node {v} is a monitor; only non-monitors are probed")
    if v in avoid_set:
        raise InputError("the probed node cannot itself be avoided")
    return avoid_set


def _failure_sets(pool: Sequence[int], sizes: range) -> Iterator[FailureSet]:
    """Subsets of ``pool`` with a size in ``sizes``: ascending size, then ``pool`` order."""
    for size in sizes:
        yield from map(frozenset, combinations(pool, size))


def find_measurable_path(
    topology: Topology, model: ProbingModel, v: int, avoid: Iterable[int] = ()
) -> tuple[int, ...] | int | None:
    """A concrete probe through ``v`` avoiding ``avoid``, or None.

    Returns a node walk for CAP/CSP and a path id for UP.
    """
    avoid_set = _check_probe(topology, model, v, avoid)
    if model.kind == "CAP":
        return _monitor_walk(topology, v, avoid_set)
    if model.kind == "CSP":
        paths = disjoint_paths(topology, v, topology.monitors, avoid_set, limit=2)
        if len(paths) < 2:
            return None
        first, second = paths[0], paths[1]
        return tuple(reversed(first)) + second[1:]
    for pid in sorted(model.ensemble.paths_through(v)):
        if avoid_set.isdisjoint(model.ensemble.paths[pid]):
            return pid
    return None


def _monitor_walk(topology: Topology, v: int, avoid: FailureSet) -> tuple[int, ...] | None:
    """Shortest monitor-to-v-and-back walk avoiding ``avoid`` (BFS tree path)."""
    parent: dict[int, int | None] = {v: None}
    queue = [v]
    hit = None
    for u in queue:
        if u in topology.monitors:
            hit = u
            break
        for w in sorted(topology.adjacency[u]):
            if w not in parent and w not in avoid:
                parent[w] = u
                queue.append(w)
    if hit is None:
        return None
    path = [hit]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    # path runs monitor -> v; the measurable walk returns to the monitor.
    return tuple(path) + tuple(reversed(path[:-1]))


def _reached(topology: Topology, model: ProbingModel, failure: FailureSet) -> frozenset[int]:
    """R(F): the non-monitors some probe of ``model`` traverses while ``failure`` is down.

    One sweep answers every non-monitor.  ``failure`` must be checked
    already (the enumerations build theirs).
    """
    if model.kind == "CAP":
        reached: set[int] = set()
        for component in _components(topology, failure):
            if component & topology.monitors:
                reached |= component
        return frozenset(reached - topology.monitors)
    if model.kind == "CSP":
        return _biconnected_to_monitors(topology, failure)
    incidence = model.ensemble.incidence
    down = set().union(*(incidence[v] for v in failure))
    return frozenset(v for v in topology.non_monitors if not incidence[v] <= down)


def _battery(topology: Topology, model: ProbingModel) -> dict[int, frozenset[int]]:
    """Each probe key, ascending, mapped to the non-monitors that probe traverses.

    A probe reads up exactly when its non-monitors all lie in R(F).  UP keys
    path ids: an up path's nodes are all reached, and a down path passes a
    failed node, which is never reached.  CAP/CSP key one virtual probe per
    non-monitor v, asking whether some probe of the regime traverses v.
    """
    if model.kind == "UP":
        return {pid: frozenset(nodes) - topology.monitors for pid, nodes in enumerate(model.ensemble.paths)}
    return {v: frozenset({v}) for v in sorted(topology.non_monitors)}


def measurable_path_exists(
    topology: Topology, model: ProbingModel, v: int, avoid: Iterable[int] = ()
) -> bool:
    """Whether some probe of ``model`` traverses ``v`` while ``avoid`` is down."""
    return v in _reached(topology, model, _check_probe(topology, model, v, avoid))


def abstract_sufficient(
    topology: Topology, model: ProbingModel, k: int, guard: int = DEFAULT_GUARD
) -> bool:
    """Every node stays measurable under every failure set of size at most k.

    This is the raw enumeration form of the sufficient condition; it implies
    k-identifiability directly (the surviving probe separates any two
    candidate sets differing at that node).  A stranded node stays stranded
    as the set grows, so the one level min(k, sigma - 1) decides it.
    """
    _check_model(topology, model)
    _check_k(topology, k)
    _check_guard(topology, guard)
    return not _traps(topology, model, min(k, topology.sigma - 1))


def _traps(
    topology: Topology, model: ProbingModel, size: int, dropped: FailureSet = frozenset()
) -> bool:
    """P(size): some set of ``size`` non-monitors (plus ``dropped``) strands another."""
    non_monitors = topology.non_monitors
    return size >= 0 and any(
        not non_monitors - failure <= _reached(topology, model, failure | dropped)
        for failure in _failure_sets(sorted(non_monitors), range(size, size + 1))
    )


def _first_trap_level(topology: Topology, model: ProbingModel, top: int) -> int | None:
    """Least level J <= ``top`` with P(J), or None: ``top`` first, then bisection."""
    if not _traps(topology, model, top):
        return None
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _traps(topology, model, mid) else (mid + 1, hi)
    return hi


def simulate_measurements(
    topology: Topology, model: ProbingModel, truth: Iterable[int]
) -> dict[int, bool]:
    """Deterministic observations produced when ``truth`` is down.

    UP maps every path id to up/down.  CAP/CSP use the canonical probe
    battery: one virtual probe per non-monitor asking "does a measurable
    path through this node survive", which carries exactly the information
    any set of probes of the regime can reveal.
    """
    _check_model(topology, model)
    reached = _reached(topology, model, _check_failure_set(topology, truth))
    return {key: nodes <= reached for key, nodes in _battery(topology, model).items()}


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
        seen[reached] = failure
    return None


def k_identifiable(
    topology: Topology, model: ProbingModel, k: int, guard: int = DEFAULT_GUARD
) -> tuple[bool, IndistinguishablePair | None]:
    """Whether every pair of failure sets of size at most k is distinguishable.

    The counterexample is the first indistinguishable pair met when the
    sets are listed by ascending size, lexicographic within size, so it is
    deterministic.  It sweeps level k alone when no set of size k - 1
    strands a node, else the least stranding level J and J + 1: no set
    below J has a twin (see the module docstring).
    """
    _check_model(topology, model)
    _check_k(topology, k)
    _check_guard(topology, guard)
    low = _first_trap_level(topology, model, k - 1)
    levels = range(k, k + 1) if low is None else range(low, low + 2)
    pair = _first_collision(topology, model, levels)
    return pair is None, pair


def max_identifiability(
    topology: Topology, model: ProbingModel, guard: int = DEFAULT_GUARD
) -> int:
    """Largest k for which the network is k-identifiable under ``model``.

    Sigma when no set strands a node, else J - 1 or J as the least
    stranding level J does or does not hold twins (see the module
    docstring).  A network identifiable up to sigma costs sigma sweeps.
    """
    _check_model(topology, model)
    _check_guard(topology, guard)
    low = _first_trap_level(topology, model, topology.sigma - 1)
    if low is None:
        return topology.sigma
    return low - 1 if _first_collision(topology, model, range(low, low + 1)) else low


def abstract_necessary(
    topology: Topology, model: ProbingModel, k: int, guard: int = DEFAULT_GUARD
) -> bool:
    """Identifiability must survive conditioning on any smaller failure set.

    For every non-monitor set V' with fewer than k members, the residual
    network (V' deleted, probes intersecting V' dropped) must still be
    (k - |V'|)-identifiable.  That is k-identifiability itself: V' = {} asks
    exactly it, and twins F1, F2 of a residual network (equal observations
    with V' deleted) lift to the twins F1 | V', F2 | V' of the whole network,
    since probes through V' read down on both sides and every other probe
    reads as it did in the residual network.
    """
    return k_identifiable(topology, model, k, guard=guard)[0]


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
    no candidates, and only non-monitors outside the target are enumerated.
    """
    _check_model(topology, model)
    k_max = min(_plain_int(k_max, "k_max"), topology.sigma)  # larger sets cannot exist
    _check_guard(topology, guard)
    if not isinstance(outcomes, Mapping):
        raise InputError(f"outcomes must be a mapping, not {type(outcomes).__name__}")
    for key, up in outcomes.items():
        if type(key) is not int or type(up) is not bool:
            raise InputError(f"outcome {key!r}: {up!r} is not an int probe key with a bool reading")
    battery = _battery(topology, model)
    if set(outcomes) != set(battery):
        raise FormatError(
            "outcome map does not cover the probe battery: expected "
            f"{list(battery)}, got {sorted(outcomes)}"
        )
    target = frozenset().union(*(nodes for key, nodes in battery.items() if outcomes[key]))
    if any(outcomes[key] != (nodes <= target) for key, nodes in battery.items()):
        return []
    pool = sorted(topology.non_monitors - target)
    return [
        failure
        for failure in _failure_sets(pool, range(k_max + 1))
        if _reached(topology, model, failure) == target
    ]


def exhaustive_component_condition(
    topology: Topology,
    s: int,
    with_monitor: int | None | Literal["any"] = None,
    guard: int = DEFAULT_GUARD,
) -> bool:
    """Raw survivable-monitoring condition, checked by full enumeration.

    With ``with_monitor=None``: after deleting any set of at most ``s``
    non-monitors, every surviving component contains a monitor.  With a
    monitor id, that monitor is deleted alongside the non-monitors.  With
    :data:`ANY_MONITOR`, the deleted set may include at most one monitor of
    any identity (total size still at most ``s``).  A monitorless component
    strands its non-monitors, which stay stranded as the set grows, so each
    variant is decided at its budget capped at sigma - 1.
    """
    _check_k(topology, s, "s")
    _check_guard(topology, guard)

    # (monitors deleted, how many non-monitors may be deleted with them)
    if with_monitor is None:
        variants = [(frozenset(), s)]
    elif with_monitor == ANY_MONITOR:
        variants = [(frozenset(), s)] + [(frozenset({m}), s - 1) for m in sorted(topology.monitors)]
    else:
        topology._check_node(with_monitor)
        if with_monitor not in topology.monitors:
            raise InputError(f"node {with_monitor} is not a monitor")
        variants = [(frozenset({with_monitor}), s)]
    return not any(
        _traps(topology, CAP, min(size, topology.sigma - 1), dropped)
        for dropped, size in variants
    )
