"""Brute-force ground truth for identifiability questions.

Everything here enumerates failure sets outright, so results are exact and
serve as the arbiter for the polynomial-time conditions.  The enumeration is
bounded by a configurable guard on the number of non-monitors (default 7);
beyond it the functions refuse with a capacity error instead of stalling.

A probing regime is captured by :class:`ProbingModel`: controllable
arbitrary walks (CAP), controllable simple paths (CSP), or a fixed path
ensemble (UP).  A node is measurable while a failure set is down when

* CAP: its surviving component still contains a monitor,
* CSP: it still has two vertex-disjoint paths to distinct monitors,
* UP: some given path through it avoids the failure set.

Each failure set is answered for every node at once by one sweep of the
surviving graph: a component sweep for CAP, the union of the surviving
paths for UP, and for CSP one block (biconnected-component) sweep.  By the
fan lemma a non-monitor has two vertex-disjoint paths to distinct monitors
iff it shares a block with a virtual sink joined to every monitor, so one
low-point DFS replaces a max-flow per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Iterable, Iterator, Literal, Mapping, Sequence

from .ensemble import PathEnsemble, build_ensemble
from .errors import CapacityError, FormatError, InputError
from .graph import Topology, biconnected_to_monitors, connected_components, disjoint_paths

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
class UnprobeableNode:
    """A node no measurement can reach once ``trapped_by`` is down."""

    node: int
    trapped_by: FailureSet


@dataclass(frozen=True)
class IndistinguishablePair:
    """Two failure sets producing identical observations."""

    first: FailureSet
    second: FailureSet


Witness = DistinguishingPath | UnprobeableNode | IndistinguishablePair


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
    if topology.sigma > guard:
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


def _failure_sets(pool: Sequence[int], k: int) -> Iterator[FailureSet]:
    """Subsets of ``pool`` of at most k members: ascending size, then ``pool`` order."""
    for size in range(k + 1):
        for nodes in combinations(pool, size):
            yield frozenset(nodes)


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
        if not model.ensemble.paths[pid].node_set & avoid_set:
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


def _reached(topology: Topology, model: ProbingModel, failure: FailureSet) -> AbstractSet[int]:
    """Nodes some probe of ``model`` traverses while ``failure`` is down.

    One sweep answers every non-monitor; only non-monitors are read from
    the result, and whether it holds the monitors differs by regime.
    """
    if model.kind == "CAP":
        reached: set[int] = set()
        for component in connected_components(topology, failure).components:
            if component & topology.monitors:
                reached |= component
        return reached
    if model.kind == "CSP":
        return biconnected_to_monitors(topology, failure)
    return set().union(*(p.node_set for p in model.ensemble.paths if not p.node_set & failure))


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
    candidate sets differing at that node).  Each failure set is swept once,
    and every node outside it must be reached.
    """
    _check_model(topology, model)
    _check_k_guarded(topology, k, guard)
    return all(
        topology.non_monitors - failure <= _reached(topology, model, failure)
        for failure in _failure_sets(sorted(topology.non_monitors), k)
    )


def _check_k_guarded(topology: Topology, k: int, guard: int) -> None:
    if not 0 <= k <= topology.sigma:
        raise InputError(f"k must lie in 0..{topology.sigma}, got {k}")
    _check_guard(topology, guard)


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
    truth_set = _check_failure_set(topology, truth)
    return dict(zip(_probes(topology, model), _signature(topology, model, truth_set)))


def _probes(topology: Topology, model: ProbingModel) -> list[int]:
    """Keys of the probe battery in ascending order: path ids or non-monitors."""
    if model.kind == "UP":
        return [p.path_id for p in model.ensemble.paths]
    return sorted(topology.non_monitors)


def _signature(topology: Topology, model: ProbingModel, truth: FailureSet) -> tuple[bool, ...]:
    """Observations of the probe battery while ``truth`` is down, in ``_probes`` order.

    UP reads each path.  CAP and CSP read every non-monitor from one sweep
    (:func:`_reached`): the component sweep, or for CSP the block sweep that
    finds the nodes sharing a block with a sink joined to every monitor
    (the fan lemma), one O(n + m) DFS per failure set.
    """
    if model.kind == "UP":
        return tuple(not (p.node_set & truth) for p in model.ensemble.paths)
    reached = _reached(topology, model, truth)
    return tuple(v in reached for v in sorted(topology.non_monitors))


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
    topology: Topology, model: ProbingModel, k: int
) -> IndistinguishablePair | None:
    """First pair of failure sets of size at most k with equal signatures, or None."""
    seen: dict[tuple[bool, ...], FailureSet] = {}
    for failure in _failure_sets(sorted(topology.non_monitors), k):
        signature = _signature(topology, model, failure)
        if signature in seen:
            return IndistinguishablePair(seen[signature], failure)
        seen[signature] = failure
    return None


def k_identifiable(
    topology: Topology, model: ProbingModel, k: int, guard: int = DEFAULT_GUARD
) -> tuple[bool, IndistinguishablePair | None]:
    """Whether every pair of failure sets of size at most k is distinguishable.

    Enumerates candidate sets by ascending size, lexicographic within size,
    and reports the first indistinguishable pair it meets, so the
    counterexample is deterministic.
    """
    _check_model(topology, model)
    _check_k_guarded(topology, k, guard)
    pair = _first_collision(topology, model, k)
    return pair is None, pair


def max_identifiability(
    topology: Topology, model: ProbingModel, guard: int = DEFAULT_GUARD
) -> int:
    """Largest k for which the network is k-identifiable under ``model``."""
    _check_model(topology, model)
    _check_guard(topology, guard)
    pair = _first_collision(topology, model, topology.sigma)
    return topology.sigma if pair is None else len(pair.second) - 1


def abstract_necessary(
    topology: Topology, model: ProbingModel, k: int, guard: int = DEFAULT_GUARD
) -> bool:
    """Identifiability must survive conditioning on any smaller failure set.

    For every non-monitor set V' with fewer than k members, the residual
    network (V' deleted, probes intersecting V' dropped) must still be
    (k - |V'|)-identifiable.
    """
    _check_model(topology, model)
    _check_k_guarded(topology, k, guard)
    for removed in _failure_sets(sorted(topology.non_monitors), k - 1):
        sub_topology, sub_model = restrict(topology, model, removed)
        ok, _ = k_identifiable(sub_topology, sub_model, k - len(removed), guard=guard)
        if not ok:
            return False
    return True


def restrict(
    topology: Topology, model: ProbingModel, removed: Iterable[int]
) -> tuple[Topology, ProbingModel]:
    """Delete non-monitors and keep only probes that survive the deletion."""
    removed_set = _check_failure_set(topology, removed)
    survivors = [v for v in topology.nodes if v not in removed_set]
    new_id = {v: i for i, v in enumerate(survivors)}
    sub = Topology(
        node_count=len(survivors),
        edges=frozenset(
            (new_id[u], new_id[v])
            for u, v in topology.edges
            if u in new_id and v in new_id
        ),
        monitors=frozenset(new_id[m] for m in topology.monitors),
    )
    if model.kind != "UP":
        return sub, model
    surviving_paths = [
        tuple(new_id[v] for v in p.nodes)
        for p in model.ensemble.paths
        if not p.node_set & removed_set
    ]
    return sub, up_model(build_ensemble(sub, surviving_paths))


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
    identifiability the result is a single set.  Only nodes the observations
    allow to be down are enumerated: under CAP/CSP a failed node reads down,
    and under UP it lies on no path that reads up.
    """
    _check_model(topology, model)
    if k_max < 0:
        raise InputError("k_max must be non-negative")
    k_max = min(k_max, topology.sigma)  # larger sets cannot exist
    _check_guard(topology, guard)
    keys = _probes(topology, model)
    if set(outcomes) != set(keys):
        raise FormatError(
            "outcome map does not cover the probe battery: expected "
            f"{keys}, got {sorted(outcomes)}"
        )
    target = tuple(bool(outcomes[key]) for key in keys)
    if model.kind == "UP":
        on_up_paths = set().union(
            *(p.node_set for p, up in zip(model.ensemble.paths, target) if up)
        )
        pool = sorted(topology.non_monitors - on_up_paths)
    else:
        pool = [v for v, up in zip(keys, target) if not up]
    return [
        failure
        for failure in _failure_sets(pool, k_max)
        if _signature(topology, model, failure) == target
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
    any identity (total size still at most ``s``).
    """
    if not 0 <= s <= topology.sigma:
        raise InputError(f"s must lie in 0..{topology.sigma}, got {s}")
    _check_guard(topology, guard)
    pool = sorted(topology.non_monitors)

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
    return all(
        component & topology.monitors
        for dropped, size in variants
        for failure in _failure_sets(pool, size)
        for component in connected_components(topology, failure | dropped).components
    )
