"""Independent brute-force oracles the product implementations are checked against.

Everything here favors obviousness over speed: plain subset enumeration and
simple-path listing, no flow networks and no branch-and-bound, so a bug in
the product cannot hide in a shared code path.  The paper's auxiliary-graph
construction lives here too, built in full (clique and all), as the
reference that :func:`nodeloc.graph.monitor_connectivity` is checked
against.  The package computes no plain vertex connectivity, so
:func:`brute_vertex_connectivity` is the one here (networkx stands in on
graphs too large to enumerate), and :func:`is_k_connected` reads it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from nodeloc.ensemble import INFINITE_COVER, PathEnsemble, build_ensemble
from nodeloc.errors import InputError
from nodeloc.graph import Edge, Topology, _plain_int
from nodeloc.oracle import ProbingModel, k_identifiable, up_model


def neighborhood_of_set(topology: Topology, nodes: Iterable[int]) -> frozenset[int]:
    """All nodes outside ``nodes`` adjacent to at least one member of it."""
    inside = topology._check_nodes(nodes)
    out: set[int] = set()
    for v in inside:
        out |= topology.adjacency[v]
    return frozenset(out - inside)


@dataclass(frozen=True)
class AuxiliaryGraph(Topology):
    """A topology over the non-monitors plus one virtual monitor.

    Both constructions delete every monitor from the topology, renumber the
    surviving non-monitors densely (ascending original id), and append one
    virtual monitor as the last node.  The virtual monitor is wired to the
    non-monitors that were adjacent to a merged monitor, and those boundary
    nodes are joined into a clique by virtual links, so that their mutual
    reachability survives deletion of the virtual monitor.

    Attributes:
        virtual_monitor: id of the appended virtual monitor (always last).
        excluded_monitor: original id of the monitor left out, or None when
            every monitor was merged.
        virtual_edges: edges that are not inherited from the source topology
            (virtual-monitor links plus added clique links).
        original_ids: ascending original ids of the non-monitors; position i
            holds the original id of auxiliary node i.
    """

    virtual_monitor: int
    excluded_monitor: int | None
    virtual_edges: frozenset[Edge]
    original_ids: tuple[int, ...]

    def aux_id(self, original: int) -> int:
        """Auxiliary id of an original non-monitor node."""
        i = bisect.bisect_left(self.original_ids, original)
        if i == len(self.original_ids) or self.original_ids[i] != original:
            raise InputError(f"node {original} is not a non-monitor of the source topology")
        return i


def _merge(topology: Topology, excluded: int | None) -> AuxiliaryGraph:
    if topology.sigma == 0:
        raise InputError("auxiliary graphs need at least one non-monitor")
    merged_monitors = topology.monitors - ({excluded} if excluded is not None else set())
    originals = tuple(sorted(topology.non_monitors))
    aux_of = {v: i for i, v in enumerate(originals)}
    virtual = len(originals)

    inherited: set[Edge] = set()
    for u, v in topology.edges:
        if u in aux_of and v in aux_of:
            a, b = aux_of[u], aux_of[v]
            inherited.add((a, b) if a < b else (b, a))

    boundary = sorted(
        aux_of[v] for v in neighborhood_of_set(topology, merged_monitors) if v in aux_of
    )
    virtual_edges: set[Edge] = {(b, virtual) for b in boundary}
    for a, b in combinations(boundary, 2):
        if (a, b) not in inherited:
            virtual_edges.add((a, b))

    return AuxiliaryGraph(
        node_count=virtual + 1,
        edges=frozenset(inherited | virtual_edges),
        monitors=frozenset({virtual}),
        virtual_monitor=virtual,
        excluded_monitor=excluded,
        virtual_edges=frozenset(virtual_edges),
        original_ids=originals,
    )


def merge_monitors(topology: Topology) -> AuxiliaryGraph:
    """Auxiliary graph with every monitor merged into the virtual monitor.

    The virtual monitor is adjacent to exactly the non-monitor neighbors of
    the monitor set, and those neighbors form a clique.
    """
    return _merge(topology, None)


def merge_monitors_leaving_out(topology: Topology, monitor: int) -> AuxiliaryGraph:
    """Auxiliary graph representing every monitor except ``monitor``.

    The left-out monitor is deleted like any other monitor but contributes
    nothing to the virtual monitor's neighborhood, so a non-monitor reachable
    only through it ends up separated from the virtual monitor.
    """
    topology._check_node(monitor)
    if monitor not in topology.monitors:
        raise InputError(f"node {monitor} is not a monitor")
    return _merge(topology, monitor)


def is_k_connected(topology: Topology, k: int) -> bool:
    """True when the topology is k-vertex-connected, the paper's statement of the conditions.

    ``k = 0`` holds for every topology; otherwise it needs more than k nodes
    and connectivity at least k.
    """
    _plain_int(k, "k")
    if not isinstance(topology, Topology):
        raise InputError(f"expected a Topology, got {type(topology).__name__}")
    return k == 0 or (topology.node_count > k and brute_vertex_connectivity(topology) >= k)


def restrict(
    topology: Topology, model: ProbingModel, removed: Iterable[int]
) -> tuple[Topology, ProbingModel]:
    """Delete non-monitors and keep only probes that survive the deletion."""
    removed_set = frozenset(removed)
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
        tuple(new_id[v] for v in nodes)
        for nodes in model.ensemble.paths
        if removed_set.isdisjoint(nodes)
    ]
    return sub, up_model(build_ensemble(sub, surviving_paths))


def _components_after(topo: Topology, removed: frozenset[int]) -> list[set[int]]:
    seen = set(removed)
    out = []
    for start in topo.nodes:
        if start in seen:
            continue
        stack, members = [start], {start}
        seen.add(start)
        while stack:
            u = stack.pop()
            for w in topo.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    members.add(w)
                    stack.append(w)
        out.append(members)
    return out


def brute_vertex_connectivity(topo: Topology) -> int:
    """Smallest vertex set whose removal disconnects; n-1 for complete graphs."""
    n = topo.node_count
    if len(topo.edges) == n * (n - 1) // 2:
        return n - 1
    for size in range(n - 1):
        for cut in combinations(range(n), size):
            if len(_components_after(topo, frozenset(cut))) > 1:
                return size
    raise AssertionError("non-complete graph with no disconnecting set")


def all_simple_paths(topo: Topology, source: int, target: int, avoid: frozenset[int]):
    """Every simple source-target path avoiding ``avoid``."""
    paths = []

    def walk(u, path, on_path):
        if u == target:
            paths.append(tuple(path))
            return
        for w in sorted(topo.adjacency[u]):
            if w not in on_path and w not in avoid:
                path.append(w)
                on_path.add(w)
                walk(w, path, on_path)
                on_path.remove(w)
                path.pop()

    if source not in avoid and target not in avoid:
        walk(source, [source], {source})
    return paths


def brute_max_disjoint_paths(
    topo: Topology, source: int, targets: frozenset[int], forbidden: frozenset[int]
) -> int:
    """Largest set of source-target paths sharing only the source.

    Paths must reach pairwise distinct targets and avoid ``forbidden``.  Every
    choice of at most one simple path per target is tried, keeping the chosen
    paths' interiors (all but the source) pairwise disjoint.
    """
    options = [
        [frozenset(p[1:]) for p in all_simple_paths(topo, source, t, forbidden)]
        for t in sorted(targets)
    ]

    def most(i: int, used: frozenset[int]) -> int:
        if i == len(options):
            return 0
        best = most(i + 1, used)
        for interior in options[i]:
            if not interior & used:
                best = max(best, 1 + most(i + 1, used | interior))
        return best

    return most(0, frozenset())


def simple_monitor_path_through(topo: Topology, v: int, avoid: frozenset[int]) -> bool:
    """Whether a simple monitor-to-monitor path traverses v and avoids ``avoid``."""
    monitors = sorted(topo.monitors)
    for i, m1 in enumerate(monitors):
        for m2 in monitors[i + 1 :]:
            for path in all_simple_paths(topo, m1, m2, avoid):
                if v in path:
                    return True
    return False


def brute_observations(topo: Topology, model, truth: frozenset[int]) -> dict[int, bool]:
    """Probe battery outcomes while ``truth`` is down, from first principles.

    CAP: a non-monitor reads up when it survives in a component holding a
    monitor.  CSP: when a simple monitor-to-monitor path through it avoids
    ``truth``.  UP: a path reads up when it visits no failed node.
    """
    if model.kind == "UP":
        return {pid: not set(nodes) & truth for pid, nodes in enumerate(model.ensemble.paths)}
    if model.kind == "CAP":
        live = set()
        for component in _components_after(topo, truth):
            if component & topo.monitors:
                live |= component
        return {v: v in live for v in topo.non_monitors}
    return {
        v: v not in truth and simple_monitor_path_through(topo, v, truth)
        for v in topo.non_monitors
    }


def brute_min_cover(ensemble: PathEnsemble, v: int) -> int | float:
    """Exhaustive minimum-cover search over all subsets of the other nodes."""
    targets = ensemble.incidence[v]
    if not targets:
        return 0
    others = sorted(ensemble.topology.non_monitors - {v})
    for size in range(len(others) + 1):
        for group in combinations(others, size):
            covered = set()
            for w in group:
                covered |= ensemble.incidence[w]
            if targets <= covered:
                return size
    return INFINITE_COVER


def all_failure_sets(pool, k: int):
    """Every subset of ``pool`` with at most k members: ascending size, then lexicographic."""
    for size in range(k + 1):
        for nodes in combinations(pool, size):
            yield frozenset(nodes)


def reference_identifiability(topo: Topology, model, observe):
    """Identifiability facts from one pass over every failure set, smallest first.

    ``observe(failure)`` gives the observation map.  Returns ``(pair, trap)``:
    ``pair`` is the first two sets with equal observations (the earliest set
    with that observation, then the set repeating it) or None, and ``trap``
    is the size of the smallest set leaving some other non-monitor
    unmeasurable, or None.  The network is then k-identifiable exactly for
    k below the size of ``pair[1]``, with ``pair`` as the witness from that
    size on, and every node stays measurable under sets of at most k nodes
    exactly for k below ``trap``.
    """
    pair = trap = None
    seen = {}
    for failure in all_failure_sets(sorted(topo.non_monitors), topo.sigma):
        outcome = observe(failure)
        if model.kind == "UP":
            reached = set()
            for pid, nodes in enumerate(model.ensemble.paths):
                if outcome[pid]:
                    reached |= set(nodes)
        else:
            reached = {v for v, up in outcome.items() if up}
        if trap is None and topo.non_monitors - failure - reached:
            trap = len(failure)
        key = tuple(sorted(outcome.items()))
        if pair is None and key in seen:
            pair = (seen[key], failure)
        seen.setdefault(key, failure)
    return pair, trap


def brute_component_condition(topo: Topology, s: int, with_monitor=None) -> bool:
    """Every component keeps a monitor after deleting at most ``s`` nodes.

    ``with_monitor``: None deletes non-monitors only, a monitor id deletes
    that monitor as well, and ``"any"`` lets one monitor of the ``s`` be any.
    """
    pool = sorted(topo.non_monitors)
    if with_monitor is None:
        cases = [(frozenset(), s)]
    elif with_monitor == "any":
        cases = [(frozenset(), s)] + [(frozenset({m}), s - 1) for m in sorted(topo.monitors)]
    else:
        cases = [(frozenset({with_monitor}), s)]
    return all(
        component & topo.monitors
        for dropped, budget in cases
        for failure in all_failure_sets(pool, budget)
        for component in _components_after(topo, failure | dropped)
    )


def reference_abstract_necessary(topo: Topology, model, k: int, guard: int) -> bool:
    """The necessary condition as defined: every residual network stays identifiable.

    For each non-monitor set V' with fewer than k members, delete V' and the
    probes through it (``restrict``) and ask whether the residual network is
    (k - |V'|)-identifiable.
    """
    for removed in all_failure_sets(sorted(topo.non_monitors), k - 1):
        sub_topo, sub_model = restrict(topo, model, removed)
        if not k_identifiable(sub_topo, sub_model, k - len(removed), guard=guard)[0]:
            return False
    return True
