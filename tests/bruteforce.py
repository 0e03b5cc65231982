"""Independent brute-force oracles the product implementations are checked against.

Everything here favors obviousness over speed: plain subset enumeration and
simple-path listing, no flow networks and no branch-and-bound, so a bug in
the product cannot hide in a shared code path.
"""

from __future__ import annotations

from itertools import combinations

from nodeloc.ensemble import INFINITE_COVER, PathEnsemble
from nodeloc.graph import Topology
from nodeloc.oracle import k_identifiable, restrict


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
