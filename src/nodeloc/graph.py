"""Undirected topology model and the graph primitives the analyses use.

A :class:`Topology` is an immutable simple graph whose nodes carry a
monitor / non-monitor label.  Node ids are dense integers ``0..node_count-1``
so that the exhaustive analyses elsewhere in the package can use cheap set
arithmetic; human-readable names live in the document layer.

Auxiliary-graph connectivity d (:func:`monitor_connectivity`) comes from the
low-point DFS and unit-capacity max-flow that the monitor block sweep and
:func:`disjoint_paths` also use; its leave-one-out minimum dm is exact at d =
sigma and capped at d - 1 below, where CSP reads only min(d - 1, dm).  Each
value builds its memos on first read: ``Topology._d``, ``_dm``, ``adjacency``
(UP reads none), and the non-monitors with at least one and two monitor
neighbours, ``_bordering_one`` and ``_bordering_two``, which certify most R(F).

All functions here are pure and every value is frozen, so shared topologies
may be analyzed concurrently without locking; every memo is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import InputError

Edge = tuple[int, int]


def _plain_int(
    value: object, what: str, lo: int = 0, hi: int | None = None, error: type = InputError
) -> int:
    """The one budget rule: an int (not a bool) in ``lo..hi``, never coerced.

    Budgets, guards and limits all pass through it; ``hi=None`` leaves the
    range open above, and ``error`` is the class the caller raises.
    """
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        span = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise error(f"{what} must be an integer {span}, got {value!r}")
    return value


def _check_k(topology: Topology, k: int) -> None:
    """A failure budget is a plain int in 0..sigma."""
    _plain_int(k, "k", 0, topology.sigma)


def _entries(values: object, what: str) -> tuple:
    """``values`` as a tuple; an :class:`InputError` naming ``what`` if it is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{what} must be iterable, not {type(values).__name__}") from None


def _normalized_edges(node_count: int, edges: Iterable[Iterable[int]]) -> frozenset[Edge]:
    out: set[Edge] = set()
    for edge in _entries(edges, "edges"):
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise InputError(f"edge {edge!r} is not a pair of node ids") from None
        if type(u) is not int or type(v) is not int or not (0 <= u < node_count and 0 <= v < node_count):
            raise InputError(f"edge ({u!r}, {v!r}) references a node outside 0..{node_count - 1}")
        if u == v:
            raise InputError(f"self-loop at node {u} is not allowed")
        out.add((edge if type(edge) is tuple else (u, v)) if u < v else (v, u))  # (u, v) tuples kept
    return frozenset(out)


@dataclass(frozen=True)
class Topology:
    """Immutable undirected graph with a monitor labelling.

    Attributes:
        node_count: number of nodes; ids are ``0..node_count-1``.
        edges: normalized ``(u, v)`` pairs with ``u < v``; no self-loops.
        monitors: non-empty set of monitor node ids.
    """

    node_count: int
    edges: frozenset[Edge]
    monitors: frozenset[int]
    non_monitors: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.node_count) is not int or self.node_count < 1:
            raise InputError(f"node count {self.node_count!r} is not an int of at least 1")
        object.__setattr__(self, "edges", _normalized_edges(self.node_count, self.edges))
        monitors = _entries(self.monitors, "monitors")
        for m in monitors:
            if type(m) is not int or not 0 <= m < self.node_count:
                raise InputError(f"monitor id {m!r} outside 0..{self.node_count - 1}")
        if not monitors:
            raise InputError("a topology needs at least one monitor")
        object.__setattr__(self, "monitors", frozenset(monitors))
        object.__setattr__(
            self, "non_monitors", frozenset(range(self.node_count)) - self.monitors
        )

    @property
    def nodes(self) -> range:
        return range(self.node_count)

    @property
    def sigma(self) -> int:
        """Number of non-monitors, the largest conceivable failure-set size."""
        return self.node_count - len(self.monitors)

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood of ``v``."""
        self._check_node(v)
        return self.adjacency[v]

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Each node's open neighbourhood, built on first read: UP analysis reads none."""
        adj: list[set[int]] = [set() for _ in self.nodes]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(map(frozenset, adj))

    _d = cached_property(lambda self: monitor_connectivity(self))
    _dm = cached_property(lambda self: _leave_one_out_connectivity(self, self._d))
    _bordering_one = cached_property(lambda self: _bordering(self, 1))
    _bordering_two = cached_property(lambda self: _bordering(self, 2))

    def _check_node(self, v: int) -> None:
        """The one node-id rule, inlined in loops over every id: an int (not a bool) in range."""
        if type(v) is not int or not 0 <= v < self.node_count:
            raise InputError(f"unknown node id {v!r}")

    def _check_nodes(self, nodes: Iterable[int]) -> frozenset[int]:
        out = _entries(nodes, "node set")
        for v in out:
            self._check_node(v)
        return frozenset(out)


def connected_components(topology: Topology, removed: Iterable[int] = ()) -> tuple[frozenset[int], ...]:
    """Connected components of ``topology`` after deleting ``removed``.

    A tuple of pairwise disjoint node sets that, with ``removed``, cover
    every node; sorted by smallest member id, which makes every downstream
    report deterministic.
    """
    return _components(topology, topology._check_nodes(removed))


def _components(topology: Topology, removed: frozenset[int]) -> tuple[frozenset[int], ...]:
    """:func:`connected_components` for a removed set the caller has checked."""
    seen: set[int] = set(removed)
    components: list[frozenset[int]] = []
    for start in topology.nodes:
        if start not in seen:
            seen.add(start)
            components.append(frozenset(_reach(topology.adjacency, [start], seen)))
    return tuple(components)


def _reach(adjacency: tuple[frozenset[int], ...], order: list[int], seen: set[int]) -> list[int]:
    """Extend ``order`` by the nodes one search reaches outside ``seen``, which holds ``order``."""
    for u in order:
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _bordering(topology: Topology, need: int) -> frozenset[int]:
    """The non-monitors with at least ``need`` monitor neighbours."""
    monitors, adjacency = topology.monitors, topology.adjacency
    return frozenset(v for v in topology.non_monitors if len(adjacency[v] & monitors) >= need)


def _certified(topology: Topology, removed: frozenset[int], need: int) -> bool:
    """Whether every survivor has ``need`` neighbours that are monitors or anchors,
    survivors bordering ``need`` monitors; then R(F) is every survivor (``oracle``
    docstring).  Stops at the first survivor that fails, building no set before it."""
    anchors = topology._bordering_two if need == 2 else topology._bordering_one
    monitors, adjacency = topology.monitors, topology.adjacency
    for v in topology.non_monitors:
        if v not in anchors and v not in removed:
            if len(adjacency[v] & monitors) + len((adjacency[v] & anchors) - removed) < need:
                return False
    return True


def _connected_to_monitors(topology: Topology, removed: frozenset[int]) -> frozenset[int]:
    """Non-monitors whose component of ``topology`` minus ``removed`` holds a monitor:
    every survivor if :func:`_certified`, else one search from the monitors."""
    if _certified(topology, removed, 1):
        return topology.non_monitors - removed
    monitors = topology.monitors
    return frozenset(_reach(topology.adjacency, list(monitors), set(monitors).union(removed))[len(monitors):])


def _biconnected_to_monitors(topology: Topology, removed: frozenset[int]) -> frozenset[int]:
    """Non-monitors sharing a block with a virtual sink joined to every monitor.

    The block (biconnected component) is taken in ``topology`` minus
    ``removed`` plus the sink t.  By the fan lemma these are exactly the
    surviving non-monitors with two vertex-disjoint paths to distinct
    monitors.  Empty when there are fewer than two monitors.

    Every survivor if :func:`_certified`, else one low-point DFS rooted at t
    (:func:`_low_points`): a node w whose tree parent u is not t shares t's
    block iff u does and ``low[w] < disc[u]``; every child of t (a monitor)
    does.  ``removed`` must be checked already.
    """
    monitors = topology.monitors
    if len(monitors) < 2:
        return frozenset()
    if _certified(topology, removed, 2):
        return topology.non_monitors - removed
    sink = topology.node_count
    order, disc, low, parent = _low_points(topology.adjacency, monitors, removed)
    reached: set[int] = set()
    for w in order[1:]:
        u = parent[w]
        if u == sink or (u in reached and low[w] < disc[u]):
            reached.add(w)
    return frozenset(reached - monitors)


def _low_points(
    adjacency: tuple[frozenset[int], ...], root_neighbors: frozenset[int], removed: frozenset[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Hopcroft-Tarjan low-point DFS: ``(order, disc, low, parent)``.

    The root is the virtual node ``len(adjacency)``, joined to
    ``root_neighbors`` alone.  ``order`` lists the nodes reached, root first.
    Low points count the tree edge to the parent too, so a non-root u cuts
    its child w's subtree off the root iff ``low[w] >= disc[u]``.  An
    explicit iterator stack keeps long paths off the Python stack.
    """
    root = len(adjacency)
    size = root + 1
    disc = [-1] * size
    # A removed node counts as visited with a discovery time above every
    # real one, so it is never entered and never lowers a low point.
    for v in removed:
        disc[v] = size
    low = [0] * size
    parent = [root] * size
    disc[root] = 0
    order = [root]
    stack = [(root, iter(root_neighbors))]
    while stack:
        u, neighbors = stack[-1]
        for w in neighbors:
            if disc[w] < 0:
                disc[w] = len(order)
                # An edge to the root is a back edge to disc 0, or the tree
                # edge from it, whose child's low point is never read.
                low[w] = 0 if w in root_neighbors else disc[w]
                parent[w] = u
                order.append(w)
                stack.append((w, iter(adjacency[w])))
                break
            if disc[w] < low[u]:
                low[u] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
    return order, disc, low, parent


class _FlowNet:
    """Unit-capacity max-flow network (Dinic); each augmenting path pushes one unit."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(1)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int, limit: int) -> int:
        flow = 0
        while flow < limit:
            level = self._bfs_levels(s, t)
            if level is None:
                break
            flow += self._blocking_flow(s, t, limit - flow, level)
        return flow

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        # Stop at t: every node on a shortest s-t path is levelled by then.
        adj, to, cap = self.adj, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            next_level = level[u] + 1
            for a in adj[u]:
                v = to[a]
                if cap[a] > 0 and level[v] < 0:
                    level[v] = next_level
                    if v == t:
                        return level
                    queue.append(v)
        return None

    def _blocking_flow(self, s: int, t: int, limit: int, level: list[int]) -> int:
        """Push up to ``limit`` units along level-graph paths, without recursion.

        ``path`` holds the arcs from ``s`` to the current node; reaching ``t``
        pushes one unit and restarts at ``s``, whose arc pointers ``it`` keep.
        A dead end (no usable arc left) is retreated from and levelled -1.
        """
        adj, to, cap = self.adj, self.to, self.cap
        it = [0] * self.n
        path: list[int] = []
        flow = 0
        u = s
        while flow < limit:
            if u == t:
                for a in path:
                    cap[a] -= 1
                    cap[a ^ 1] += 1
                flow += 1
                path.clear()
                u = s
                continue
            arcs = adj[u]
            next_level = level[u] + 1
            for i in range(it[u], len(arcs)):
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == next_level:
                    it[u] = i
                    path.append(a)
                    u = to[a]
                    break
            else:
                if u == s:
                    break
                level[u] = -1
                u = to[path.pop() ^ 1]
                it[u] += 1
        return flow


def _split_flow_net(node_count: int, edges: Iterable[Edge]) -> _FlowNet:
    """Node-split digraph: node v is arc number 2v, from in-copy 2v to out-copy 2v+1.

    Edge {u, v} gives arcs 2u+1 -> 2v and 2v+1 -> 2u; id 2n is left for a
    super-sink.  Flows start at a source's out-copy and end at a target's
    in-copy, and any other out-copy receives only through its split arc, so
    capacity one suffices everywhere.  Setting ``cap[2v]`` to 0 closes node v.
    """
    net = _FlowNet(2 * node_count + 1)
    for v in range(node_count):
        net.add_arc(2 * v, 2 * v + 1)
    for u, v in edges:
        net.add_arc(2 * u + 1, 2 * v)
        net.add_arc(2 * v + 1, 2 * u)
    return net


def disjoint_paths(
    topology: Topology,
    source: int,
    targets: Iterable[int],
    forbidden: Iterable[int] = (),
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """A maximum set of vertex-disjoint paths from ``source`` to distinct targets.

    Each path is a node tuple from ``source`` to its own target; paths share
    only the source and avoid every ``forbidden`` node, so the list's length
    is the maximum number of such paths.  Pass ``limit`` to stop once that
    many exist.  Computed as a unit-capacity flow on the node-split digraph,
    with each forbidden node's split arc closed and each target feeding a
    super-sink, built from the sorted edges and targets so that the paths
    depend only on the topology value.  With ``limit=1`` the path is a shortest
    one, since Dinic's first phase follows BFS levels.
    """
    topology._check_node(source)
    target_set = topology._check_nodes(targets)
    forbidden_set = topology._check_nodes(forbidden)
    if source in forbidden_set:
        raise InputError("source must not be forbidden")
    if target_set & forbidden_set:
        raise InputError("targets and forbidden nodes must be disjoint")
    if source in target_set:
        raise InputError("source must not be a target")
    cap = len(target_set) if limit is None else min(_plain_int(limit, "limit"), len(target_set))
    net = _split_flow_net(topology.node_count, sorted(topology.edges))
    for v in forbidden_set:
        net.cap[2 * v] = 0
    sink = 2 * topology.node_count
    for t in sorted(target_set):
        net.add_arc(2 * t + 1, sink)
    flow = net.max_flow(2 * source + 1, sink, limit=cap)
    # Decompose the unit flow into node sequences.  A forward (even) arc carries
    # flow iff its reverse has residual capacity; taking that unit consumes it.
    paths: list[tuple[int, ...]] = []
    for _ in range(flow):
        path = [source]
        u = 2 * source + 1
        while u != sink:
            for a in net.adj[u]:
                if a % 2 == 0 and net.cap[a ^ 1] > 0:
                    net.cap[a ^ 1] -= 1
                    u = net.to[a]
                    if u != sink:
                        path.append(u // 2)
                        u += 1  # hop from the in-copy through the split arc to the out-copy
                    break
            else:
                raise AssertionError("flow decomposition failed")
        paths.append(tuple(path))
    return paths


def monitor_connectivity(topology: Topology, left_out: int | None = None) -> int:
    """Vertex connectivity of an auxiliary graph H, read without building H.

    H deletes the monitors (all of them, or all but ``left_out``, which is
    deleted without a trace), adds a virtual monitor x joined to the boundary
    B (the non-monitors bordering a merged monitor), and joins B into a
    clique; so kappa(H) is sigma when B holds every non-monitor.  Otherwise
    the simplicial x lies in no minimal separator, so kappa(H) is the least
    kappa(x, w) over the non-monitors w outside B (Esfahanian & Hakimi).  An
    x-w path through a clique edge b1-b2 can start at b2 instead, so
    kappa(x, w) is the same in G', the graph with the merged monitors
    contracted into x, the left-out one deleted, and no clique edges.

    One low-point DFS of G' from x answers 0 (a non-monitor unreached) and
    1 (a cut vertex other than x, which is simplicial in H), and a least
    H-degree of 2 answers 2; otherwise unit flows w -> x (whose BFS stops at
    B), capped at the best cut so far, tried by ascending degree.  The flows
    share one node-split network, each running Dinic from restored
    capacities.  A w with best certified neighbours (B and each decided target,
    all with kappa(x, u) >= best) needs none: a smaller cut strands one of them.
    """
    return _capped_connectivity(topology, left_out, topology.sigma)


def _capped_connectivity(topology: Topology, left_out: int | None, cap: int) -> int:
    """:func:`monitor_connectivity` capped: min(kappa(H), cap) for 1 <= cap <= sigma."""
    sigma = topology.sigma
    if sigma == 0:
        raise InputError("auxiliary graphs need at least one non-monitor")
    monitors = topology.monitors
    if left_out is not None:
        topology._check_node(left_out)
        if left_out not in monitors:
            raise InputError(f"node {left_out} is not a monitor")
    adjacency = topology.adjacency
    x = topology.node_count
    boundary = frozenset(
        b for m in monitors if m != left_out for b in adjacency[m] if b not in monitors
    )
    if len(boundary) == sigma:
        return cap
    order, disc, low, parent = _low_points(adjacency, boundary, monitors)
    if len(order) <= sigma:
        return 0
    if any(parent[w] != x and low[w] >= disc[parent[w]] for w in order[1:]):
        return 1
    # Now kappa(H) >= 2, and at most the least H-degree, which x or a target
    # has: a boundary node's H-neighbors include the rest of B and x.
    degree = {w: len(adjacency[w] - monitors) for w in topology.non_monitors - boundary}
    targets = sorted(degree, key=lambda w: (degree[w], w))
    best = min(len(boundary), degree[targets[0]], cap)
    if best <= 2:
        return best
    edges = [(u, v) for u, v in topology.edges if u not in monitors and v not in monitors]
    edges += [(b, x) for b in boundary]
    net = _split_flow_net(x + 1, edges)
    base = net.cap[:]
    certified = set(boundary)
    for w in targets:
        if len(certified & adjacency[w]) < best:
            net.cap[:] = base
            best = net.max_flow(2 * w + 1, 2 * x, limit=best)
        certified.add(w)
    return best


def _leave_one_out_connectivity(topology: Topology, d: int) -> int:
    """dm given d: below d = sigma CSP reads only min(d - 1, dm), so dm is capped at
    max(d - 1, 0); at d = sigma it is exact, as the guard note prints it and dm =
    sigma leaves no stranding level.  Each monitor's flows are capped at the least so far.
    At cap 1, dm is 0 iff a component of G - M borders exactly one monitor: H_m is
    connected iff each component borders a monitor besides m, and d >= 1 leaves none bordering none."""
    cap = topology.sigma if d == topology.sigma else max(d - 1, 0)
    if cap == 1:
        adjacency, monitors = topology.adjacency, topology.monitors
        return int(all(len(monitors.intersection(u for v in c for u in adjacency[v])) > 1
                       for c in _components(topology, monitors)))
    for m in sorted(topology.monitors):
        cap = cap and _capped_connectivity(topology, m, cap)
    return cap
