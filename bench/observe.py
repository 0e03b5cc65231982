"""The benchmark's own observation model, written apart from nodeloc.

A network is given as an adjacency list ``adj`` (node id -> neighbour ids),
a monitor set, and for UP a list of path node sets.  A failure set is a
frozenset of non-monitor ids.  The observation is:

* CAP and CSP: one Boolean per non-monitor in ascending id order, true when
  the node is up and some probe of the regime can still traverse it;
* UP: one Boolean per path in path order, true when the path avoids every
  failed node.

CAP uses one search from the monitors.  CSP uses one depth-first search from
a sink joined to every monitor: by the fan lemma a node has two
vertex-disjoint routes to distinct monitors exactly when no single vertex
separates it from that sink, and the search finds every such separator.
nodeloc answers the same questions with per-node max-flows, so agreement is
evidence that both are right.
"""

from __future__ import annotations


def cap_measurable(adj, monitors, failed) -> set[int]:
    """Nodes whose component in G - failed contains a monitor."""
    seen = set(monitors)
    stack = list(monitors)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen and w not in failed:
                seen.add(w)
                stack.append(w)
    return seen


def csp_measurable(adj, monitors, failed) -> set[int]:
    """Non-monitors with two vertex-disjoint routes to distinct monitors in G - failed."""
    sink = len(adj)
    monitor_list = sorted(monitors)

    def neighbours(u):
        if u == sink:
            return monitor_list
        out = [w for w in adj[u] if w not in failed]
        if u in monitors:
            out.append(sink)
        return out

    disc = {sink: 0}
    low = {sink: 0}
    parent = {sink: None}
    stack = [(sink, iter(neighbours(sink)))]
    while stack:
        u, pending = stack[-1]
        for w in pending:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                parent[w] = u
                stack.append((w, iter(neighbours(w))))
                break
            if w != parent[u]:
                low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])

    out = set()
    for v in disc:
        if v == sink or v in monitors:
            continue
        # x separates v from the sink iff x is a proper ancestor of v other
        # than the root whose child c towards v has low[c] >= disc[x].
        child, x = v, parent[v]
        while x != sink and low[child] < disc[x]:
            child, x = x, parent[x]
        if x == sink:
            out.add(v)
    return out


def observe(kind: str, adj, monitors, non_monitors, path_sets, failed) -> tuple[bool, ...]:
    """Observation of ``failed`` under regime ``kind`` (see the module docstring)."""
    if kind == "UP":
        return tuple(not (p & failed) for p in path_sets)
    up = (cap_measurable if kind == "CAP" else csp_measurable)(adj, monitors, failed)
    return tuple(v in up for v in non_monitors)
