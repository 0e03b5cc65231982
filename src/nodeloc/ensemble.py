"""Fixed measurement-path ensembles and minimum-cover analysis.

Under uncontrollable probing the path set is given, not chosen.  A path is a
monitor-to-monitor walk; its Boolean outcome is "down" exactly when it
traverses a failed node.  The quantity driving identifiability is, per
non-monitor v, the smallest number of other non-monitors whose path sets
jointly cover every path through v: once that many nodes fail, v's state can
become invisible.  A path's route for v is the set of other non-monitors on
it, so that number is the least hitting set of v's distinct routes; the
search branches over routes, and its guard counts the other non-monitors on
v's paths.  Each node is searched once per ensemble value, so the oracle
reads delta off the value, as it reads d and dm off the topology value.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapacityError, FormatError, InputError
from .graph import Topology, _entries

#: Cover size meaning "no set of other nodes can hide this one".
INFINITE_COVER = math.inf

_MAX_CANDIDATES = 20  # exact-cover guard: other non-monitors on a node's paths


@dataclass(frozen=True)
class PathEnsemble:
    """Validated path set with a per-node incidence index.

    ``paths[i]`` is path i's node tuple, the form
    ``TopologyDocument.paths`` uses; a path's id is its index, and
    ``members[i]`` the set of non-monitors the path visits; paths with equal
    members share one frozenset.  ``incidence[v]`` is the set of path ids
    traversing node v; it is empty for monitors and for non-monitors no path
    visits.  ``unobserved`` lists the latter; such nodes can never be
    localized.
    """

    topology: Topology
    paths: tuple[tuple[int, ...], ...]
    members: tuple[frozenset[int], ...]
    incidence: tuple[frozenset[int], ...]
    unobserved: frozenset[int]
    _covers = cached_property(lambda self: {})  # v: (candidate count, cover size), by _cover
    _routes = cached_property(lambda self: _by_node((r, [r]) for r in set(self.members)))  # v: its routes


def build_ensemble(topology: Topology, paths: Iterable[Sequence[int]]) -> PathEnsemble:
    """Validate raw node sequences into a :class:`PathEnsemble`.

    Every sequence must start and end at a monitor and follow edges of the
    topology; entries are node ids, never coerced.  Interior repetition is
    allowed (walks are accepted as given); incidence is computed on the set
    of visited nodes.
    """
    edges, monitors, node_count = topology.edges, topology.monitors, topology.node_count
    validated: list[tuple[int, ...]] = []
    members, shared, visited = [], {}, topology.non_monitors.intersection  # equal routes share one object
    for pid, seq in enumerate(_entries(paths, "paths")):
        try:
            nodes = tuple(seq)
        except TypeError:
            raise InputError(f"path {pid} must be iterable, not {type(seq).__name__}") from None
        if len(nodes) < 2:
            raise FormatError(f"path {pid} has fewer than two nodes")
        for v in nodes:  # _check_node's rule, inline: ids are never coerced
            if type(v) is not int or not 0 <= v < node_count:
                topology._check_node(v)
        if nodes[0] not in monitors or nodes[-1] not in monitors:
            end = nodes[-1] if nodes[0] in monitors else nodes[0]
            raise FormatError(f"path {pid} endpoint {end} is not a monitor")
        a = nodes[0]
        for b in nodes[1:]:
            if ((a, b) if a < b else (b, a)) not in edges:
                raise FormatError(f"path {pid} steps over a missing edge ({a}, {b})")
            a = b
        validated.append(nodes)
        route = visited(nodes)
        members.append(shared.setdefault(route, route))
    groups: dict[frozenset[int], list[int]] = {route: [] for route in shared}  # route: its path ids
    for pid, route in enumerate(members):
        groups[route].append(pid)
    incidence = [frozenset()] * node_count  # one empty set for monitors and unvisited nodes
    for v, ids in _by_node(groups.items()).items():
        incidence[v] = frozenset(ids)
    unobserved = topology.non_monitors.difference(*groups)  # on no route
    return PathEnsemble(topology, tuple(validated), tuple(members), tuple(incidence), unobserved)


def _by_node(groups: Iterable[tuple[frozenset[int], list]]) -> dict[int, list]:
    """Each visited node's items, from (route, items) pairs: a node gets every
    item of each route that holds it, so each distinct route is walked once."""
    out: defaultdict[int, list] = defaultdict(list)
    for route, items in groups:
        for v in route:
            out[v] += items
    return out


def _cover(ensemble: PathEnsemble, v: int, guarded: bool) -> int | float:
    """v's cover size, searched once per ensemble value; the memo keeps v's
    candidate count too, so a guarded read refuses before v's search, which
    branches on the unhit route with the fewest nodes, on an explicit stack."""
    candidates, best = ensemble._covers.get(v, (None, None))
    if best is None:
        routes = ensemble._routes.get(v, ())
        candidates = len(frozenset().union(*routes) - {v})
    if guarded and candidates > _MAX_CANDIDATES:
        raise CapacityError(
            f"node {v}: {candidates} other non-monitors on its paths exceed the "
            f"exact-cover guard of {_MAX_CANDIDATES}; no option raises this guard"
        )
    if best is None:  # a route of v alone is never hit, so no cover beats INFINITE_COVER
        best, stack = INFINITE_COVER if routes else 0, [(list(routes), 0)]
        while stack:
            unhit, used = stack.pop()
            if used + 1 < best:  # else the branch cannot beat the best cover
                for w in min(unhit, key=len) - {v}:
                    rest = [r for r in unhit if w not in r]
                    if not rest:  # w completes a cover, and no sibling beats it
                        best = used + 1
                        break
                    stack.append((rest, used + 1))
        ensemble._covers[v] = candidates, best
    return best


@dataclass(frozen=True)
class CoverProfile:
    """Per-node minimum cover sizes plus their minimum over the network."""

    cover_sizes: dict[int, int | float]
    min_cover: int | float


def cover_profile(ensemble: PathEnsemble) -> CoverProfile:
    """Minimum cover size for every non-monitor, and the network-wide minimum.

    Sizes are exact: 0 for a node on no path, :data:`INFINITE_COVER` when a
    route holds no other node.  Nodes are searched in id order, and a node with
    more than 20 other non-monitors on its paths is refused with a capacity
    error before its search; no option raises that guard.
    """
    if ensemble.topology.sigma == 0:
        raise InputError("the topology has no non-monitors to profile")
    sizes = {v: _cover(ensemble, v, guarded=True) for v in sorted(ensemble.topology.non_monitors)}
    return CoverProfile(sizes, min(sizes.values()))
