"""Fixed measurement-path ensembles and minimum-cover analysis.

Under uncontrollable probing the path set is given, not chosen.  A path is a
monitor-to-monitor walk; its Boolean outcome is "down" exactly when it
traverses a failed node.  The quantity driving identifiability is, per
non-monitor v, the smallest number of other non-monitors whose path sets
jointly cover every path through v: once that many nodes fail, v's state can
become invisible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, FormatError, InputError
from .graph import Topology, _entries, _plain_int

#: Cover size meaning "no set of other nodes can hide this one".
INFINITE_COVER = math.inf

_MAX_CANDIDATES = 20  # exact-cover guard: candidate covering sets per node


@dataclass(frozen=True)
class PathEnsemble:
    """Validated path set with a per-node incidence index.

    ``paths[i]`` is path i's node tuple, the form
    ``TopologyDocument.paths`` uses; a path's id is its index.
    ``incidence[v]`` is the set of path ids traversing node v; it is empty
    for monitors and for non-monitors no path visits.  ``unobserved`` lists
    the latter; such nodes can never be localized.
    """

    topology: Topology
    paths: tuple[tuple[int, ...], ...]
    incidence: tuple[frozenset[int], ...]
    unobserved: frozenset[int]

    def paths_through(self, v: int) -> frozenset[int]:
        self.topology._check_node(v)
        if v in self.topology.monitors:
            raise InputError(f"node {v} is a monitor; only non-monitors are probed")
        return self.incidence[v]


def build_ensemble(topology: Topology, paths: Iterable[Sequence[int]]) -> PathEnsemble:
    """Validate raw node sequences into a :class:`PathEnsemble`.

    Every sequence must start and end at a monitor and follow edges of the
    topology; entries are node ids, never coerced.  Interior repetition is
    allowed (walks are accepted as given); incidence is computed on the set
    of visited nodes.
    """
    adjacency = topology.adjacency
    validated: list[tuple[int, ...]] = []
    for idx, seq in enumerate(_entries(paths, "paths")):
        nodes = _entries(seq, f"path {idx}")
        if len(nodes) < 2:
            raise FormatError(f"path {idx} has fewer than two nodes")
        for v in nodes:
            topology._check_node(v)
        for end in (nodes[0], nodes[-1]):
            if end not in topology.monitors:
                raise FormatError(f"path {idx} endpoint {end} is not a monitor")
        for a, b in zip(nodes, nodes[1:]):
            if b not in adjacency[a]:
                raise FormatError(f"path {idx} steps over a missing edge ({a}, {b})")
        validated.append(nodes)

    incidence = [set() for _ in range(topology.node_count)]
    for pid, nodes in enumerate(validated):
        for v in frozenset(nodes):
            if v not in topology.monitors:
                incidence[v].add(pid)
    frozen = tuple(frozenset(s) for s in incidence)
    unobserved = frozenset(v for v in topology.non_monitors if not frozen[v])
    return PathEnsemble(topology, tuple(validated), frozen, unobserved)


def _exact_min_cover(universe: frozenset[int], candidates: list[frozenset[int]]) -> int | float:
    """Smallest number of candidate sets covering ``universe`` (inf if none).

    Branches on the uncovered element with the fewest covering sets, listed
    once per call, largest first; |universe| sets always suffice.
    """
    ordered = sorted(candidates, key=len, reverse=True)
    covers = {e: [s for s in ordered if e in s] for e in universe}
    if not all(covers.values()):
        return INFINITE_COVER
    best = len(universe)

    def descend(uncovered: frozenset[int], used: int) -> None:
        nonlocal best
        if not uncovered:
            best = used  # a descent happens only below the bound
            return
        if used + 1 >= best:
            return
        for s in covers[min(uncovered, key=lambda e: len(covers[e]))]:
            descend(uncovered - s, used + 1)

    descend(universe, 0)
    return best


def min_cover_size(ensemble: PathEnsemble, v: int, max_candidates: int = _MAX_CANDIDATES) -> int | float:
    """Minimum number of other non-monitors whose paths cover all of v's paths.

    Returns :data:`INFINITE_COVER` when some path through v traverses no
    other non-monitor, and 0 when v lies on no path at all (the empty path
    set is covered by nobody failing, which is why such a node is already
    unidentifiable).  The computation is exact; if more than
    ``max_candidates`` other nodes share paths with v the call refuses with a
    capacity error rather than approximating.
    """
    targets = ensemble.paths_through(v)
    _plain_int(max_candidates, "max_candidates")
    others = sorted(ensemble.topology.non_monitors - {v})
    candidates = [c for w in others if (c := ensemble.incidence[w] & targets)]
    if len(candidates) > max_candidates:
        raise CapacityError(
            f"{len(candidates)} candidate covering sets exceed the exact-cover "
            f"guard of {max_candidates}; no option raises this guard"
        )
    return _exact_min_cover(targets, candidates)


@dataclass(frozen=True)
class CoverProfile:
    """Per-node minimum cover sizes plus their minimum over the network."""

    cover_sizes: dict[int, int | float]
    min_cover: int | float


def cover_profile(ensemble: PathEnsemble, max_candidates: int = _MAX_CANDIDATES) -> CoverProfile:
    """Minimum cover size for every non-monitor, and the network-wide minimum."""
    if ensemble.topology.sigma == 0:
        raise InputError("the topology has no non-monitors to profile")
    sizes = {
        v: min_cover_size(ensemble, v, max_candidates=max_candidates)
        for v in sorted(ensemble.topology.non_monitors)
    }
    return CoverProfile(sizes, min(sizes.values()))
