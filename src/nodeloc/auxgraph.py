"""Virtual-monitor auxiliary graphs.

Both constructions delete every monitor from the topology, renumber the
surviving non-monitors densely (ascending original id), and append one
virtual monitor as the last node.  The virtual monitor is wired to the
non-monitors that were adjacent to a real monitor, and those boundary nodes
are joined into a clique by virtual links, so that their mutual reachability
survives deletion of the virtual monitor; that also makes the virtual
monitor simplicial, the anchor :func:`~nodeloc.graph.vertex_connectivity`
takes.  Each result is an :class:`AuxiliaryGraph`, a
:class:`~nodeloc.graph.Topology` whose only monitor is the virtual one.  This
module only builds the graphs; :mod:`nodeloc.conditions` takes their vertex
connectivity and reads the per-k identifiability conditions off it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import combinations

from .errors import InputError
from .graph import Edge, Topology, neighborhood_of_set


@dataclass(frozen=True)
class AuxiliaryGraph(Topology):
    """A topology over the non-monitors plus one virtual monitor.

    It is a :class:`Topology` whose only monitor is ``virtual_monitor``, with
    the construction's bookkeeping alongside.

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

