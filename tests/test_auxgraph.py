"""The reference auxiliary-graph construction against hand-applied definitions."""

from __future__ import annotations

import pytest

from nodeloc.errors import InputError
from nodeloc.graph import Topology, _leave_one_out_connectivity, monitor_connectivity

from bruteforce import (
    brute_vertex_connectivity,
    merge_monitors,
    merge_monitors_leaving_out,
    neighborhood_of_set,
)

PATH4 = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
PATH3 = Topology(3, [(0, 1), (1, 2)], [0, 2])
STAR = Topology(4, [(0, 1), (0, 2), (0, 3)], [0])
CYCLE4 = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2])


class TestMergeMonitors:
    def test_two_monitor_path_gives_triangle(self):
        aux = merge_monitors(PATH4)
        # non-monitors 1,2 renumber to 0,1; the virtual monitor is 2
        assert aux.original_ids == (1, 2)
        assert aux.virtual_monitor == 2
        assert aux.monitors == {2}
        assert aux.edges == {(0, 1), (0, 2), (1, 2)}
        assert brute_vertex_connectivity(aux) == 2 == monitor_connectivity(PATH4)
        # the boundary clique edge (0, 1) already existed, so it is inherited
        assert aux.virtual_edges == {(0, 2), (1, 2)}

    def test_star_gives_complete_graph(self):
        aux = merge_monitors(STAR)
        assert aux.node_count == 4
        assert len(aux.edges) == 6
        assert brute_vertex_connectivity(aux) == 3 == monitor_connectivity(STAR)
        # leaf-leaf edges are virtual clique links
        assert {(0, 1), (0, 2), (1, 2)} <= aux.virtual_edges

    def test_single_nonmonitor(self):
        t = Topology(2, [(0, 1)], [0])
        aux = merge_monitors(t)
        assert aux.edges == {(0, 1)}
        assert brute_vertex_connectivity(aux) == 1 == monitor_connectivity(t)

    def test_nonmonitor_out_of_monitor_reach_is_isolated_from_virtual(self):
        # m-v1, v1-v2: only v1 borders the monitor set
        t = Topology(3, [(0, 1), (1, 2)], [0])
        aux = merge_monitors(t)
        assert aux.edges == {(0, 1), (0, 2)}  # v1-v2 kept, virtual-v1 added
        assert aux.neighbors(aux.virtual_monitor) == {0}

    def test_kind_and_id_mapping(self):
        aux = merge_monitors(PATH4)
        assert aux.excluded_monitor is None
        assert aux.aux_id(1) == 0 and aux.aux_id(2) == 1
        with pytest.raises(InputError):
            aux.aux_id(0)

    def test_requires_a_nonmonitor(self):
        with pytest.raises(InputError):
            merge_monitors(Topology(2, [(0, 1)], [0, 1]))


class TestMergeLeavingOneOut:
    def test_short_path_keeps_other_side(self):
        aux = merge_monitors_leaving_out(PATH3, 0)
        # v keeps only its link to the virtual monitor (via m2)
        assert aux.edges == {(0, 1)}
        assert brute_vertex_connectivity(aux) == 1 == monitor_connectivity(PATH3, 0)

    def test_excluding_far_monitor_detaches_far_node(self):
        aux = merge_monitors_leaving_out(PATH4, 3)
        # boundary is {v1} only; graph is v2-v1-virtual
        assert aux.edges == {(0, 1), (0, 2)}
        assert brute_vertex_connectivity(aux) == 1 == monitor_connectivity(PATH4, 3)

    def test_node_covered_only_by_excluded_monitor(self):
        # v2 touches monitors only through m2 (id 3); leaving m2 out
        # strips v2 down to its non-monitor edges.
        t = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
        aux = merge_monitors_leaving_out(t, 3)
        assert aux.neighbors(aux.aux_id(2)) == {aux.aux_id(1)}

    def test_no_other_monitor_neighbor_isolates_virtual(self):
        t = Topology(2, [(0, 1)], [0])
        aux = merge_monitors_leaving_out(t, 0)
        assert aux.edges == frozenset()
        assert brute_vertex_connectivity(aux) == 0 == monitor_connectivity(t, 0)

    def test_requires_monitor_argument(self):
        with pytest.raises(InputError):
            merge_monitors_leaving_out(PATH4, 1)

    def test_kind_fields(self):
        aux = merge_monitors_leaving_out(PATH4, 0)
        assert aux.excluded_monitor == 0

    def test_auxiliary_graphs_are_topologies(self):
        merged, left_out = merge_monitors(PATH4), merge_monitors_leaving_out(PATH4, 0)
        assert isinstance(merged, Topology) and isinstance(left_out, Topology)
        assert not hasattr(merged, "graph")
        assert merged.sigma == 2 and merged.non_monitors == {0, 1}
        assert brute_vertex_connectivity(merged) == 2 == monitor_connectivity(PATH4)


class TestInvariants:
    def test_no_original_monitor_id_survives(self, corpus):
        for doc in corpus[:40]:
            topo = doc.to_topology()
            if topo.sigma == 0:
                continue
            aux = merge_monitors(topo)
            assert set(aux.original_ids) == set(topo.non_monitors)
            assert aux.node_count == topo.sigma + 1

    def test_virtual_degree_is_boundary_size(self, corpus):
        for doc in corpus[:40]:
            topo = doc.to_topology()
            aux = merge_monitors(topo)
            boundary = neighborhood_of_set(topo, topo.monitors) - topo.monitors
            assert len(aux.neighbors(aux.virtual_monitor)) == len(boundary)
            for m in sorted(topo.monitors):
                aux_m = merge_monitors_leaving_out(topo, m)
                boundary_m = (
                    neighborhood_of_set(topo, topo.monitors - {m}) - topo.monitors
                    if len(topo.monitors) > 1
                    else frozenset()
                )
                assert len(aux_m.neighbors(aux_m.virtual_monitor)) == len(boundary_m)

    def test_relabelled_topology_yields_isomorphic_merge(self):
        perm = {0: 2, 1: 0, 2: 3, 3: 1}  # relabel PATH4
        relabelled = Topology(
            4,
            [(perm[u], perm[v]) for u, v in PATH4.edges],
            [perm[m] for m in PATH4.monitors],
        )
        a, b = merge_monitors(PATH4), merge_monitors(relabelled)
        assert a.node_count == b.node_count
        assert sorted(sorted(map(len, (a.adjacency)))) == sorted(
            sorted(map(len, (b.adjacency)))
        )
        assert brute_vertex_connectivity(a) == brute_vertex_connectivity(b)
        assert monitor_connectivity(PATH4) == monitor_connectivity(relabelled)


def test_min_leave_one_out_connectivity_examples():
    # Each has d = sigma, so dm is read exactly.  STAR has a single monitor:
    # the sole leave-one-out graph has an isolated virtual.
    for topo, dm in ((PATH3, 1), (CYCLE4, 2), (STAR, 0)):
        d = monitor_connectivity(topo)
        assert d == topo.sigma
        assert _leave_one_out_connectivity(topo, d) == dm
        assert min(monitor_connectivity(topo, m) for m in topo.monitors) == dm
