"""Graph primitives against hand-built cases and brute-force oracles.

``neighborhood_of_set`` and ``is_k_connected`` belong to the reference
auxiliary-graph construction in ``bruteforce``.  Their tests stay here; the
``is_k_connected`` ones also check ``brute_vertex_connectivity``, which it
reads, against component survival.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodeloc.errors import InputError
from nodeloc.graph import (
    Topology,
    connected_components,
    disjoint_paths,
)

from bruteforce import (
    brute_max_disjoint_paths,
    is_k_connected,
    neighborhood_of_set,
)

# m1-v1-v2-m2
PATH4 = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
# monitor center 0, leaves 1..3
STAR = Topology(4, [(0, 1), (0, 2), (0, 3)], [0])
# 5-cycle, one monitor so the topology is constructible
CYCLE5 = Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [0])
# 4-cycle m1-v1-m2-v2
CYCLE4 = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0, 2])
K4 = Topology(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [0])


@st.composite
def topologies(draw, max_nodes=8):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(all_pairs)) if all_pairs else st.just(set()))
    monitors = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
    )
    return Topology(n, frozenset(edges), frozenset(monitors))


class TestTopology:
    def test_basic_accessors(self):
        assert PATH4.sigma == 2
        assert PATH4.non_monitors == {1, 2}
        assert PATH4.neighbors(1) == {0, 2}
        assert len(PATH4.neighbors(0)) == 1
        assert 0 in PATH4.neighbors(1) and 2 not in PATH4.neighbors(0)
        assert [v in PATH4.monitors for v in PATH4.nodes] == [True, False, False, True]
        assert len(PATH4.adjacency[1] & PATH4.monitors) == 1

    def test_edges_normalized_and_deduplicated(self):
        t = Topology(3, [(1, 0), (0, 1), (2, 1), [1, 2], [0, 2]], [0])
        assert t.edges == {(0, 1), (1, 2), (0, 2)}
        # List pairs and reversed pairs come out as (u, v) tuples.
        assert all(type(e) is tuple and e[0] < e[1] for e in t.edges)

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Topology(3, [(1, 1)], [0])

    def test_rejects_bad_edge_endpoint(self):
        with pytest.raises(InputError):
            Topology(3, [(0, 3)], [0])

    def test_rejects_missing_monitor(self):
        with pytest.raises(InputError):
            Topology(3, [(0, 1)], [])

    def test_rejects_monitor_out_of_range(self):
        with pytest.raises(InputError):
            Topology(3, [(0, 1)], [5])

    def test_node_ids_are_never_coerced(self):
        # A float endpoint or monitor is not silently truncated to an int.
        with pytest.raises(InputError):
            Topology(3, [(0, 1.5), (1, 2)], [0])
        with pytest.raises(InputError):
            Topology(3, [(0, 1), (1, 2)], [0.9])
        with pytest.raises(InputError):
            Topology(3, [(0, "x")], [0])
        with pytest.raises(InputError):
            Topology(3, [(0, 1)], ["0"])
        with pytest.raises(InputError):
            Topology(3, [(True, 2)], [0])
        with pytest.raises(InputError):
            Topology(3, [(1, 2)], [False])
        with pytest.raises(InputError):
            PATH4.neighbors(True)

    def test_edge_entries_must_be_pairs(self):
        with pytest.raises(InputError):
            Topology(3, [(0, 1, 2)], [0])
        with pytest.raises(InputError):
            Topology(3, [(0,)], [0])
        with pytest.raises(InputError):
            Topology(3, [7], [0])

    def test_malformed_containers(self):
        with pytest.raises(InputError):
            Topology(3, [(0, 1)], [[0]])
        with pytest.raises(InputError):
            Topology(3, 5, [0])
        with pytest.raises(InputError):
            connected_components(PATH4, 5)
        with pytest.raises(InputError):
            connected_components(PATH4, [[1]])
        with pytest.raises(InputError):
            disjoint_paths(PATH4, 1, 0)

    @pytest.mark.parametrize(
        "edges, monitors, message",
        [
            ([(0, 1, 2)], [0], "edge (0, 1, 2) is not a pair of node ids"),
            ([(0,)], [0], "edge (0,) is not a pair of node ids"),
            ([7], [0], "edge 7 is not a pair of node ids"),
            (5, [0], "edges must be iterable, not int"),
            ([(True, 2)], [0], "edge (True, 2) references a node outside 0..2"),
            ([(0, 1.0)], [0], "edge (0, 1.0) references a node outside 0..2"),
            ([(0, 3)], [0], "edge (0, 3) references a node outside 0..2"),
            ([(-1, 0)], [0], "edge (-1, 0) references a node outside 0..2"),
            ([[1, 1]], [0], "self-loop at node 1 is not allowed"),
            ([(0, 1)], [5], "monitor id 5 outside 0..2"),
            ([(0, 1)], [True], "monitor id True outside 0..2"),
            ([(0, 1)], [[0]], "monitor id [0] outside 0..2"),
            ([(0, 1)], [], "a topology needs at least one monitor"),
            ([(0, 1)], 5, "monitors must be iterable, not int"),
            # Two faults in one edge, or in an edge and a monitor: the first
            # check in this order names it.
            ([(5, 5)], [0], "edge (5, 5) references a node outside 0..2"),
            ([(0, 1), (1, 1)], [9], "self-loop at node 1 is not allowed"),
        ],
    )
    def test_error_messages(self, edges, monitors, message):
        with pytest.raises(InputError) as excinfo:
            Topology(3, edges, monitors)
        assert type(excinfo.value) is InputError and str(excinfo.value) == message

    def test_node_count_is_a_plain_int_of_at_least_one(self):
        for count in ("3", 3.0, True, 0):
            with pytest.raises(InputError):
                Topology(count, [], [0])

    def test_unknown_node_queries(self):
        with pytest.raises(InputError):
            PATH4.neighbors(9)
        with pytest.raises(InputError):
            PATH4.neighbors(-1)
        with pytest.raises(InputError, match="unknown node id 4"):
            PATH4.neighbors(4)


class TestComponents:
    def test_cut_vertex_of_path(self):
        parts = connected_components(PATH4, {1})
        assert parts == (frozenset({0}), frozenset({2, 3}))

    def test_connected_graph_is_one_component(self):
        parts = connected_components(CYCLE5)
        assert parts == (frozenset(range(5)),)

    def test_cycle_minus_two_nonadjacent(self):
        parts = connected_components(CYCLE5, {0, 2})
        assert len(parts) == 2

    def test_partition_property(self):
        parts = connected_components(CYCLE4, {1})
        union = {1}
        for comp in parts:
            assert not union & comp
            union |= comp
        assert union == set(CYCLE4.nodes)

    def test_rejects_unknown_removed_id(self):
        with pytest.raises(InputError):
            connected_components(PATH4, {7})

    @given(topologies())
    def test_components_cover_and_are_edge_closed(self, topo):
        removed = frozenset(list(topo.non_monitors)[:1])
        parts = connected_components(topo, removed)
        union = set(removed)
        for comp in parts:
            assert not union & comp
            union |= comp
        assert union == set(topo.nodes)
        index = {v: i for i, comp in enumerate(parts) for v in comp}
        for u, v in topo.edges:
            if u in index and v in index:
                assert index[u] == index[v]


class TestNeighborhoods:
    def test_star_center(self):
        assert STAR.neighbors(0) == {1, 2, 3}

    def test_isolated_node(self):
        t = Topology(2, [], [0])
        assert t.neighbors(1) == frozenset()

    def test_set_neighborhood_of_monitor_pair(self):
        assert neighborhood_of_set(PATH4, {0, 3}) == {1, 2}

    def test_set_neighborhood_of_everything(self):
        assert neighborhood_of_set(PATH4, set(PATH4.nodes)) == frozenset()

    def test_set_neighborhood_of_star_center(self):
        assert neighborhood_of_set(STAR, {0}) == {1, 2, 3}


class TestDisjointPaths:
    def test_two_direct_edges(self):
        t = Topology(3, [(0, 1), (1, 2)], [0, 2])
        assert len(disjoint_paths(t, 1, {0, 2})) == 2

    def test_forbidden_blocks_one_side(self):
        assert len(disjoint_paths(PATH4, 2, {0, 3}, {1})) == 1

    def test_four_cycle_two_ways_round(self):
        assert len(disjoint_paths(CYCLE4, 1, {0, 2})) == 2
        assert brute_max_disjoint_paths(CYCLE4, 1, frozenset({0, 2}), frozenset()) == 2

    def test_empty_targets(self):
        assert len(disjoint_paths(PATH4, 1, set())) == 0

    def test_limit_stops_early(self):
        assert len(disjoint_paths(K4, 1, {0, 2, 3}, limit=2)) == 2

    def test_precondition_errors(self):
        with pytest.raises(InputError):
            disjoint_paths(PATH4, 1, {0}, {1})
        with pytest.raises(InputError):
            disjoint_paths(PATH4, 1, {0, 3}, {0})
        with pytest.raises(InputError):
            disjoint_paths(PATH4, 0, {0, 3})

    def test_concrete_paths_are_disjoint_and_reach_distinct_targets(self):
        paths = disjoint_paths(CYCLE4, 1, {0, 2})
        assert len(paths) == 2
        assert {p[0] for p in paths} == {1}
        assert {p[-1] for p in paths} == {0, 2}
        interiors = [set(p) - {1} for p in paths]
        assert not interiors[0] & interiors[1]

    def test_long_path_needs_no_recursion(self):
        # The augmenting path crosses 6,000 split nodes, far past Python's
        # default recursion limit.
        n = 3000
        t = Topology(n, [(i, i + 1) for i in range(n - 1)], [n - 1])
        assert len(disjoint_paths(t, 0, {n - 1})) == 1
        assert disjoint_paths(t, 0, {n - 1}) == [tuple(range(n))]

    @given(topologies(max_nodes=7), st.sets(st.integers(min_value=0, max_value=6)))
    def test_matches_bruteforce(self, topo, drawn):
        # Once with no forbidden node, once with the drawn non-monitors other than v.
        monitors = frozenset(topo.monitors)
        for v in sorted(topo.non_monitors):
            for forbidden in (frozenset(), frozenset(drawn) & topo.non_monitors - {v}):
                got = disjoint_paths(topo, v, monitors, forbidden)
                want = brute_max_disjoint_paths(topo, v, monitors, forbidden)
                assert len(got) == want, (v, forbidden)
                assert not any(set(p) & forbidden for p in got)


class TestIsKConnected:
    def test_five_cycle_thresholds(self):
        assert is_k_connected(CYCLE5, 2)
        assert not is_k_connected(CYCLE5, 3)

    def test_k_zero_always_true(self):
        assert is_k_connected(Topology(1, [], [0]), 0)
        assert is_k_connected(Topology(4, [], [0]), 0)

    def test_needs_more_nodes_than_k(self):
        assert not is_k_connected(K4, 4)

    def test_negative_k_rejected(self):
        with pytest.raises(InputError):
            is_k_connected(CYCLE5, -1)

    def test_non_topology_rejected(self):
        with pytest.raises(InputError):
            is_k_connected("x", 1)
        with pytest.raises(InputError):
            is_k_connected("x", 0)

    @given(topologies(max_nodes=7), st.integers(min_value=0, max_value=6))
    def test_equivalent_to_component_survival(self, topo, k):
        # k-connected iff deleting any k-1 or fewer nodes leaves one component.
        claim = is_k_connected(topo, k)
        from itertools import combinations

        survives = topo.node_count > k and all(
            len(connected_components(topo, frozenset(cut))) == 1
            for size in range(k)
            for cut in combinations(range(topo.node_count), size)
        )
        if k == 0:
            survives = topo.node_count > 0
        assert claim == survives


class TestCertifiedNeighbourSkip:
    """A target with at least ``best`` certified neighbours (the boundary and
    every target decided so far) runs no flow."""

    def test_flow_count_pin(self, monkeypatch):
        from nodeloc import graph
        from nodeloc.generate import erdos_renyi

        flows = []
        max_flow = graph._FlowNet.max_flow

        def counted(net, s, t, limit):
            flows.append(limit)
            return max_flow(net, s, t, limit)

        monkeypatch.setattr(graph._FlowNet, "max_flow", counted)
        topology = erdos_renyi(500, 0.03, seed=5, monitors=8).to_topology()
        d = graph.monitor_connectivity(topology)
        d_flows = len(flows)
        assert (d, graph._leave_one_out_connectivity(topology, d)) == (4, 3)
        # Skipping only targets with enough boundary neighbours ran 212 and
        # 1,367 flows here.
        assert (d_flows, len(flows) - d_flows) == (74, 454)


class TestBorderingMemos:
    """The non-monitors bordering at least one and at least two monitors are
    memos of the topology value under the rules of ``_d``: each is computed
    once, on first read, and belongs to one value."""

    def test_values(self):
        # Monitors 0 and 1; node 2 borders both, node 3 one, node 4 none.
        topology = Topology(5, [(0, 2), (1, 2), (0, 3), (3, 4)], [0, 1])
        assert topology._bordering_one == {2, 3}
        assert topology._bordering_two == {2}

    def test_each_value_computes_its_own_once(self, monkeypatch):
        from nodeloc import CAP, CSP, graph
        from nodeloc.conditions import verdict_table
        from nodeloc.generate import erdos_renyi
        from nodeloc.oracle import _reached

        computed = []
        bordering = graph._bordering

        def counted(topology, need):
            computed.append((topology, need))
            return bordering(topology, need)

        monkeypatch.setattr(graph, "_bordering", counted)
        doc = erdos_renyi(19, 0.5, seed=2, monitors=6)
        first, second = doc.to_topology(), doc.to_topology()
        assert first == second and first is not second
        for topology in (first, second, first, second):
            for failure in (frozenset(), frozenset(sorted(topology.non_monitors)[:3])):
                assert _reached(topology, CAP, failure) >= _reached(topology, CSP, failure)
            verdict_table(topology, CSP)
        assert [(topology is first, need) for topology, need in computed] == [
            (True, 1), (True, 2), (False, 1), (False, 2)
        ]


class TestFlowNetworkMemo:
    """Each topology value builds one node-split network, on its first flow,
    shared by d, every dm flow and every CSP witness; each flow owns its
    capacities, so the memo is read-only."""

    def test_one_network_per_value(self, monkeypatch):
        from nodeloc import CSP, graph
        from nodeloc.generate import barabasi_albert, erdos_renyi, grid
        from nodeloc.oracle import distinguishable, find_measurable_path

        builds, flows, runs = [], [], []
        network, capped = graph._node_split_network, graph._capped_connectivity
        max_flow = graph._FlowNet.max_flow

        def built(topology):
            builds.append(topology)
            return network(topology)

        def counted(net, s, t, limit):
            flows.append(s)
            return max_flow(net, s, t, limit)

        def capped_counted(topology, left_out, cap):
            before = len(flows)
            out = capped(topology, left_out, cap)
            runs.append((left_out, len(flows) - before))
            return out

        monkeypatch.setattr(graph, "_node_split_network", built)
        monkeypatch.setattr(graph._FlowNet, "max_flow", counted)
        monkeypatch.setattr(graph, "_capped_connectivity", capped_counted)
        topology = erdos_renyi(16, 0.4, seed=2, monitors=3).to_topology()
        assert (topology._d, topology._dm) == (5, 4)
        # H and all three H_m run flows.
        assert [left_out for left_out, count in runs if count] == [None, *sorted(topology.monitors)]
        leave_one_out = [graph.monitor_connectivity(topology, m) for m in sorted(topology.monitors)]
        connectivity_flows = len(flows)
        probed = sorted(topology.non_monitors)[:6]
        walks = [find_measurable_path(topology, CSP, v) for v in probed]
        assert all(walks) and distinguishable(topology, CSP, {probed[0]}, {probed[1]})[0]
        assert len(flows) > connectivity_flows + len(walks) and builds == [topology]

        # An equal value has its own memo, and its arcs' order gives the same walks.
        edges = [(v, u) for u, v in reversed(sorted(topology.edges))]
        flipped = Topology(topology.node_count, edges, topology.monitors)
        assert flipped == topology and list(flipped.edges) != list(topology.edges)
        assert [find_measurable_path(flipped, CSP, v) for v in probed] == walks
        assert [graph.monitor_connectivity(flipped, m) for m in sorted(topology.monitors)] == leave_one_out
        assert len(builds) == 2 and builds[1] is flipped
        to, adj, cap = topology._flow_network
        assert type(to) is type(adj) is type(cap) is tuple and all(type(arcs) is tuple for arcs in adj)
        assert topology._flow_network == network(topology)

        # d and dm from the low-point DFS (a tree), or the degree rule and the
        # cap-1 components pass (a grid), build no network.
        builds.clear()
        tree, lattice = barabasi_albert(20, 1, seed=1, monitors=2), grid(4, 4, seed=1, monitors=2)
        for doc, want in ((tree, (1, 0)), (lattice, (2, 1))):
            value = doc.to_topology()
            assert (value._d, value._dm) == want
        assert builds == []
