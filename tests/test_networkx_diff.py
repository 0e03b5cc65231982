"""Graph primitives against networkx, at sizes the brute-force corpus cannot reach.

Seeded ER, BA and grid topologies with 30 to 300 nodes, one of them dense
(connectivity 16 to 18), so that a Dinic phase pushes many units.
``monitor_connectivity`` is checked on each, for the all-monitors merged
graph and every leave-one-out graph, against networkx on the auxiliary
graph as the reference construction builds it.  Disjoint paths are checked
from a few sources under seeded forbidden sets, and the monitor block sweep
under several seeded removed sets.  Hand-built topologies reach every rung
of ``monitor_connectivity``'s ladder, and a hypothesis property covers
small random graphs.  ``_leave_one_out_connectivity`` (dm given d) is
checked against the least networkx connectivity of the reference
leave-one-out graphs, under its cap, on the same instances, on dense ones,
and on hand-built networks where a component of G - M borders one monitor.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodeloc.generate import barabasi_albert, erdos_renyi, grid
from nodeloc.graph import (
    Topology,
    _leave_one_out_connectivity,
    biconnected_to_monitors,
    disjoint_paths,
    monitor_connectivity,
)

from bruteforce import merge_monitors, merge_monitors_leaving_out

INSTANCES = {
    "er30": lambda: erdos_renyi(30, 0.2, seed=11, monitors=3),
    "er80": lambda: erdos_renyi(80, 0.15, seed=12, monitors=4),
    "er150": lambda: erdos_renyi(150, 0.06, seed=13, monitors=3),
    "er60dense": lambda: erdos_renyi(60, 0.4, seed=14, monitors=3),
    "ba60": lambda: barabasi_albert(60, 3, seed=21, monitors=4),
    "ba300": lambda: barabasi_albert(300, 2, seed=23, monitors=2),
    "grid6x5": lambda: grid(6, 5, seed=31, monitors=3),
    "grid10x10": lambda: grid(10, 10, seed=32, monitors=5),
}


def _networkx_connectivity(topology: Topology) -> int:
    g = nx.Graph()
    g.add_nodes_from(topology.nodes)
    g.add_edges_from(topology.edges)
    return nx.node_connectivity(g)


def _check_connectivities(topology: Topology) -> None:
    """``monitor_connectivity`` against networkx on every reference auxiliary graph."""
    if topology.sigma == 0:
        return
    for left_out in [None, *sorted(topology.monitors)]:
        if left_out is None:
            graph = merge_monitors(topology)
        else:
            graph = merge_monitors_leaving_out(topology, left_out)
        assert monitor_connectivity(topology, left_out) == _networkx_connectivity(graph), left_out


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_plain_merged_and_leave_one_out_graphs(name):
    _check_connectivities(INSTANCES[name]().to_topology())


def _reference_dm(topology: Topology, d: int) -> int:
    """min(cap, networkx kappa of every reference H_m), with the cap of
    ``_leave_one_out_connectivity``: sigma at d = sigma, else max(d - 1, 0)."""
    cap = topology.sigma if d == topology.sigma else max(d - 1, 0)
    leave_one_out = (merge_monitors_leaving_out(topology, m) for m in topology.monitors)
    return min([cap, *map(_networkx_connectivity, leave_one_out)])


def _check_dm(topology: Topology) -> None:
    if topology.sigma == 0:
        return
    d = monitor_connectivity(topology)
    assert _leave_one_out_connectivity(topology, d) == _reference_dm(topology, d), d


DENSE = {
    "er30p50": lambda: erdos_renyi(30, 0.5, seed=41, monitors=3),
    "er40p30": lambda: erdos_renyi(40, 0.3, seed=42, monitors=5),
    "er60p20": lambda: erdos_renyi(60, 0.2, seed=43, monitors=4),
    "ba40m8": lambda: barabasi_albert(40, 8, seed=44, monitors=4),
}


@pytest.mark.parametrize("name", sorted(DENSE))
def test_dense_merged_and_leave_one_out_graphs(name):
    _check_connectivities(DENSE[name]().to_topology())


@pytest.mark.parametrize("name", sorted(INSTANCES) + sorted(DENSE))
def test_leave_one_out_minimum_against_networkx(name):
    _check_dm({**INSTANCES, **DENSE}[name]().to_topology())


# Monitors 0 and 1; the triangle 2-3-4 borders monitor 0 alone and the
# triangle 5-6-7 borders both.  Node 4's two neighbours make d = 2, so dm is
# capped at 1 and decided by which monitors each component of G - M borders.
TWO_TRIANGLES = [(0, 2), (0, 3), (2, 3), (3, 4), (2, 4), (5, 6), (6, 7), (5, 7), (0, 5), (1, 6)]

#: (topology, d, dm): each component of G - M borders one monitor or more.
SINGLE_MONITOR_COMPONENTS = {
    # leaving monitor 0 out strands the first triangle
    "component-on-one-monitor": (Topology(8, TWO_TRIANGLES, [0, 1]), 2, 0),
    # the edge 1-4 puts the first triangle on both monitors
    "components-on-two-monitors": (Topology(8, TWO_TRIANGLES + [(1, 4)], [0, 1]), 2, 1),
    # a third monitor next to the first triangle only: it borders 0 and 8
    "third-monitor": (Topology(9, TWO_TRIANGLES + [(8, 4)], [0, 1, 8]), 2, 1),
    # one monitor: every component borders just it
    "one-monitor-ring": (Topology(6, [(i, (i + 1) % 6) for i in range(6)], [0]), 2, 0),
    # d = sigma = 1 caps dm at 1 too: the lone non-monitor borders one monitor, or two
    "lone-non-monitor-one-monitor": (Topology(3, [(0, 2)], [0, 1]), 1, 0),
    "lone-non-monitor-two-monitors": (Topology(3, [(0, 2), (1, 2)], [0, 1]), 1, 1),
}


@pytest.mark.parametrize("name", sorted(SINGLE_MONITOR_COMPONENTS))
def test_leave_one_out_minimum_at_cap_one(name):
    topology, d, dm = SINGLE_MONITOR_COMPONENTS[name]
    assert monitor_connectivity(topology) == d
    assert _leave_one_out_connectivity(topology, d) == dm == _reference_dm(topology, d)


def test_a_target_one_certified_neighbour_short_runs_its_flow():
    # Monitor 2 borders 3, 4 and 5, and node 0 borders 1, 4 and 5: the first
    # cap is 3, node 0 has two certified neighbours, and its flow finds 2.
    topology = Topology(6, [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)], [2])
    assert monitor_connectivity(topology) == 2 == _networkx_connectivity(merge_monitors(topology))


def _k4(offset: int) -> list[tuple[int, int]]:
    return list(combinations(range(offset, offset + 4), 2))


def _prism(n: int) -> list[tuple[int, int]]:
    """C_n x K_2: two n-cycles joined by a perfect matching."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    return ring + [(n + u, n + v) for u, v in ring] + [(i, n + i) for i in range(n)]


# Each topology reaches one rung of monitor_connectivity's ladder on its
# merged graph H, with the expected kappa(H).
LADDER = {
    # the triangle 4-5-6 is a component no monitor reaches: the DFS answers 0
    "unreached-component": (Topology(7, [(0, 1), (1, 2), (2, 3), (0, 2), (4, 5), (5, 6), (4, 6)], [0, 3]), 0),
    # two 4-cycles sharing node 0, monitor 1: node 0 is a cut vertex of H
    "cycles-sharing-a-node": (Topology(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)], [1]), 1),
    # two K4s sharing node 3, monitor 0: node 3 cuts the second K4 off
    "k4s-sharing-a-node": (Topology(7, _k4(0) + _k4(3), [0]), 1),
    # an 8-cycle with one monitor: H is a cycle, its least degree 2 answers 2
    "ring": (Topology(8, [(i, (i + 1) % 8) for i in range(8)], [0]), 2),
    # every non-monitor borders a monitor: H is complete, kappa(H) = sigma
    "all-boundary": (Topology(5, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 1), (4, 2)], [0, 4]), 3),
    # two K4s joined by the disjoint edges 0-4 and 1-5, monitor 0: the
    # first flow, capped at the least degree 3, finds 2; the next is capped
    # at 2, and node 5, with two boundary neighbors, needs no flow
    "k4s-joined-by-two-edges": (Topology(8, _k4(0) + _k4(4) + [(0, 4), (1, 5)], [0]), 2),
    # monitor 0 borders all but node 2, whose four neighbors are all on the
    # boundary: kappa(H) = 4 = least degree, with no flow run
    "non-simplicial-monitor": (
        Topology(
            7,
            [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6),
             (2, 3), (2, 4), (2, 5), (2, 6), (3, 6), (4, 5)],
            [0],
        ),
        4,
    ),
    # 596 flows along augmenting paths about 150 nodes long, none recursive
    "prism-300": (Topology(600, _prism(300), [0]), 3),
}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_connectivity_ladder_rungs(name):
    topology, want = LADDER[name]
    assert monitor_connectivity(topology) == want == _networkx_connectivity(merge_monitors(topology))


@st.composite
def small_topologies(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    monitors = rng.sample(range(n), draw(st.integers(min_value=1, max_value=n)))
    removed = frozenset(v for v in range(n) if v not in monitors and rng.random() < 0.3)
    return Topology(n, edges, monitors), removed


@settings(max_examples=300)
@given(small_topologies())
def test_connectivity_and_block_sweep_on_small_random_graphs(case):
    topology, removed = case
    _check_connectivities(topology)
    assert biconnected_to_monitors(topology, removed) == _networkx_sink_block(topology, removed)


@settings(max_examples=300)
@given(small_topologies())
def test_leave_one_out_minimum_on_small_random_graphs(case):
    _check_dm(case[0])


def _networkx_paths_to_targets(topology: Topology, source, targets, forbidden) -> int:
    """Local node connectivity from source to a super-sink joined to the targets."""
    g = nx.Graph()
    g.add_nodes_from(v for v in topology.nodes if v not in forbidden)
    g.add_edges_from((u, v) for u, v in topology.edges if u not in forbidden and v not in forbidden)
    g.add_edges_from(("sink", t) for t in targets)
    return nx.algorithms.connectivity.local_node_connectivity(g, source, "sink")


def _assert_disjoint_paths(topology: Topology, source, targets, forbidden, paths):
    ends, inner_nodes = set(), set()
    for path in paths:
        assert path[0] == source
        assert all(b in topology.adjacency[a] for a, b in zip(path, path[1:])), path
        assert not set(path) & forbidden, path
        assert path[-1] in targets and path[-1] not in ends, path
        ends.add(path[-1])
        rest = set(path[1:])
        assert len(rest) == len(path) - 1 and source not in rest, path
        assert not rest & inner_nodes, path
        inner_nodes |= rest


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_disjoint_paths_under_seeded_forbidden_sets(name):
    topology = INSTANCES[name]().to_topology()
    rng = random.Random(name)
    pool = sorted(topology.non_monitors)
    for source in rng.sample(pool, 3):
        others = [v for v in pool if v != source]
        for targets in (topology.monitors, frozenset(rng.sample(others, len(others) // 4))):
            free = [v for v in others if v not in targets]
            forbidden = frozenset(rng.sample(free, len(free) // 5))
            want = _networkx_paths_to_targets(topology, source, targets, forbidden)
            paths = disjoint_paths(topology, source, targets, forbidden)
            assert len(paths) == want, (name, source)
            _assert_disjoint_paths(topology, source, targets, forbidden, paths)
            capped = disjoint_paths(topology, source, targets, forbidden, limit=2)
            assert len(capped) == min(2, want), (name, source)
            _assert_disjoint_paths(topology, source, targets, forbidden, capped)


def _networkx_sink_block(topology: Topology, removed: frozenset[int]) -> frozenset[int]:
    """Non-monitors in a biconnected component of G - removed + t holding t."""
    g = nx.Graph()
    g.add_nodes_from(v for v in topology.nodes if v not in removed)
    g.add_edges_from((u, v) for u, v in topology.edges if u not in removed and v not in removed)
    g.add_edges_from(("t", m) for m in topology.monitors)
    members: set = set()
    for component in nx.biconnected_components(g):
        if "t" in component:
            members |= component
    return frozenset(members - {"t"} - topology.monitors)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_monitor_block_sweep_under_seeded_removals(name):
    topology = INSTANCES[name]().to_topology()
    rng = random.Random(name)
    pool = sorted(topology.non_monitors)
    for size in (0, 1, 2, 3, len(pool) // 10, len(pool) // 3):
        removed = frozenset(rng.sample(pool, size))
        got = biconnected_to_monitors(topology, removed)
        assert got == _networkx_sink_block(topology, removed), (name, sorted(removed))


# A 5-node path 0-1-2-3-4 with a chord 1-3, so node 2 sits on a cycle.
CHORDED = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]

EDGE_CASES = {
    # one monitor: the sink is a leaf, so no block holds it and a non-monitor
    "one-monitor": (Topology(5, CHORDED + [(0, 4)], [0]), frozenset()),
    # adjacent monitors close a triangle with the sink
    "adjacent-monitors": (Topology(5, CHORDED + [(0, 4)], [0, 4]), frozenset()),
    # removing cut vertex 1 strands monitor 0, so 2 and 3 reach monitor 4 only
    "cut-vertex-removed": (Topology(5, CHORDED, [0, 4]), frozenset({1})),
    # removing 3 leaves triangle 0-1-2 with two monitors and cycle 4-5-6-7 with one
    "disconnected-remainder": (
        Topology(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4)], [0, 1, 5]),
        frozenset({3}),
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_monitor_block_sweep_edge_cases(name):
    topology, removed = EDGE_CASES[name]
    assert biconnected_to_monitors(topology, removed) == _networkx_sink_block(topology, removed)


def test_monitor_block_sweep_edge_case_values():
    assert biconnected_to_monitors(*EDGE_CASES["one-monitor"]) == frozenset()
    assert biconnected_to_monitors(*EDGE_CASES["adjacent-monitors"]) == {1, 2, 3}
    assert biconnected_to_monitors(*EDGE_CASES["cut-vertex-removed"]) == frozenset()
    assert biconnected_to_monitors(*EDGE_CASES["disconnected-remainder"]) == {2}


def test_monitor_block_sweep_on_a_long_path_does_not_recurse():
    # Deeper than Python's default recursion limit: a recursive DFS fails here.
    n = 3000
    topology = Topology(n, [(i, i + 1) for i in range(n - 1)], [0, n - 1])
    assert biconnected_to_monitors(topology) == frozenset(range(1, n - 1))
    assert _networkx_sink_block(topology, frozenset()) == frozenset(range(1, n - 1))
    assert biconnected_to_monitors(topology, {n // 2}) == frozenset()
