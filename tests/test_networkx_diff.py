"""Vertex connectivity against networkx, at sizes the brute-force corpus cannot reach.

Seeded ER, BA and grid topologies with 30 to 300 nodes; each is checked as a
plain graph, as its all-monitors merged graph and as every leave-one-out
graph.
"""

from __future__ import annotations

import pytest

from nodeloc.auxgraph import merge_monitors, merge_monitors_leaving_out
from nodeloc.generate import barabasi_albert, erdos_renyi, grid
from nodeloc.graph import Topology, vertex_connectivity

nx = pytest.importorskip("networkx")

INSTANCES = {
    "er30": lambda: erdos_renyi(30, 0.2, seed=11, monitors=3),
    "er80": lambda: erdos_renyi(80, 0.15, seed=12, monitors=4),
    "er150": lambda: erdos_renyi(150, 0.06, seed=13, monitors=3),
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


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_plain_merged_and_leave_one_out_graphs(name):
    topology = INSTANCES[name]().to_topology()
    graphs = {"plain": topology, "merged": merge_monitors(topology).graph}
    for m in sorted(topology.monitors):
        graphs[f"leave-out-{m}"] = merge_monitors_leaving_out(topology, m).graph
    for label, graph in graphs.items():
        assert vertex_connectivity(graph) == _networkx_connectivity(graph), label
