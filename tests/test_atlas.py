"""Every small topology, not a sample: the oracle against the all-sets reference.

Every connected graph of ``networkx.graph_atlas_g()`` (the atlas of all
graphs with up to seven nodes, a data file inside networkx) with 2 to 6
nodes, under every monitor set of 1 to n - 1 nodes: 7,672 topologies.
Under CAP and CSP, ``max_identifiability`` must equal the size of the first
repeated ``brute_observations`` outcome over every failure set, minus one,
and the ``verdict_table`` bounds must contain that maximum.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

from nodeloc import CAP, CSP, max_identifiability, verdict_table
from nodeloc.graph import Topology

from bruteforce import brute_observations, reference_identifiability


def _small_topologies():
    for graph in nx.graph_atlas_g():
        n = graph.number_of_nodes()
        if 2 <= n <= 6 and nx.is_connected(graph):
            for size in range(1, n):
                for monitors in combinations(range(n), size):
                    yield Topology(n, graph.edges, monitors)


def test_every_connected_topology_up_to_six_nodes():
    checked, mismatches = 0, []
    for topo in _small_topologies():
        checked += 1
        for model in (CAP, CSP):
            pair, _ = reference_identifiability(topo, model, lambda failure: brute_observations(topo, model, failure))
            want = topo.sigma if pair is None else len(pair[1]) - 1
            got = max_identifiability(topo, model)
            bounds = verdict_table(topo, model)[1]
            if got != want or not bounds.lower <= want <= bounds.upper:
                mismatches.append((model.kind, sorted(topo.edges), sorted(topo.monitors), want, got, bounds))
    assert checked == 7672
    assert not mismatches, mismatches[:5]
