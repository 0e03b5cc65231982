"""Every small topology, not a sample: the oracle against brute force.

The topologies are every connected graph of ``networkx.graph_atlas_g()``
(the atlas of all graphs with up to seven nodes, a data file inside
networkx) with at least 2 nodes, under every monitor set of 1 to n - 1
nodes.  Each check tolerates no mismatch:

* **Maximum, CAP and CSP** (up to 6 nodes, 7,672 topologies):
  ``max_identifiability`` must equal the size of the first repeated
  ``brute_observations`` outcome over every failure set, minus one, and the
  ``verdict_table`` bounds must contain that maximum.
* **Maximum, UP** (up to 6 nodes with at least 2 monitors, 6,863
  topologies, with ``generate_paths(doc, 2)``): the same.
* **localize, CAP and CSP** (up to 5 nodes, 728 topologies): for each truth
  of at most 2 nodes, the sets ``localize`` returns from the truth's
  simulated map, with ``k_max`` 2, must be the sets of at most 2 nodes
  whose brute-force observations equal the truth's, by size, then by
  sorted members.
* **Witnesses, CAP and CSP** (up to 5 nodes): for every pair of failure
  sets of at most 2 nodes, ``distinguishable`` must answer whether their
  brute-force observations differ.  A positive witness must be a real
  probe: a walk along edges from a monitor to a monitor that avoids one
  set and meets a node of the other.  A CSP witness repeats no node and
  ends at two distinct monitors.

Run as a script, ``PYTHONPATH=src python tests/test_atlas.py N`` makes
every check on the topologies with up to N nodes (N at most 7), prints
each check's counts and first mismatches, and exits 1 if any check has a
mismatch.  Pytest does not run that block.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

from nodeloc import (
    CAP,
    CSP,
    IndistinguishablePair,
    TopologyDocument,
    distinguishable,
    generate_paths,
    localize,
    max_identifiability,
    simulate_measurements,
    up_model,
    verdict_table,
)
from nodeloc.graph import Topology

from bruteforce import all_failure_sets, brute_observations, reference_identifiability


def _small_documents(max_nodes: int, min_monitors: int = 1):
    """Every connected atlas graph with 2 to ``max_nodes`` nodes, under every
    monitor set of ``min_monitors`` to n - 1 nodes, as a document."""
    for graph in nx.graph_atlas_g():
        n = graph.number_of_nodes()
        if 2 <= n <= max_nodes and nx.is_connected(graph):
            names, edges = tuple(f"v{i}" for i in range(n)), frozenset(graph.edges)
            for size in range(min_monitors, n):
                for monitors in combinations(range(n), size):
                    yield TopologyDocument(names, frozenset(monitors), edges)


def _maximum_mismatches(topology: Topology, model) -> list:
    pair, _ = reference_identifiability(topology, model, lambda failure: brute_observations(topology, model, failure))
    want = topology.sigma if pair is None else len(pair[1]) - 1
    got = max_identifiability(topology, model)
    bounds = verdict_table(topology, model)[1]
    if got != want or not bounds.lower <= want <= bounds.upper:
        return [(model.kind, sorted(topology.edges), sorted(topology.monitors), want, got, bounds)]
    return []


def check_maximum(max_nodes: int) -> tuple[int, int, list]:
    """CAP and CSP maxima: (topologies, answers checked, mismatches)."""
    topologies, mismatches = 0, []
    for doc in _small_documents(max_nodes):
        topologies += 1
        topology = doc.to_topology()
        for model in (CAP, CSP):
            mismatches += _maximum_mismatches(topology, model)
    return topologies, 2 * topologies, mismatches


def check_up_maximum(max_nodes: int) -> tuple[int, int, list]:
    """UP maxima over the generator's paths: (topologies, answers checked, mismatches)."""
    topologies, mismatches = 0, []
    for doc in _small_documents(max_nodes, min_monitors=2):
        topologies += 1
        doc = generate_paths(doc, 2)
        topology = doc.to_topology()
        mismatches += _maximum_mismatches(topology, up_model(doc.to_ensemble(topology)))
    return topologies, topologies, mismatches


def _is_probe(topology: Topology, model, walk: tuple[int, ...], first, second) -> bool:
    """Whether ``walk`` is a probe of ``model`` that reads differently under the two sets."""
    nodes = set(walk)
    return (
        walk[0] in topology.monitors
        and walk[-1] in topology.monitors
        and all(b in topology.adjacency[a] for a, b in zip(walk, walk[1:]))
        and any(nodes.isdisjoint(other) and nodes & mine for mine, other in ((first, second), (second, first)))
        and (model.kind == "CAP" or (len(nodes) == len(walk) and walk[0] != walk[-1]))
    )


def check_localize(max_nodes: int) -> tuple[int, int, list]:
    """``localize`` on every truth of at most 2 nodes: (topologies, calls, mismatches)."""
    topologies, calls, mismatches = 0, 0, []
    for doc in _small_documents(max_nodes):
        topologies += 1
        topology = doc.to_topology()
        sets = list(all_failure_sets(sorted(topology.non_monitors), 2))
        for model in (CAP, CSP):
            observed = {failure: brute_observations(topology, model, failure) for failure in sets}
            for truth in sets:
                calls += 1
                want = [failure for failure in sets if observed[failure] == observed[truth]]
                got = localize(topology, model, simulate_measurements(topology, model, truth), 2)
                if got != want:
                    mismatches.append((model.kind, sorted(topology.edges), sorted(topology.monitors), truth, want, got))
    return topologies, calls, mismatches


def check_witnesses(max_nodes: int) -> tuple[int, int, list]:
    """``distinguishable`` on every pair of sets of at most 2 nodes: (topologies, pairs, mismatches)."""
    topologies, pairs, mismatches = 0, 0, []
    for doc in _small_documents(max_nodes):
        topologies += 1
        topology = doc.to_topology()
        sets = list(all_failure_sets(sorted(topology.non_monitors), 2))
        for model in (CAP, CSP):
            observed = {failure: brute_observations(topology, model, failure) for failure in sets}
            for first, second in combinations(sets, 2):
                pairs += 1
                verdict, witness = distinguishable(topology, model, first, second)
                if verdict != (observed[first] != observed[second]) or not (
                    _is_probe(topology, model, witness.walk, first, second)
                    if verdict
                    else witness == IndistinguishablePair(first, second)
                ):
                    mismatches.append((model.kind, sorted(topology.edges), sorted(topology.monitors), first, second, witness))
    return topologies, pairs, mismatches


def test_every_connected_topology_up_to_six_nodes():
    topologies, checked, mismatches = check_maximum(6)
    assert (topologies, checked) == (7672, 2 * 7672)
    assert not mismatches, mismatches[:5]


def test_up_maximum_on_every_connected_topology_up_to_six_nodes():
    topologies, _, mismatches = check_up_maximum(6)
    assert topologies == 6863
    assert not mismatches, mismatches[:5]


def test_localize_on_every_connected_topology_up_to_five_nodes():
    topologies, calls, mismatches = check_localize(5)
    assert (topologies, calls) == (728, 8150)
    assert not mismatches, mismatches[:5]


def test_witnesses_on_every_connected_topology_up_to_five_nodes():
    topologies, pairs, mismatches = check_witnesses(5)
    assert (topologies, pairs) == (728, 24676)
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    import sys
    import time

    max_nodes = int(sys.argv[1])
    if not 2 <= max_nodes <= 7:
        sys.exit("usage: test_atlas.py N, with N from 2 to 7 (the atlas holds graphs of up to 7 nodes)")
    failed = False
    for check in (check_maximum, check_up_maximum, check_localize, check_witnesses):
        start = time.perf_counter()
        topologies, checked, mismatches = check(max_nodes)
        elapsed = time.perf_counter() - start
        print(f"{check.__name__}: up to {max_nodes} nodes, {topologies} topologies, "
              f"{checked} checked, {len(mismatches)} mismatches, {elapsed:.1f} s", flush=True)
        for mismatch in mismatches[:5]:
            print("  ", mismatch)
        failed = failed or bool(mismatches)
    sys.exit(1 if failed else 0)
