"""Cross-module invariants beyond the per-module unit tests."""

from __future__ import annotations

import random

from nodeloc.conditions import cap_verdicts, csp_verdicts, up_verdicts
from nodeloc.ensemble import build_ensemble, cover_profile
from nodeloc.graph import Topology
from nodeloc.oracle import (
    CAP,
    CSP,
    max_identifiability,
    up_model,
)

from bruteforce import (
    brute_component_condition,
    is_k_connected,
    merge_monitors,
    merge_monitors_leaving_out,
    reference_abstract_necessary,
)
from test_oracle_levels import _sufficient


def test_any_monitor_condition_decomposes_into_merge_variants(corpus):
    # deleting at most s nodes with at most one monitor is the conjunction of
    # the no-monitor case at s and every single-monitor case at s-1
    for doc in corpus[:60]:
        topo = doc.to_topology()
        merged = merge_monitors(topo)
        auxes = [merge_monitors_leaving_out(topo, m) for m in sorted(topo.monitors)]
        for s in range(topo.sigma):
            want = is_k_connected(merged, s + 1) and all(
                is_k_connected(aux, s) for aux in auxes
            )
            assert brute_component_condition(topo, s, with_monitor="any") == want


def test_abstract_conditions_hold_under_up(up_corpus):
    for doc in up_corpus[:40]:
        topo = doc.to_topology()
        model = up_model(doc.to_ensemble(topo))
        omega = max_identifiability(topo, model)
        for k in range(topo.sigma + 1):
            if _sufficient(topo, model, k):
                assert k <= omega
            if k <= omega:
                assert reference_abstract_necessary(topo, model, k, 7)


def test_raw_component_conditions_bound_the_cap_oracle(corpus):
    # the enumeration form of the arbitrary-path conditions, taken directly:
    # condition at s=k certifies k, failure at s=k-1 refutes k
    for doc in corpus[:60]:
        topo = doc.to_topology()
        omega = max_identifiability(topo, CAP)
        for k in range(topo.sigma + 1):
            if brute_component_condition(topo, k):
                assert k <= omega or k > topo.sigma
            if k <= omega and k >= 1:
                assert brute_component_condition(topo, k - 1)


def _relabel(topo: Topology, seed: int) -> tuple[Topology, dict[int, int]]:
    perm = list(topo.nodes)
    random.Random(seed).shuffle(perm)
    mapping = {old: new for old, new in zip(topo.nodes, perm)}
    return (
        Topology(
            topo.node_count,
            [(mapping[u], mapping[v]) for u, v in topo.edges],
            [mapping[m] for m in topo.monitors],
        ),
        mapping,
    )


def test_csp_probe_witnesses_are_valid_simple_paths(corpus):
    from itertools import combinations

    from nodeloc.oracle import _reached, find_measurable_path

    for doc in corpus[:40]:
        topo = doc.to_topology()
        pool = sorted(topo.non_monitors)
        for v in pool:
            others = [w for w in pool if w != v]
            for size in range(min(2, len(others)) + 1):
                for avoid in combinations(others, size):
                    avoid_set = frozenset(avoid)
                    path = find_measurable_path(topo, CSP, v, avoid_set)
                    assert (path is not None) == (v in _reached(topo, CSP, avoid_set))
                    if path is None:
                        continue
                    assert len(set(path)) == len(path)  # simple
                    assert path[0] in topo.monitors and path[-1] in topo.monitors
                    assert path[0] != path[-1]
                    assert v in path and not set(path) & avoid_set
                    for a, b in zip(path, path[1:]):
                        assert b in topo.neighbors(a)


def test_verdicts_and_oracle_are_isomorphism_invariant(corpus):
    for i, doc in enumerate(corpus[:30]):
        topo = doc.to_topology()
        other, _ = _relabel(topo, seed=70 + i)
        assert [v.value for v in cap_verdicts(topo)] == [v.value for v in cap_verdicts(other)]
        assert [v.value for v in csp_verdicts(topo)] == [v.value for v in csp_verdicts(other)]
        assert max_identifiability(topo, CAP) == max_identifiability(other, CAP)
        assert max_identifiability(topo, CSP) == max_identifiability(other, CSP)


def test_up_verdicts_follow_relabelled_ensembles(up_corpus):
    for i, doc in enumerate(up_corpus[:20]):
        topo = doc.to_topology()
        other, mapping = _relabel(topo, seed=170 + i)
        ens = doc.to_ensemble(topo)
        relabelled = build_ensemble(
            other, [tuple(mapping[v] for v in p) for p in ens.paths]
        )
        a = [v.value for v in up_verdicts(cover_profile(ens))]
        b = [v.value for v in up_verdicts(cover_profile(relabelled))]
        assert a == b
        assert max_identifiability(topo, up_model(ens)) == max_identifiability(
            other, up_model(relabelled)
        )
