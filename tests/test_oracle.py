"""Brute-force engine: probes, simulation, identifiability and localization."""

from __future__ import annotations

import pytest

from nodeloc.ensemble import build_ensemble
from nodeloc.errors import CapacityError, FormatError, InputError
from nodeloc.graph import Topology, monitor_connectivity
from nodeloc.oracle import (
    CAP,
    CSP,
    DistinguishingPath,
    IndistinguishablePair,
    abstract_necessary,
    abstract_sufficient,
    distinguishable,
    find_measurable_path,
    k_identifiable,
    localize,
    max_identifiability,
    measurable_path_exists,
    simulate_measurements,
    ProbingModel,
    up_model,
)

from bruteforce import (
    brute_component_condition,
    brute_observations,
    restrict,
    simple_monitor_path_through,
)

PATH4 = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
PATH3 = Topology(3, [(0, 1), (1, 2)], [0, 2])
STAR = Topology(4, [(0, 1), (0, 2), (0, 3)], [0])
# single-monitor 4-cycle m-v1-v2-v3
RING = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0])
DIAMOND = Topology(4, [(0, 1), (1, 3), (1, 2), (2, 3)], [0, 3])


def diamond_up():
    return up_model(build_ensemble(DIAMOND, [(0, 1, 3), (0, 1, 2, 3)]))


class TestMeasurablePath:
    def test_cap_component_reachability(self):
        assert measurable_path_exists(PATH4, CAP, 2, {1})
        assert not measurable_path_exists(RING, CAP, 2, {1, 3})

    def test_cap_walk_witness_returns_to_monitor(self):
        walk = find_measurable_path(PATH4, CAP, 2, {1})
        assert walk == (3, 2, 3)

    def test_csp_needs_two_monitors(self):
        assert not measurable_path_exists(STAR, CSP, 1)

    def test_csp_two_disjoint_routes(self):
        assert measurable_path_exists(PATH3, CSP, 1)
        path = find_measurable_path(PATH3, CSP, 1)
        assert path[0] != path[-1]
        assert path[0] in PATH3.monitors and path[-1] in PATH3.monitors
        assert 1 in path

    def test_up_scans_given_paths(self):
        model = diamond_up()
        assert not measurable_path_exists(DIAMOND, model, 2, {1})
        assert find_measurable_path(DIAMOND, model, 2) == 1

    def test_up_without_an_avoiding_path_finds_none(self):
        # Both paths run through v1, and v2's only path too.
        assert find_measurable_path(DIAMOND, diamond_up(), 2, {1}) is None
        assert find_measurable_path(DIAMOND, diamond_up(), 1, {2}) == 0

    def test_csp_agrees_with_simple_path_enumeration(self, corpus):
        for doc in corpus[:60]:
            topo = doc.to_topology()
            for v in sorted(topo.non_monitors):
                got = measurable_path_exists(topo, CSP, v)
                want = simple_monitor_path_through(topo, v, frozenset())
                assert got == want, (doc, v)

    def test_preconditions(self):
        with pytest.raises(InputError):
            measurable_path_exists(PATH4, CAP, 0)  # monitor
        with pytest.raises(InputError):
            measurable_path_exists(PATH4, CAP, 1, {1})  # probing an avoided node
        with pytest.raises(InputError):
            measurable_path_exists(PATH4, CAP, 1, {0})  # monitors never fail


class TestProbingModel:
    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown probing model 'XP'"):
            ProbingModel("XP")

    def test_exactly_up_carries_an_ensemble(self):
        ensemble = diamond_up().ensemble
        with pytest.raises(InputError, match="exactly the UP model"):
            ProbingModel("UP")
        with pytest.raises(InputError, match="exactly the UP model"):
            ProbingModel("CAP", ensemble)
        assert ProbingModel("UP", ensemble) == up_model(ensemble)


class TestSimulate:
    def test_up_outcomes(self):
        model = diamond_up()
        assert simulate_measurements(DIAMOND, model, {2}) == {0: True, 1: False}
        assert simulate_measurements(DIAMOND, model, set()) == {0: True, 1: True}

    def test_cap_star_battery(self):
        assert simulate_measurements(STAR, CAP, {1}) == {1: False, 2: True, 3: True}

    def test_failed_node_is_never_probeable(self):
        out = simulate_measurements(PATH4, CAP, {1})
        assert out[1] is False and out[2] is True


class TestDistinguishable:
    def test_trapped_node_hides_the_difference(self):
        ok, witness = distinguishable(RING, CAP, {1, 3}, {1, 2, 3})
        assert not ok
        assert witness == IndistinguishablePair(frozenset({1, 3}), frozenset({1, 2, 3}))

    def test_witness_walk_probe(self):
        ok, witness = distinguishable(RING, CAP, {1, 3}, {1, 2})
        assert ok
        assert isinstance(witness, DistinguishingPath)
        assert witness.walk == (0, 3, 0)

    def test_single_failure_near_monitor(self):
        ok, witness = distinguishable(PATH4, CAP, set(), {1})
        assert ok and isinstance(witness, DistinguishingPath)

    def test_up_witness_is_path_id(self):
        ok, witness = distinguishable(DIAMOND, diamond_up(), set(), {2})
        assert ok and witness == DistinguishingPath(path_id=1)

    def test_equal_sets_rejected(self):
        with pytest.raises(InputError):
            distinguishable(PATH4, CAP, {1}, {1})

    def test_foreign_ensemble_rejected_without_a_probe(self):
        # no path of the DIAMOND ensemble survives either set on PATH4
        with pytest.raises(InputError, match="different topology"):
            distinguishable(PATH4, diamond_up(), {1}, {1, 2})

    def test_matches_signature_equality(self, corpus):
        # distinguishable iff the canonical batteries differ
        from itertools import combinations

        for doc in corpus[:25]:
            topo = doc.to_topology()
            if topo.sigma > 4:
                continue
            sets = [frozenset(c) for size in range(3) for c in combinations(sorted(topo.non_monitors), size)]
            for f1, f2 in combinations(sets, 2):
                ok, _ = distinguishable(topo, CAP, f1, f2)
                sig1 = simulate_measurements(topo, CAP, f1)
                sig2 = simulate_measurements(topo, CAP, f2)
                assert ok == (sig1 != sig2)


class TestKIdentifiable:
    def test_single_monitor_ring(self):
        ok2, _ = k_identifiable(RING, CAP, 2)
        ok3, pair = k_identifiable(RING, CAP, 3)
        assert ok2 and not ok3
        assert pair == IndistinguishablePair(frozenset({1, 3}), frozenset({1, 2, 3}))

    def test_short_path_csp(self):
        ok, _ = k_identifiable(PATH3, CSP, 1)
        assert ok

    def test_k_zero_trivial(self):
        ok, _ = k_identifiable(RING, CAP, 0)
        assert ok

    def test_guard(self):
        big = Topology(10, [(0, i) for i in range(1, 10)], [0])
        with pytest.raises(CapacityError):
            k_identifiable(big, CAP, 1)
        ok, _ = k_identifiable(big, CAP, 1, guard=9)
        assert ok

    def test_k_bounds_checked(self):
        with pytest.raises(InputError):
            k_identifiable(RING, CAP, 4)


class TestMaxIdentifiability:
    def test_examples(self):
        assert max_identifiability(RING, CAP) == 2
        assert max_identifiability(DIAMOND, diamond_up()) == 1
        assert max_identifiability(PATH3, CSP) == 1

    def test_downward_monotone(self, corpus):
        for doc in corpus[:20]:
            topo = doc.to_topology()
            omega = max_identifiability(topo, CAP)
            for k in range(topo.sigma + 1):
                ok, _ = k_identifiable(topo, CAP, k)
                assert ok == (k <= omega)


class TestAbstractConditions:
    def test_star_fully_sufficient(self):
        assert abstract_sufficient(STAR, CAP, STAR.sigma)

    def test_ring_trap(self):
        assert abstract_sufficient(RING, CAP, 1)
        assert not abstract_sufficient(RING, CAP, 2)

    def test_necessary_reduces_to_oracle_at_k1(self):
        ok, _ = k_identifiable(RING, CAP, 1)
        assert abstract_necessary(RING, CAP, 1) == ok

    def test_ring_necessary_fails_at_3(self):
        assert not abstract_necessary(RING, CAP, 3)

    def test_star_necessary_everywhere(self):
        for k in range(STAR.sigma + 1):
            assert abstract_necessary(STAR, CAP, k)

    def test_abstract_condition_soundness_on_corpus(self, corpus):
        for doc in corpus[:30]:
            topo = doc.to_topology()
            for model in (CAP, CSP):
                for k in range(topo.sigma + 1):
                    ok, _ = k_identifiable(topo, model, k)
                    if abstract_sufficient(topo, model, k):
                        assert ok, (doc, model.kind, k)
                    if ok:
                        assert abstract_necessary(topo, model, k), (doc, model.kind, k)


class TestRestrict:
    def test_renumbers_and_drops_paths(self):
        sub, model = restrict(DIAMOND, diamond_up(), {1})
        assert sub.node_count == 3
        assert sub.monitors == {0, 2}  # monitors 0 and 3 renumbered
        assert len(model.ensemble.paths) == 0  # both paths ran through node 1

    def test_keeps_surviving_paths(self):
        sub, model = restrict(DIAMOND, diamond_up(), {2})
        assert model.ensemble.paths == ((0, 1, 2),)


class TestLocalize:
    def test_unique_result_within_identifiable_range(self):
        out = simulate_measurements(STAR, CAP, {2})
        assert localize(STAR, CAP, out, 1) == [frozenset({2})]

    def test_up_running_example(self):
        model = diamond_up()
        assert localize(DIAMOND, model, {0: True, 1: False}, 1) == [frozenset({2})]

    def test_all_up_returns_empty_set(self):
        model = diamond_up()
        assert localize(DIAMOND, model, {0: True, 1: True}, 1) == [frozenset()]

    def test_ambiguity_beyond_identifiability(self):
        out = simulate_measurements(RING, CAP, {1, 2, 3})
        candidates = localize(RING, CAP, out, 3)
        assert frozenset({1, 3}) in candidates and frozenset({1, 2, 3}) in candidates
        assert candidates == sorted(candidates, key=lambda f: (len(f), sorted(f)))

    def test_schema_mismatch_rejected(self):
        with pytest.raises(FormatError):
            localize(STAR, CAP, {1: True}, 1)
        with pytest.raises(FormatError):
            localize(DIAMOND, diamond_up(), {0: True, 7: False}, 1)

    @pytest.mark.parametrize(
        "outcomes",
        [
            {True: True, 2: True},  # hash-equal to node 1
            {1.0: True, 2: True},
            {1: "yes", 2: True},
            {1: 1, 2: True},
            {1: 0, 2: True},
            {1: None, 2: True},
            [1, 2],  # a list, indexed by probe key
        ],
    )
    def test_outcome_map_is_never_coerced(self, outcomes):
        with pytest.raises(InputError):
            localize(PATH4, CAP, outcomes, 2)

    def test_up_path_ids_are_never_coerced(self):
        with pytest.raises(InputError):
            localize(DIAMOND, diamond_up(), {False: True, 1: False}, 1)


class TestComponentCondition:
    """The reference enumeration, and the package's reading of each variant:
    the merged one is the CAP sufficient condition, and deleting monitor m
    as well is ``monitor_connectivity(topology, m) > min(s, sigma - 1)``."""

    def test_path_all_small_sets(self):
        assert brute_component_condition(PATH4, 2)
        assert abstract_sufficient(PATH4, CAP, 2)

    def test_ring_trap_found(self):
        assert brute_component_condition(RING, 1)
        assert not brute_component_condition(RING, 2)
        assert abstract_sufficient(RING, CAP, 1)
        assert not abstract_sufficient(RING, CAP, 2)

    def test_with_specific_monitor(self):
        # deleting m2 and one non-monitor may strand the far node
        assert brute_component_condition(PATH4, 0, with_monitor=3)
        assert not brute_component_condition(PATH4, 1, with_monitor=3)
        assert monitor_connectivity(PATH4, 3) == 1

    def test_any_monitor_variant(self):
        assert brute_component_condition(PATH3, 1, with_monitor="any")
        assert not brute_component_condition(PATH4, 2, with_monitor="any")

    def test_rejects_nonmonitor_argument(self):
        with pytest.raises(InputError, match="node 1 is not a monitor"):
            monitor_connectivity(PATH4, 1)


class TestCapWalksAddNothing:
    def test_walk_reachability_equals_component_membership(self, corpus):
        # a monitor-anchored walk through v avoiding F exists iff v's
        # component in the surviving graph holds a monitor
        from itertools import combinations

        for doc in corpus[:30]:
            topo = doc.to_topology()
            pool = sorted(topo.non_monitors)
            for v in pool:
                others = [w for w in pool if w != v]
                for size in range(min(2, len(others)) + 1):
                    for avoid in combinations(others, size):
                        walk = find_measurable_path(topo, CAP, v, frozenset(avoid))
                        reachable = measurable_path_exists(topo, CAP, v, frozenset(avoid))
                        assert (walk is not None) == reachable
                        if walk is not None:
                            assert walk[0] in topo.monitors and walk[-1] in topo.monitors
                            assert v in walk
                            assert not set(walk) & set(avoid)


def test_localize_clamps_kmax_to_nonmonitor_count():
    out = simulate_measurements(STAR, CAP, {2})
    assert localize(STAR, CAP, out, 99) == [frozenset({2})]
    with pytest.raises(InputError):
        localize(STAR, CAP, out, -1)


def _small_instances(corpus, up_corpus):
    """(topology, model) pairs with at most six non-monitors, every regime."""
    for doc in corpus:
        topo = doc.to_topology()
        if topo.sigma <= 6:
            yield topo, CAP
            yield topo, CSP
    for doc in up_corpus:
        topo = doc.to_topology()
        if topo.sigma <= 6:
            yield topo, up_model(doc.to_ensemble(topo))


class TestAgainstBruteObservations:
    def test_simulation_matches_reference(self, corpus, up_corpus):
        from itertools import combinations

        checked = 0
        for topo, model in _small_instances(corpus, up_corpus):
            pool = sorted(topo.non_monitors)
            for size in range(len(pool) + 1):
                for failure in map(frozenset, combinations(pool, size)):
                    want = brute_observations(topo, model, failure)
                    assert simulate_measurements(topo, model, failure) == want, (
                        topo, model.kind, failure,
                    )
                    checked += 1
        assert checked > 1000

    def test_localize_matches_enumeration(self, corpus, up_corpus):
        # Every produced outcome map, plus each one with one probe flipped,
        # against the failure sets whose reference observations equal it.
        from itertools import combinations

        shared = unproduced = 0
        for topo, model in _small_instances(corpus, up_corpus):
            pool = sorted(topo.non_monitors)
            sets = [frozenset(c) for size in range(len(pool) + 1) for c in combinations(pool, size)]
            producers: dict[tuple, list] = {}
            for failure in sets:
                outcome = brute_observations(topo, model, failure)
                producers.setdefault(tuple(sorted(outcome.items())), []).append(failure)
            maps = set(producers)
            for key in list(producers):
                for i, (probe, up) in enumerate(key):
                    maps.add(key[:i] + ((probe, not up),) + key[i + 1 :])
            for key in maps:
                want = producers.get(key, [])
                assert localize(topo, model, dict(key), topo.sigma) == want, (
                    topo, model.kind, key,
                )
                shared += len(want) > 1
                unproduced += not want
        assert shared > 0 and unproduced > 0

    def test_unproduced_map_has_no_candidates(self):
        # v2 reads up only while v1 or v3 survives, yet both read down
        assert localize(RING, CAP, {1: False, 2: True, 3: False}, 3) == []

    def test_down_path_inside_the_up_paths_has_no_candidates(self):
        # Path 0 reads down, yet its one non-monitor v1 lies on the up path 1.
        assert localize(DIAMOND, diamond_up(), {0: False, 1: True}, 2) == []

    def test_guard_is_checked_before_the_outcome_map(self):
        # The same kind of map on eight non-monitors: the guard refuses first.
        line = Topology(10, [(0, 2)] + [(v, v + 1) for v in range(2, 9)] + [(9, 1)], [0, 1])
        model = up_model(build_ensemble(line, [(0, 2, 0), (0, *range(2, 10), 1)]))
        with pytest.raises(CapacityError):
            localize(line, model, {0: False, 1: True}, 2)


class TestCspWalks:
    def test_exists_iff_a_simple_monitor_path_is_found(self, corpus):
        # The block sweep answers existence; the flow still builds the walk.
        from itertools import combinations

        walks = 0
        for doc in corpus:
            topo = doc.to_topology()
            if topo.sigma > 6:
                continue
            pool = sorted(topo.non_monitors)
            for v in pool:
                others = [w for w in pool if w != v]
                for size in range(len(others) + 1):
                    for avoid in map(frozenset, combinations(others, size)):
                        walk = find_measurable_path(topo, CSP, v, avoid)
                        exists = measurable_path_exists(topo, CSP, v, avoid)
                        assert exists == (walk is not None), (topo, v, avoid)
                        if walk is None:
                            continue
                        walks += 1
                        assert len(set(walk)) == len(walk)
                        assert walk[0] != walk[-1]
                        assert walk[0] in topo.monitors and walk[-1] in topo.monitors
                        assert v in walk and not set(walk) & avoid
                        assert all(b in topo.adjacency[a] for a, b in zip(walk, walk[1:]))
        assert walks > 1000


def _literal_sufficient(topo, model, k, measurable) -> bool:
    """Every node measurable under every set of at most k other nodes, node by node."""
    from itertools import combinations

    pool = sorted(topo.non_monitors)
    for v in pool:
        others = [w for w in pool if w != v]
        for size in range(k + 1):
            for avoid in map(frozenset, combinations(others, size)):
                if (v, avoid) not in measurable:
                    if model.kind == "UP":
                        measurable[v, avoid] = any(
                            v in p and not set(p) & avoid
                            for p in model.ensemble.paths
                        )
                    else:
                        measurable[v, avoid] = brute_observations(topo, model, avoid)[v]
                if not measurable[v, avoid]:
                    return False
    return True


class TestAbstractSufficientPerFailureSet:
    def test_matches_per_node_definition(self, corpus, up_corpus):
        instances = [(doc.to_topology(), model) for doc in corpus[:30] for model in (CAP, CSP)]
        for doc in up_corpus[:30]:
            topo = doc.to_topology()
            instances.append((topo, up_model(doc.to_ensemble(topo))))
        outcomes = set()
        for topo, model in instances:
            measurable: dict = {}
            for k in range(topo.sigma + 1):
                want = _literal_sufficient(topo, model, k, measurable)
                assert abstract_sufficient(topo, model, k) == want, (topo, model.kind, k)
                outcomes.add((model.kind, want))
        assert outcomes == {(kind, ok) for kind in ("CAP", "CSP", "UP") for ok in (True, False)}
