"""Path ensembles and exact minimum-cover computation."""

from __future__ import annotations

import math
import random

import pytest

import nodeloc.oracle as oracle
from nodeloc.conditions import verdict_table
from nodeloc.ensemble import (
    INFINITE_COVER,
    build_ensemble,
    cover_profile,
    min_cover_size,
)
from nodeloc.document import TopologyDocument
from nodeloc.errors import CapacityError, FormatError, InputError
from nodeloc.generate import generate_paths
from nodeloc.graph import Topology
from nodeloc.oracle import CAP, max_identifiability, up_model
from nodeloc.report import analyze

from bruteforce import brute_min_cover
from conftest import count_cover_searches

# m1-v1-m2 plus v1-v2-m2: the running two-path example
DIAMOND = Topology(4, [(0, 1), (1, 3), (1, 2), (2, 3)], [0, 3])
TWO_PATHS = [(0, 1, 3), (0, 1, 2, 3)]


def diamond_ensemble():
    return build_ensemble(DIAMOND, TWO_PATHS)


def ingest_like_star(seed, core, hosts=30):
    """Monitor hosts hung off a small core of non-monitors, with every
    shortest host-to-host path: hundreds of paths on a few distinct core
    routes."""
    rng = random.Random(seed)
    edges = {(u, u + 1) for u in range(core - 1)}
    edges |= {(u, v) for u in range(core) for v in range(u + 2, core) if rng.random() < 0.3}
    edges |= {(rng.randrange(core), core + h) for h in range(hosts)}
    names = tuple(f"c{v}" for v in range(core)) + tuple(f"h{h}" for h in range(hosts))
    pathless = TopologyDocument(names, frozenset(range(core, core + hosts)), frozenset(edges))
    return generate_paths(pathless, 2)


def _check_cover_routes(ens):
    """Each node's routes, as the cover search reads them: its distinct path members, once each."""
    for v in ens.topology.non_monitors:
        routes = ens._routes.get(v, [])
        assert len(routes) == len(set(routes))
        assert set(routes) == {ens.members[pid] for pid in ens.incidence[v]}


class TestBuildEnsemble:
    def test_incidence_of_running_example(self):
        ens = diamond_ensemble()
        assert ens.paths_through(1) == {0, 1}
        assert ens.paths_through(2) == {1}
        assert ens.unobserved == frozenset()

    def test_empty_path_list(self):
        ens = build_ensemble(DIAMOND, [])
        assert ens.paths_through(1) == frozenset()
        assert ens.unobserved == {1, 2}

    def test_monitor_to_monitor_hop_contributes_nothing(self):
        t = Topology(3, [(0, 1), (0, 2), (1, 2)], [0, 2])
        ens = build_ensemble(t, [(0, 2)])
        assert ens.paths_through(1) == frozenset()
        assert ens.unobserved == {1}

    def test_walks_with_repeats_are_accepted(self):
        t = Topology(3, [(0, 1), (1, 2)], [0, 2])
        ens = build_ensemble(t, [(0, 1, 0, 1, 2)])
        assert ens.paths_through(1) == {0}

    def test_rejects_nonmonitor_endpoint(self):
        with pytest.raises(FormatError):
            build_ensemble(DIAMOND, [(1, 2, 3)])

    def test_rejects_missing_edge(self):
        with pytest.raises(FormatError):
            build_ensemble(DIAMOND, [(0, 2, 3)])

    def test_rejects_too_short(self):
        with pytest.raises(FormatError):
            build_ensemble(DIAMOND, [(0,)])

    def test_node_ids_are_never_coerced(self):
        t = Topology(3, [(0, 1), (1, 2)], [0, 2])
        with pytest.raises(InputError):
            build_ensemble(t, [(0, "1", 2)])
        with pytest.raises(InputError):
            build_ensemble(t, [(0, 1.9, 2)])
        with pytest.raises(InputError):
            build_ensemble(t, [(0, 1, 5)])
        with pytest.raises(InputError):
            build_ensemble(t, [(0, True, 2)])

    def test_rejects_non_sequence_path(self):
        with pytest.raises(InputError):
            build_ensemble(DIAMOND, [5])
        with pytest.raises(InputError):
            build_ensemble(DIAMOND, 5)

    def test_monitor_incidence_query_rejected(self):
        with pytest.raises(InputError):
            diamond_ensemble().paths_through(0)

    @pytest.mark.parametrize(
        "paths, error, message",
        [
            (5, InputError, "paths must be iterable, not int"),
            ([(0, 1, 3), 5], InputError, "path 1 must be iterable, not int"),
            ([()], FormatError, "path 0 has fewer than two nodes"),
            ([(0, 1, 3), (0,)], FormatError, "path 1 has fewer than two nodes"),
            ([(0, 1.0, 3)], InputError, "unknown node id 1.0"),
            ([(0, True, 3)], InputError, "unknown node id True"),
            ([(0, 4, 3)], InputError, "unknown node id 4"),
            ([(0, -1, 3)], InputError, "unknown node id -1"),
            ([(1, 2, 3)], FormatError, "path 0 endpoint 1 is not a monitor"),
            ([(0, 1, 2)], FormatError, "path 0 endpoint 2 is not a monitor"),
            ([(0, 1, 3), (0, 2, 3)], FormatError, "path 1 steps over a missing edge (0, 2)"),
            # Two faults in one path: the first check in this order names it.
            ([(1,)], FormatError, "path 0 has fewer than two nodes"),
            ([(1, 2, 7)], InputError, "unknown node id 7"),
            ([(0, 2, 1)], FormatError, "path 0 endpoint 1 is not a monitor"),
            ([(2, 0)], FormatError, "path 0 endpoint 2 is not a monitor"),
            ([(0, 2, 0, 3, 0)], FormatError, "path 0 steps over a missing edge (0, 2)"),
        ],
    )
    def test_error_messages(self, paths, error, message):
        with pytest.raises(error) as excinfo:
            build_ensemble(DIAMOND, paths)
        assert type(excinfo.value) is error and str(excinfo.value) == message

    @pytest.mark.parametrize("seed", range(3))
    def test_ingest_like_star_shares_routes(self, seed):
        doc = ingest_like_star(seed, 8)
        # Leaving out core node 0's paths leaves it unobserved.
        paths = [p for p in doc.paths if 0 not in p]
        topology = doc.to_topology()
        ens = build_ensemble(topology, paths)
        members = ens.members
        assert members == tuple(frozenset(p) - topology.monitors for p in paths)
        # Equal routes are one object: hundreds of paths, a few dozen routes.
        assert len({id(m) for m in members}) == len(set(members)) < len(members) // 5
        assert ens.incidence == tuple(
            frozenset(pid for pid, p in enumerate(paths) if v in p and v not in topology.monitors)
            for v in topology.nodes
        )
        assert all(ens.incidence[m] == frozenset() for m in topology.monitors)
        assert ens.unobserved == {v for v in topology.non_monitors if not any(v in p for p in paths)}
        assert 0 in ens.unobserved
        _check_cover_routes(ens)

    def test_matches_a_per_path_recomputation_on_the_up_corpus(self, up_corpus):
        # Paths are grouped by distinct route; nothing may differ from
        # deriving members, incidence and covers one path at a time.
        for doc in up_corpus:
            ens = doc.to_ensemble()
            members = tuple(frozenset(p) & ens.topology.non_monitors for p in ens.paths)
            assert ens.members == members
            assert ens.incidence == tuple(
                frozenset(pid for pid, m in enumerate(members) if v in m) for v in ens.topology.nodes
            )
            assert ens.unobserved == ens.topology.non_monitors - frozenset().union(*members)
            _check_cover_routes(ens)
            for v in ens.topology.non_monitors:
                assert oracle._cover(ens, v, guarded=False) == brute_min_cover(ens, v)


def test_up_analysis_builds_no_adjacency(monkeypatch):
    doc = ingest_like_star(0, 8)
    topology = doc.to_topology()
    ensemble = doc.to_ensemble(topology)
    verdict_table(topology, up_model(ensemble))
    assert "adjacency" not in topology.__dict__
    verdict_table(topology, CAP)  # a CAP table reads it, and builds it then
    assert "adjacency" in topology.__dict__
    # Nor does a whole UP report read it, on the topology that analyze builds.
    monkeypatch.setattr(Topology, "adjacency", property(lambda self: pytest.fail("adjacency read")))
    min_cover = cover_profile(ensemble).min_cover
    assert analyze(doc, models=("UP",))["models"]["UP"]["cover_profile"]["min_cover"] == min_cover


class TestMinCoverSize:
    def test_running_example_values(self):
        ens = diamond_ensemble()
        assert min_cover_size(ens, 2) == 1  # v1 covers v2's only path
        assert min_cover_size(ens, 1) == INFINITE_COVER  # path 0 has no other node

    def test_singleton_shared_path(self):
        t = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
        ens = build_ensemble(t, [(0, 1, 2, 3)])
        assert min_cover_size(ens, 1) == 1
        assert min_cover_size(ens, 2) == 1

    def test_unobserved_node_costs_nothing_to_cover(self):
        ens = build_ensemble(DIAMOND, [(0, 1, 3)])
        assert min_cover_size(ens, 2) == 0

    def test_search_beats_greedy(self):
        # Node 5 lies on four of node 2's six paths, so greedy takes it first
        # and needs three nodes; {3, 4} covers all six.
        k6 = Topology(6, [(u, v) for u in range(6) for v in range(u + 1, 6)], [0, 1])
        paths = [
            (0, 2, 3, 5, 1), (0, 3, 2, 5, 1), (0, 2, 3, 1),
            (0, 2, 4, 5, 1), (0, 4, 2, 5, 1), (0, 2, 4, 1),
        ]
        ens = build_ensemble(k6, paths)
        assert min_cover_size(ens, 2) == brute_min_cover(ens, 2) == 2

    def test_search_reaches_past_its_first_cover(self):
        # Nodes 3-7 carry the sets below.  The first cover the search finds
        # takes three nodes ({3, 4, 6}); the optimum {5, 7} lies further on.
        sets = [{2, 3, 4}, {0, 4, 5}, {0, 2, 3}, {1, 2, 5}, {1, 4, 5}]
        k8 = Topology(8, [(u, v) for u in range(8) for v in range(u + 1, 8)], [0, 1])
        paths = [(0, 2, *[3 + j for j, c in enumerate(sets) if e in c], 1) for e in range(6)]
        ens = build_ensemble(k8, paths)
        assert min_cover_size(ens, 2) == brute_min_cover(ens, 2) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_deep_search_matches_bruteforce(self, seed):
        # 10-14 non-monitors on short paths: covers take up to five nodes,
        # so the search runs several levels deep.
        rng = random.Random(seed)
        n = rng.randint(12, 16)
        complete = Topology(n, [(u, v) for u in range(n) for v in range(u + 1, n)], [0, 1])
        paths = [
            (0, *rng.sample(range(2, n), rng.randint(2, 4)), 1)
            for _ in range(rng.randint(14, 24))
        ]
        ens = build_ensemble(complete, paths)
        for v in range(2, n):
            assert min_cover_size(ens, v) == brute_min_cover(ens, v), (paths, v)

    @pytest.mark.parametrize("seed", range(3))
    def test_ingest_like_star_matches_bruteforce(self, seed):
        core = 8
        doc = ingest_like_star(seed, core)
        # As in ingested documents, every path crosses at least two core nodes.
        ens = build_ensemble(doc.to_topology(), [p for p in doc.paths if len(p) > 3])
        assert len(ens.paths) > 300
        sizes = [min_cover_size(ens, v) for v in range(core)]
        assert sizes == [brute_min_cover(ens, v) for v in range(core)]
        assert any(1 < s < INFINITE_COVER for s in sizes), sizes

    def test_repeated_empty_routes_mean_no_cover(self, monkeypatch):
        # Node 1 is the only non-monitor on twelve paths, so each gives it the
        # same empty route; one more path reaches nodes 2-4.
        monitors = (0, 5, 6, 7)
        star = Topology(8, [(1, m) for m in monitors] + [(1, 2), (2, 3), (3, 4), (4, 0)], monitors)
        paths = [(a, 1, b) for a in monitors for b in monitors if a != b]
        paths.append((5, 1, 2, 3, 4, 0))
        ens = build_ensemble(star, paths)
        assert min_cover_size(ens, 1) == brute_min_cover(ens, 1) == INFINITE_COVER
        assert min_cover_size(ens, 3) == brute_min_cover(ens, 3) == 1
        # With 21 spokes 2-22 in place of nodes 2-4, each on a path (23, 1,
        # spoke, 0), the guard counts them before the empty routes are
        # looked at, and refuses before any search.
        monitors, spokes = (0, 23, 24, 25), range(2, 23)
        edges = [(1, m) for m in monitors] + [e for u in spokes for e in ((1, u), (u, 0))]
        paths = [(a, 1, b) for a in monitors for b in monitors if a != b]
        searches = count_cover_searches(monkeypatch)
        ens = build_ensemble(Topology(26, edges, monitors), paths + [(23, 1, u, 0) for u in spokes])
        with pytest.raises(CapacityError) as excinfo:
            min_cover_size(ens, 1)
        assert str(excinfo.value) == (
            "21 candidate covering sets exceed the exact-cover guard of 20; no option raises this guard"
        )
        assert searches == []
        assert oracle._cover(ens, 1, guarded=False) == INFINITE_COVER

    def test_monitor_rejected(self):
        with pytest.raises(InputError):
            min_cover_size(diamond_ensemble(), 0)

    def test_candidate_guard(self, monkeypatch):
        n = 24
        edges = [(0, i) for i in range(1, n)] + [(i, n - 1) for i in range(1, n - 1)]
        t = Topology(n, set(edges), [0, n - 1])
        # every path runs through node 1, so node 1 has one candidate per path
        paths = [(0, 1, n - 1, i, 0) for i in range(2, n - 1)]
        searches = count_cover_searches(monkeypatch)
        ens = build_ensemble(t, paths)
        # The oracle's unguarded read searches node 1's 21-node cover; the
        # guarded reads refuse with the same text before and after it.
        refusals = []
        for _ in range(2):
            for call in (lambda: min_cover_size(ens, 1), lambda: cover_profile(ens)):
                with pytest.raises(CapacityError) as excinfo:
                    call()
                refusals.append(str(excinfo.value))
            assert max_identifiability(t, up_model(ens), guard=t.sigma) == 1
            assert oracle._cover(ens, 1, guarded=False) == 21
        assert refusals == [
            "21 candidate covering sets exceed the exact-cover guard of 20; no option raises this guard"
        ] * 4
        assert [v for _, v in searches].count(1) == 1

    def test_matches_bruteforce_on_random_ensembles(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(4, 8)
            t = Topology(
                n,
                [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6],
                [0, n - 1],
            )
            paths = []
            for _ in range(rng.randint(0, 8)):
                walk = [0]
                for _ in range(rng.randint(1, 6)):
                    nxt = [w for w in t.adjacency[walk[-1]]]
                    if not nxt:
                        break
                    walk.append(rng.choice(sorted(nxt)))
                while walk and walk[-1] not in t.monitors:
                    walk.pop()
                if len(walk) >= 2:
                    paths.append(tuple(walk))
            ens = build_ensemble(t, paths)
            for v in sorted(t.non_monitors):
                assert min_cover_size(ens, v) == brute_min_cover(ens, v), (t, paths, v)


class TestCoverProfile:
    def test_running_example_profile(self):
        profile = cover_profile(diamond_ensemble())
        assert profile.cover_sizes == {1: INFINITE_COVER, 2: 1}
        assert profile.min_cover == 1

    def test_all_private_paths(self):
        t = Topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [0, 3])
        profile = cover_profile(build_ensemble(t, [(0, 1, 3), (0, 2, 3)]))
        assert all(math.isinf(s) for s in profile.cover_sizes.values())
        assert math.isinf(profile.min_cover)

    def test_mutual_cover(self):
        t = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
        profile = cover_profile(build_ensemble(t, [(0, 1, 2, 3), (3, 2, 1, 0)]))
        assert profile.cover_sizes == {1: 1, 2: 1}
        assert profile.min_cover == 1

    def test_unobserved_node_forces_zero(self):
        profile = cover_profile(build_ensemble(DIAMOND, [(0, 1, 3)]))
        assert profile.cover_sizes[2] == 0
        assert profile.min_cover == 0

    def test_returned_sizes_are_the_callers_own(self):
        # The profile is a new dict, never the memo that later answers read.
        ens = diamond_ensemble()
        before = max_identifiability(DIAMOND, up_model(ens))
        profile = cover_profile(ens)
        assert sorted(ens._covers) == [1, 2]  # the memo outlives the call
        profile.cover_sizes[2] = 0
        profile.cover_sizes.clear()
        assert cover_profile(ens).cover_sizes == {1: INFINITE_COVER, 2: 1}
        assert min_cover_size(ens, 2) == 1
        assert max_identifiability(DIAMOND, up_model(ens)) == before

    def test_all_monitor_topology_has_nothing_to_profile(self):
        ensemble = build_ensemble(Topology(2, [(0, 1)], [0, 1]), [(0, 1)])
        with pytest.raises(InputError, match="no non-monitors to profile"):
            cover_profile(ensemble)


class TestMonotonicity:
    def test_adding_path_through_v_never_decreases_cover(self):
        t = Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)], [0, 4])
        base = [(0, 1, 2, 3, 4), (0, 2, 3, 4)]
        for extra in [(0, 1, 3, 4), (0, 2, 1, 3, 4)]:
            before = build_ensemble(t, base)
            after = build_ensemble(t, base + [extra])
            for v in sorted(t.non_monitors):
                if v in extra:
                    assert min_cover_size(after, v) >= min_cover_size(before, v)

    def test_removing_path_elsewhere_never_decreases_cover(self):
        t = Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)], [0, 4])
        paths = [(0, 1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4)]
        full = build_ensemble(t, paths)
        for drop in range(len(paths)):
            reduced = build_ensemble(t, [p for i, p in enumerate(paths) if i != drop])
            for v in sorted(t.non_monitors):
                if v not in paths[drop]:
                    # reindex: reduced path ids shift, but cover sizes only care
                    # about incidence structure
                    assert min_cover_size(reduced, v) >= min_cover_size(full, v)
