"""The oracle's stranding-level answers against every failure set.

``max_identifiability`` and ``k_identifiable`` read the stranding level J
off d, dm or delta, as does the paper's sufficient condition ("no J, or J >
k", ``_sufficient``), and sweep at most two levels of failure sets (sets of
one size); a CAP maximum or verdict sweeps none, and a
CAP ``k_identifiable`` above d sweeps levels d and d + 1 for its twin pair
alone.  The references in ``bruteforce`` sweep every set up to the budget,
and share no code with the connectivities.
"""

from __future__ import annotations

import random
import tracemalloc
from math import comb

import pytest

import nodeloc.oracle as oracle
from nodeloc.ensemble import build_ensemble
from nodeloc.errors import InputError
from nodeloc.generate import barabasi_albert, erdos_renyi, generate_paths, grid
from nodeloc.graph import (
    Topology,
    connected_components,
    monitor_connectivity,
)
from nodeloc.oracle import (
    CAP,
    CSP,
    IndistinguishablePair,
    distinguishable,
    find_measurable_path,
    k_identifiable,
    localize,
    max_identifiability,
    simulate_measurements,
    up_model,
)
from nodeloc.report import analyze

from bruteforce import (
    all_failure_sets,
    brute_component_condition,
    brute_observations,
    reference_abstract_necessary,
    reference_identifiability,
)
from conftest import _seeded_monitor_walks, count_cover_searches, count_threshold_reads, count_walks
from test_conditions import CSP_BEYOND_GUARD


def _sufficient(topo, model, k) -> bool:
    """The sufficient condition, every non-monitor measurable under every set
    of at most k failures, as the oracle reads it: no J, or J > k."""
    level = oracle._stranding_level(topo, model)
    return level is None or level > k


def _reference(topo, model):
    """``(pair, trap)`` from a sweep of every failure set's observations."""
    return reference_identifiability(
        topo, model, lambda failure: simulate_measurements(topo, model, failure)
    )


def _mismatches(topo, model, guard):
    """Every disagreement between the oracle and the all-sets reference."""
    pair, trap = _reference(topo, model)
    first = topo.sigma + 1 if pair is None else len(pair[1])
    out = []
    if oracle._stranding_level(topo, model) != trap:
        out.append(("level", trap))
    if max_identifiability(topo, model, guard=guard) != first - 1:
        out.append(("max", first - 1))
    for k in range(topo.sigma + 1):
        want = (True, None) if k < first else (False, IndistinguishablePair(*pair))
        if k_identifiable(topo, model, k, guard=guard) != want:
            out.append(("k", k, want))
        if _sufficient(topo, model, k) != (trap is None or k < trap):
            out.append(("sufficient", k))
    return out


class TestAgainstEveryFailureSet:
    def test_cap_and_csp_corpus(self, corpus):
        bad = []
        for doc in corpus:
            topo = doc.to_topology()
            for model in (CAP, CSP):
                bad += [(doc, model.kind, m) for m in _mismatches(topo, model, 7)]
        assert bad == []

    def test_up_corpus(self, up_corpus):
        bad = []
        for doc in up_corpus:
            topo = doc.to_topology()
            model = up_model(doc.to_ensemble(topo))
            bad += [(doc, m) for m in _mismatches(topo, model, 7)]
        assert bad == []

    @pytest.mark.parametrize("sigma, monitors, p, seed", CSP_BEYOND_GUARD)
    def test_csp_beyond_default_guard(self, sigma, monitors, p, seed):
        topo = erdos_renyi(sigma + monitors, p, seed=seed, monitors=monitors).to_topology()
        # CAP too: its k above J sweeps two levels, so pairs cross them.
        assert _mismatches(topo, CSP, 12) == []
        assert _mismatches(topo, CAP, 12) == []

    def test_component_condition_every_variant(self, corpus):
        # The merged variant is the CAP sufficient condition, each monitor's
        # variant a threshold on its leave-one-out connectivity, and "any"
        # their conjunction at s and s - 1.
        bad = []
        for doc in corpus:
            topo = doc.to_topology()
            sigma = topo.sigma
            for s in range(sigma + 1):
                merged = _sufficient(topo, CAP, s)
                if merged != brute_component_condition(topo, s):
                    bad.append((doc, None, s))
                every = merged
                for m in sorted(topo.monitors):
                    d_m = monitor_connectivity(topo, m)
                    if (d_m > min(s, sigma - 1)) != brute_component_condition(topo, s, m):
                        bad.append((doc, m, s))
                    every = every and d_m > min(s - 1, sigma - 1)
                if every != brute_component_condition(topo, s, "any"):
                    bad.append((doc, "any", s))
        assert bad == []


def _seeded_family():
    """About 100 seeded ER, BA and grid networks with sigma 9-12 and 1-4 monitors."""
    seed = 7000
    while seed < 7112:
        monitors = 1 + seed % 4
        sigma = 9 + (seed // 4) % 4
        kind = seed % 3
        if kind == 0:
            p = (0.3, 0.5, 0.7)[seed % 7 % 3]
            doc = erdos_renyi(sigma + monitors, p, seed=seed, monitors=monitors)
        elif kind == 1:
            attach = 1 + seed % 5 % 3
            doc = barabasi_albert(sigma + monitors, attach, seed=seed, monitors=monitors)
        else:
            doc = grid(3, 4 + seed % 2, seed=seed, monitors=monitors)
        seed += 1
        if 9 <= doc.to_topology().sigma <= 12:
            yield doc


def _up(topo, paths):
    return up_model(build_ensemble(topo, paths))


# Named instances, one per branch of the rules for J; the UP ones carry
# their paths.  Monitors are the first ids.
NO_NON_MONITOR = Topology(2, [(0, 1)], [0, 1])
ONE_MONITOR = Topology(4, [(0, 1), (0, 2), (0, 3)], [0])
UNREACHED = Topology(4, [(0, 1), (2, 3)], [0])  # 2 and 3 reach no monitor: d = 0
TWO_MONITOR_NEIGHBOURS = Topology(4, [(0, 2), (1, 2), (0, 3), (1, 3)], [0, 1])
# every non-monitor borders a monitor (d = sigma = 3), but 2 and 4 one each
ALL_BORDER = Topology(5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (3, 4)], [0, 1])
# m0-2-m1 with 3 hanging off 2: node 3 lies on no path
OFF_PATH = Topology(4, [(0, 2), (1, 2), (2, 3)], [0, 1])
# 2 and 3 each carry a path of their own, so no cover exists
OWN_PATHS = Topology(4, [(0, 2), (2, 1), (0, 3), (3, 1)], [0, 1])


class TestStrandingLevel:
    """``oracle._stranding_level`` against the ``trap`` of the all-sets reference."""

    @pytest.mark.filterwarnings("ignore:no monitor-to-monitor path")
    def test_seeded_family(self):
        bad = []
        count = 0
        for doc in _seeded_family():
            topo = doc.to_topology()
            count += 1
            models = [CAP, CSP]
            if len(topo.monitors) >= 2:
                with_paths = generate_paths(doc, 1)
                models.append(up_model(with_paths.to_ensemble(topo)))
            for model in models:
                trap = _reference(topo, model)[1]
                if oracle._stranding_level(topo, model) != trap:
                    bad.append((doc, model.kind, trap))
        assert bad == [] and 90 <= count <= 110

    @pytest.mark.parametrize(
        "topo, model, level",
        [
            (ONE_MONITOR, CSP, 0),
            (UNREACHED, CAP, 0),
            (UNREACHED, CSP, 0),
            (TWO_MONITOR_NEIGHBOURS, CAP, None),
            (TWO_MONITOR_NEIGHBOURS, CSP, None),
            (ALL_BORDER, CAP, None),
            (ALL_BORDER, CSP, 1),
            (OFF_PATH, _up(OFF_PATH, [(0, 2, 1)]), 0),
            (OWN_PATHS, _up(OWN_PATHS, [(0, 2, 1), (0, 3, 1)]), None),
        ],
        ids=[
            "one-monitor-csp",
            "unreached-cap",
            "unreached-csp",
            "two-monitor-neighbours-cap",
            "two-monitor-neighbours-csp",
            "all-border-cap",
            "all-border-csp-dm",
            "up-node-on-no-path",
            "up-covers-all-infinite",
        ],
    )
    def test_each_branch(self, topo, model, level):
        assert oracle._stranding_level(topo, model) == level == _reference(topo, model)[1]

    def test_unreached_reads_d_zero_and_all_border_reads_dm(self):
        assert monitor_connectivity(UNREACHED) == 0
        assert monitor_connectivity(ALL_BORDER) == ALL_BORDER.sigma
        assert min(monitor_connectivity(ALL_BORDER, m) for m in (0, 1)) == 1

    @pytest.mark.parametrize("kind", ["CAP", "CSP", "UP"])
    def test_no_non_monitor(self, kind):
        model = {"CAP": CAP, "CSP": CSP}.get(kind) or _up(NO_NON_MONITOR, [(0, 1)])
        assert oracle._stranding_level(NO_NON_MONITOR, model) is None
        assert max_identifiability(NO_NON_MONITOR, model) == 0
        assert k_identifiable(NO_NON_MONITOR, model, 0) == (True, None)
        assert _sufficient(NO_NON_MONITOR, model, 0)


class TestCapMaximum:
    """CAP's largest identifiable k is min(d, sigma), and k-identifiability
    holds exactly for k <= d.  This extends the paper, whose CAP window is
    [d - 1, d]; the proof is in the ``oracle`` module docstring.  The oracle
    answers by that rule without a sweep, so these tests check it against
    searches: the all-sets references, and the oracle's own level sweep.
    """

    def test_corpus_against_every_failure_set(self, corpus):
        bad = []
        below = 0
        for doc in corpus:
            topo = doc.to_topology()
            d = monitor_connectivity(topo)
            below += d < topo.sigma
            pair, _ = reference_identifiability(
                topo, CAP, lambda failure: brute_observations(topo, CAP, failure)
            )
            best = topo.sigma if pair is None else len(pair[1]) - 1
            got = max_identifiability(topo, CAP)
            verdicts = [k_identifiable(topo, CAP, k)[0] for k in range(topo.sigma + 1)]
            want = [k <= d for k in range(topo.sigma + 1)]
            if (best, got, verdicts) != (min(d, topo.sigma), min(d, topo.sigma), want):
                bad.append((doc, d, best, got, verdicts))
        # Both sides of the window: 189 networks have d < sigma.
        assert bad == [] and len(corpus) == 300 and below >= 150

    def test_seeded_er_beyond_default_guard(self):
        # The rule against the all-sets reference on the 36 networks with
        # sigma <= 11, and on all 60 against the oracle's level sweep: level
        # d holds no twins, and levels d and d + 1 hold the pair that
        # k_identifiable returns above d.
        bad = []
        below = referenced = 0
        for seed in range(60):
            sigma = 8 + seed % 7
            p = (0.2, 0.3, 0.45)[seed % 3]
            doc = erdos_renyi(sigma + 1 + seed % 3, p, seed=8000 + seed, monitors=1 + seed % 3)
            topo = doc.to_topology()
            assert topo.sigma == sigma
            d = monitor_connectivity(topo)
            below += d < sigma
            got = max_identifiability(topo, CAP, guard=sigma)
            verdicts = [k_identifiable(topo, CAP, k, guard=sigma)[0] for k in range(sigma + 1)]
            if (got, verdicts) != (min(d, sigma), [k <= d for k in range(sigma + 1)]):
                bad.append((seed, d, got, verdicts))
            if sigma <= 11:
                referenced += 1
                bad += [(seed, m) for m in _mismatches(topo, CAP, sigma)]
            if oracle._first_collision(topo, CAP, range(d, d + 1)) is not None:
                bad.append((seed, "twins at level d"))
            if d < sigma:
                pair = oracle._first_collision(topo, CAP, range(d, d + 2))
                if pair is None or k_identifiable(topo, CAP, d + 1, guard=sigma) != (False, pair):
                    bad.append((seed, "pair above d", pair))
        # 57 of the 60 networks have d < sigma.
        assert bad == [] and below >= 40 and referenced == 36


class TestNecessaryIsIdentifiability:
    """The necessary condition is ``k_identifiable``, which answers from the
    whole network alone; the reference conditions on every smaller deleted set."""

    def test_cap_and_csp_corpus(self, corpus):
        bad = []
        outcomes = set()
        for doc in corpus[:60]:
            topo = doc.to_topology()
            for model in (CAP, CSP):
                for k in range(topo.sigma + 1):
                    want = reference_abstract_necessary(topo, model, k, 7)
                    outcomes.add(want)
                    if k_identifiable(topo, model, k)[0] != want:
                        bad.append((doc, model.kind, k, want))
        assert bad == [] and outcomes == {True, False}

    def test_up_corpus(self, up_corpus):
        bad = []
        outcomes = set()
        for doc in up_corpus[:60]:
            topo = doc.to_topology()
            model = up_model(doc.to_ensemble(topo))
            for k in range(topo.sigma + 1):
                want = reference_abstract_necessary(topo, model, k, 7)
                outcomes.add(want)
                if k_identifiable(topo, model, k)[0] != want:
                    bad.append((doc, k, want))
        assert bad == [] and outcomes == {True, False}


def _count_sweeps(monkeypatch) -> list:
    """One entry per ``oracle._reached`` call: the swept set's size, which,
    unlike the set, keeps nothing alive for a memory trace to see."""
    calls = []
    original = oracle._reached

    def counted(topology, model, failure):
        calls.append(len(failure))
        return original(topology, model, failure)

    monkeypatch.setattr(oracle, "_reached", counted)
    return calls


#: (kind, J) of the sigma-10 networks ``_sparse`` builds.
SPARSE_LEVELS = [("CAP", 3), ("CSP", 2), ("UP", 2)]


def _sparse(kind: str):
    """A sigma-10 network and model whose stranding level holds no twins."""
    if kind == "UP":
        doc = _seeded_monitor_walks(erdos_renyi(14, 0.4, seed=1, monitors=4), 1, 40)
        topo = doc.to_topology()
        return topo, up_model(doc.to_ensemble(topo))
    topo = erdos_renyi(14, 0.3, seed=4, monitors=4).to_topology()
    return topo, CAP if kind == "CAP" else CSP


class TestSweepCounts:
    def test_dense_csp_maximum_sweeps_nothing(self, monkeypatch):
        # No J: the maximum is sigma without a sweep.
        topo = erdos_renyi(34, 0.8, seed=1, monitors=4).to_topology()
        calls = _count_sweeps(monkeypatch)
        assert max_identifiability(topo, CSP, guard=30) == 30
        assert calls == []

    @pytest.mark.parametrize("kind, level", SPARSE_LEVELS)
    def test_sparse_maximum_sweeps_level_j(self, kind, level, monkeypatch):
        # sigma = 10; level J holds no twins here, so the CSP and UP sweeps
        # list all of it.  CAP's level J = d never holds twins: no sweep.
        topo, model = _sparse(kind)
        assert oracle._stranding_level(topo, model) == level
        calls = _count_sweeps(monkeypatch)
        assert max_identifiability(topo, model, guard=10) == level
        assert len(calls) == (0 if kind == "CAP" else comb(topo.sigma, level))

    @pytest.mark.parametrize("kind, level", SPARSE_LEVELS)
    def test_k_identifiable_below_j_sweeps_nothing(self, kind, level, monkeypatch):
        topo, model = _sparse(kind)
        calls = _count_sweeps(monkeypatch)
        for k in range(level):
            assert k_identifiable(topo, model, k, guard=10) == (True, None)
        assert calls == []

    def test_k_identifiable_without_j_sweeps_nothing(self, monkeypatch):
        topo = erdos_renyi(34, 0.8, seed=1, monitors=4).to_topology()
        calls = _count_sweeps(monkeypatch)
        assert k_identifiable(topo, CSP, 3, guard=30) == (True, None)
        assert calls == []

    @pytest.mark.parametrize("kind, level", SPARSE_LEVELS)
    def test_k_identifiable_at_j_sweeps_level_j(self, kind, level, monkeypatch):
        topo, model = _sparse(kind)
        calls = _count_sweeps(monkeypatch)
        assert k_identifiable(topo, model, level, guard=10) == (True, None)
        assert len(calls) == (0 if kind == "CAP" else comb(topo.sigma, level))

    def test_cap_at_scale_sweeps_nothing(self, monkeypatch):
        # sigma = 35, d = 4: read off d, these answers skip a level-d sweep
        # of C(35, 4) = 52,360 sets (about a second).
        topo = erdos_renyi(40, 0.2, seed=3, monitors=5).to_topology()
        assert (topo.sigma, monitor_connectivity(topo)) == (35, 4)
        calls = _count_sweeps(monkeypatch)
        assert max_identifiability(topo, CAP, guard=35) == 4
        assert k_identifiable(topo, CAP, 4, guard=35) == (True, None)
        assert calls == []

    def test_abstract_sufficient_sweeps_nothing(self, monkeypatch):
        topo = erdos_renyi(14, 0.5, seed=1, monitors=4).to_topology()
        calls = _count_sweeps(monkeypatch)
        outcomes = set()
        for model in (CAP, CSP):
            for k in range(topo.sigma + 1):
                outcomes.add(_sufficient(topo, model, k))
        assert outcomes == {True, False} and calls == []

    @pytest.mark.parametrize("kind, found", [("CAP", (2, 4)), ("CSP", (176, 56)), ("UP", (176, 56))])
    def test_localize_sweeps_the_down_set_and_the_forced_set(self, kind, found, monkeypatch):
        # sigma = 11, k_max = 3.  R(D) = T decides: CAP and CSP sweep R(D),
        # UP reads it off the map.  The forced set is read off neighbours or
        # paths, matches here (under CAP always, so it takes no sweep), and
        # every larger candidate closes upward from it.  A forced rule that
        # misses a node still answers right, but sweeps the candidates
        # without it.
        doc = generate_paths(barabasi_albert(14, 1, seed=1, monitors=3), 2)
        topo = doc.to_topology()
        model = {"CAP": CAP, "CSP": CSP, "UP": up_model(doc.to_ensemble(topo))}[kind]
        pool = sorted(topo.non_monitors)
        calls = _count_sweeps(monkeypatch)
        for truth, count in zip(([pool[0]], pool[3:5]), found):
            outcomes = simulate_measurements(topo, model, truth)
            del calls[:]
            candidates = localize(topo, model, outcomes, 3, guard=topo.sigma)
            assert len(candidates) == count and frozenset(truth) in candidates
            assert len(calls) == (2 if kind == "CSP" else 1)

    def test_identified_failure_lists_no_candidate(self, monkeypatch):
        # The forced set is the down set D exactly when D is the one match
        # at any k_max: the failure is identified, and localize answers [D],
        # or [] when D holds more than k_max nodes, without generating a
        # candidate.  The network has localize-stream's shape (sigma 13, six
        # monitors, p = 0.5).  Its shortest paths leave six non-monitors on
        # no path, so no UP map would be identified; the UP paths are, as in
        # localize-stream, a one-hop path per non-monitor with two monitor
        # neighbours, then walks.
        doc = erdos_renyi(19, 0.5, seed=1, monitors=6)
        topo = doc.to_topology()
        pool, monitors = sorted(topo.non_monitors), topo.monitors
        hops = [(m[0], v, m[1]) for v in pool if len(m := sorted(topo.adjacency[v] & monitors)) >= 2]
        ensemble = doc.with_paths(hops + list(_seeded_monitor_walks(doc, 1, 40).paths)).to_ensemble(topo)
        generated = []
        original = oracle._failure_sets
        monkeypatch.setattr(oracle, "_failure_sets", lambda *args: generated.append(args) or original(*args))
        identified, over_budget = {}, {}
        for model in (CAP, CSP, up_model(ensemble)):
            for truth in all_failure_sets(pool, 4):
                outcomes = simulate_measurements(topo, model, truth)
                every = localize(topo, model, outcomes, topo.sigma, guard=topo.sigma)
                del generated[:]
                answer = localize(topo, model, outcomes, 3, guard=topo.sigma)
                if len(every) == 1:
                    assert generated == [] and answer == ([] if len(every[0]) > 3 else every)
                    identified[model.kind] = identified.get(model.kind, 0) + 1
                    over_budget[model.kind] = over_budget.get(model.kind, 0) + (answer == [])
                else:
                    assert len(generated) == 1
        assert identified == {"CAP": 1093, "CSP": 1082, "UP": 796}
        assert over_budget == {"CAP": 715, "CSP": 705, "UP": 476}
        # Not identified: BA-14's first non-monitor down under CSP has 176
        # candidates, which the generator lists.
        doc = generate_paths(barabasi_albert(14, 1, seed=1, monitors=3), 2)
        topo = doc.to_topology()
        outcomes = simulate_measurements(topo, CSP, [min(topo.non_monitors)])
        del generated[:]
        assert len(localize(topo, CSP, outcomes, 3, guard=topo.sigma)) == 176
        assert len(generated) == 1

    def test_cap_localize_sweeps_one_set(self, corpus, monkeypatch):
        # Under CAP the forced set (the down nodes bordering an up node or a
        # monitor) reproduces every produced map once R(D) does, so R(D) is
        # the only sweep.
        calls = _count_sweeps(monkeypatch)
        bad, sweeps = [], set()
        for doc in corpus:
            topo = doc.to_topology()
            pool = sorted(topo.non_monitors)
            maps = {
                tuple(simulate_measurements(topo, CAP, failure).items())
                for failure in all_failure_sets(pool, len(pool))
            }
            for key in maps:
                del calls[:]
                localize(topo, CAP, dict(key), topo.sigma)
                sweeps.add(len(calls))
                if len(calls) > 1:
                    bad.append((doc, key, len(calls)))
        assert bad == [] and sweeps == {1}

    def test_up_localize_never_sweeps_the_down_set(self, up_corpus, monkeypatch):
        # Under UP the map itself decides R(D) = T: once no down path lies
        # inside T, the paths avoiding D are the up paths.  Sweeps remain
        # only for candidates that are not D.  Each produced map is tried
        # as is and with each reading flipped, which most maps no set yields.
        swept = []
        original = oracle._reached

        def recorded(topology, model, failure):
            swept.append(failure)
            return original(topology, model, failure)

        monkeypatch.setattr(oracle, "_reached", recorded)
        bad, maps_seen = [], 0
        for doc in up_corpus:
            topo = doc.to_topology()
            model = up_model(doc.to_ensemble(topo))
            pool = sorted(topo.non_monitors)
            maps = {
                tuple(simulate_measurements(topo, model, failure).items())
                for failure in all_failure_sets(pool, len(pool))
            }
            flips = {(*key[:i], (p, not up), *key[i + 1 :]) for key in maps for i, (p, up) in enumerate(key)}
            for key in maps | flips:
                target = frozenset().union(*(model.ensemble.members[p] for p, up in key if up))
                del swept[:]
                found = localize(topo, model, dict(key), topo.sigma)
                assert found or key not in maps
                maps_seen += 1
                if topo.non_monitors - target in swept:
                    bad.append((doc, key))
        assert bad == [] and maps_seen > 3000


class TestTwinTable:
    def test_memory_follows_stranding_sets_not_the_level(self, monkeypatch):
        # sigma = 21, J = d = 5: level J holds C(21, 5) = 20,349 sets and no
        # twins, so the sweep lists all of it but stores only the few sets
        # that strand.  A table of every set traces a peak of about 40 MB.
        # CAP answers sweep no level, so this drives the sweep primitive.
        topo = erdos_renyi(25, 0.3, seed=7, monitors=4).to_topology()
        assert oracle._stranding_level(topo, CAP) == 5
        calls = _count_sweeps(monkeypatch)
        tracemalloc.start()
        try:
            assert oracle._first_collision(topo, CAP, range(5, 6)) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == comb(topo.sigma, 5) == 20_349
        assert peak < 4_000_000


class TestCertifiedReach:
    """On a dense network shaped like the localize-stream sessions, every
    failure set that strands no node has its R(F) certified by neighbours
    alone; only a stranding set's R(F) needs a walk."""

    def test_localize_walks_nowhere(self, monkeypatch):
        topo = erdos_renyi(19, 0.5, seed=1, monitors=6).to_topology()
        walks = count_walks(monkeypatch)
        rng = random.Random(1)
        for _ in range(40):
            truth = frozenset(rng.sample(sorted(topo.non_monitors), rng.randint(0, 3)))
            for model in (CAP, CSP):
                assert truth in localize(topo, model, simulate_measurements(topo, model, truth), 3, guard=13)
        assert walks == []

    def test_csp_sweep_walks_for_its_stranding_set_alone(self, monkeypatch):
        topo = erdos_renyi(19, 0.5, seed=5, monitors=6).to_topology()
        topo._dm  # read d and dm first: their low-point DFS runs are not R(F) walks
        walks, sweeps = count_walks(monkeypatch), _count_sweeps(monkeypatch)
        # Level J = 7 holds one stranding set and no twins.
        assert max_identifiability(topo, CSP, guard=13) == 7
        assert len(sweeps) == comb(13, 7) == 1_716
        assert walks == ["CSP"]


class TestThresholdReads:
    """Each value reads its thresholds once, however many answers ask: the
    topology value d for CAP, d and then dm given d for CSP; under UP the
    ensemble value searches each non-monitor's cover once for delta, and
    reads no connectivity."""

    @pytest.mark.parametrize("kind, level", SPARSE_LEVELS)
    def test_one_read_per_answer(self, kind, level, monkeypatch):
        reads = count_threshold_reads(monkeypatch)
        searches = count_cover_searches(monkeypatch)
        topo, model = _sparse(kind)
        for call in (
            lambda: max_identifiability(topo, model, guard=10),
            lambda: k_identifiable(topo, model, level, guard=10),
            lambda: _sufficient(topo, model, level),
        ):
            call()
        # Three UP answers search each of the 10 non-monitors once in all.
        assert sorted(v for _, v in searches) == (sorted(topo.non_monitors) if kind == "UP" else [])
        # The CAP/CSP network has d = 3 < sigma = 10.
        assert reads == {"CAP": ["d"], "CSP": ["d", ("dm", 3)], "UP": []}[kind]

    def test_analyze_with_oracle_searches_each_cover_once(self, monkeypatch):
        # The report's guarded profile and the oracle's delta share the memo.
        searches = count_cover_searches(monkeypatch)
        doc = generate_paths(erdos_renyi(14, 0.3, seed=4, monitors=4), 2)
        analyze(doc, models=("UP",), oracle=True, guard=10)
        assert sorted(v for _, v in searches) == sorted(doc.to_topology().non_monitors)

    def test_each_ensemble_searches_its_own(self, monkeypatch):
        searches = count_cover_searches(monkeypatch)
        doc = generate_paths(erdos_renyi(14, 0.3, seed=4, monitors=4), 2)
        topo = doc.to_topology()
        first, second = doc.to_ensemble(topo), doc.to_ensemble(topo)
        assert first == second and first is not second
        for ensemble in (first, second, first, second):
            max_identifiability(topo, up_model(ensemble), guard=10)
        assert [ensemble is first for ensemble, _ in searches] == [True] * 10 + [False] * 10

    def test_each_value_reads_its_own(self, monkeypatch):
        # The memo belongs to a value: equal topologies built apart read again.
        reads = count_threshold_reads(monkeypatch)
        doc = erdos_renyi(14, 0.3, seed=4, monitors=4)
        first, second = doc.to_topology(), doc.to_topology()
        assert first == second and first is not second
        assert max_identifiability(first, CSP, guard=10) == max_identifiability(second, CSP, guard=10)
        assert reads == ["d", ("dm", 3), "d", ("dm", 3)]


def test_public_callers_still_validate_removed_sets():
    # The sweeps skip validation only for sets the enumeration builds itself.
    path4 = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
    for bad in (7, -1, "a"):
        with pytest.raises(InputError):
            connected_components(path4, {bad})
        for model in (CAP, CSP):
            with pytest.raises(InputError):
                find_measurable_path(path4, model, 1, {bad})
            with pytest.raises(InputError):
                simulate_measurements(path4, model, {bad})
            with pytest.raises(InputError):
                distinguishable(path4, model, {1}, {bad})
