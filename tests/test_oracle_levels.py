"""The oracle's stranding-level answers against every failure set.

``max_identifiability``, ``k_identifiable`` and ``abstract_sufficient`` read
the stranding level J off d, dm or delta and sweep at most two levels of
failure sets (sets of one size); the references in ``bruteforce`` sweep
every set up to the budget, and share no code with the connectivities.
"""

from __future__ import annotations

from math import comb

import pytest

import nodeloc.oracle as oracle
from nodeloc.ensemble import build_ensemble
from nodeloc.errors import InputError
from nodeloc.generate import barabasi_albert, erdos_renyi, generate_paths, grid
from nodeloc.graph import (
    Topology,
    biconnected_to_monitors,
    connected_components,
    monitor_connectivity,
)
from nodeloc.oracle import (
    CAP,
    CSP,
    IndistinguishablePair,
    abstract_necessary,
    abstract_sufficient,
    distinguishable,
    k_identifiable,
    max_identifiability,
    measurable_path_exists,
    simulate_measurements,
    up_model,
)

from bruteforce import (
    brute_component_condition,
    reference_abstract_necessary,
    reference_identifiability,
)
from conftest import _seeded_monitor_walks
from test_conditions import CSP_BEYOND_GUARD


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
        if abstract_sufficient(topo, model, k, guard=guard) != (trap is None or k < trap):
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
        assert _mismatches(topo, CSP, 12) == []

    def test_component_condition_every_variant(self, corpus):
        # The merged variant is the CAP sufficient condition, each monitor's
        # variant a threshold on its leave-one-out connectivity, and "any"
        # their conjunction at s and s - 1.
        bad = []
        for doc in corpus:
            topo = doc.to_topology()
            sigma = topo.sigma
            for s in range(sigma + 1):
                merged = abstract_sufficient(topo, CAP, s)
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
        assert abstract_sufficient(NO_NON_MONITOR, model, 0)


class TestNecessaryIsIdentifiability:
    """``abstract_necessary`` answers from the whole network alone; the
    reference conditions on every smaller deleted set."""

    def test_cap_and_csp_corpus(self, corpus):
        bad = []
        outcomes = set()
        for doc in corpus[:60]:
            topo = doc.to_topology()
            for model in (CAP, CSP):
                for k in range(topo.sigma + 1):
                    want = reference_abstract_necessary(topo, model, k, 7)
                    outcomes.add(want)
                    if abstract_necessary(topo, model, k) != want:
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
                if abstract_necessary(topo, model, k) != want:
                    bad.append((doc, k, want))
        assert bad == [] and outcomes == {True, False}


def _count_sweeps(monkeypatch) -> list:
    calls = []
    original = oracle._reached

    def counted(topology, model, failure):
        calls.append(failure)
        return original(topology, model, failure)

    monkeypatch.setattr(oracle, "_reached", counted)
    return calls


class TestSweepCounts:
    def test_dense_csp_maximum_sweeps_nothing(self, monkeypatch):
        # No J: the maximum is sigma without a sweep.
        topo = erdos_renyi(34, 0.8, seed=1, monitors=4).to_topology()
        calls = _count_sweeps(monkeypatch)
        assert max_identifiability(topo, CSP, guard=30) == 30
        assert calls == []

    @pytest.mark.parametrize("kind, level", [("CAP", 3), ("CSP", 2), ("UP", 2)])
    def test_sparse_maximum_sweeps_level_j(self, kind, level, monkeypatch):
        # sigma = 10; level J holds no twins here, so the sweep lists all of it.
        if kind == "UP":
            doc = _seeded_monitor_walks(erdos_renyi(14, 0.4, seed=1, monitors=4), 1, 40)
            topo = doc.to_topology()
            model = up_model(doc.to_ensemble(topo))
        else:
            topo = erdos_renyi(14, 0.3, seed=4, monitors=4).to_topology()
            model = CAP if kind == "CAP" else CSP
        assert oracle._stranding_level(topo, model) == level
        calls = _count_sweeps(monkeypatch)
        assert max_identifiability(topo, model, guard=10) == level
        assert len(calls) == comb(topo.sigma, level)

    def test_abstract_sufficient_sweeps_nothing(self, monkeypatch):
        topo = erdos_renyi(14, 0.5, seed=1, monitors=4).to_topology()
        calls = _count_sweeps(monkeypatch)
        outcomes = set()
        for model in (CAP, CSP):
            for k in range(topo.sigma + 1):
                outcomes.add(abstract_sufficient(topo, model, k, guard=10))
        assert outcomes == {True, False} and calls == []


def test_public_callers_still_validate_removed_sets():
    # The sweeps skip validation only for sets the enumeration builds itself.
    path4 = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
    for bad in (7, -1, "a"):
        with pytest.raises(InputError):
            connected_components(path4, {bad})
        with pytest.raises(InputError):
            biconnected_to_monitors(path4, {bad})
        for model in (CAP, CSP):
            with pytest.raises(InputError):
                measurable_path_exists(path4, model, 1, {bad})
            with pytest.raises(InputError):
                simulate_measurements(path4, model, {bad})
            with pytest.raises(InputError):
                distinguishable(path4, model, {1}, {bad})
