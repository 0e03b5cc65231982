"""The oracle's two-level identifiability answers against every failure set.

``max_identifiability``, ``k_identifiable``, ``abstract_sufficient`` and
``exhaustive_component_condition`` sweep one or two levels of failure sets
(sets of one size); the references here sweep every set up to the budget.
"""

from __future__ import annotations

from math import comb

import pytest

import nodeloc.oracle as oracle
from nodeloc.errors import InputError
from nodeloc.generate import erdos_renyi
from nodeloc.graph import Topology, biconnected_to_monitors, connected_components
from nodeloc.oracle import (
    ANY_MONITOR,
    CAP,
    CSP,
    IndistinguishablePair,
    abstract_necessary,
    abstract_sufficient,
    distinguishable,
    exhaustive_component_condition,
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
from test_conditions import CSP_BEYOND_GUARD


def _mismatches(topo, model, guard):
    """Every disagreement between the oracle and the all-sets reference."""
    pair, trap = reference_identifiability(
        topo, model, lambda failure: simulate_measurements(topo, model, failure)
    )
    first = topo.sigma + 1 if pair is None else len(pair[1])
    out = []
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
        bad = []
        for doc in corpus:
            topo = doc.to_topology()
            for with_monitor in (None, *sorted(topo.monitors), ANY_MONITOR):
                for s in range(topo.sigma + 1):
                    want = brute_component_condition(topo, s, with_monitor)
                    if exhaustive_component_condition(topo, s, with_monitor) != want:
                        bad.append((doc, with_monitor, s, want))
        assert bad == []


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
    def test_dense_csp_maximum_sweeps_one_level(self, monkeypatch):
        topo = erdos_renyi(34, 0.8, seed=1, monitors=4).to_topology()
        calls = _count_sweeps(monkeypatch)
        assert max_identifiability(topo, CSP, guard=30) == 30
        assert 0 < len(calls) <= topo.sigma

    def test_abstract_sufficient_sweeps_one_level(self, monkeypatch):
        topo = erdos_renyi(14, 0.5, seed=1, monitors=4).to_topology()
        calls = _count_sweeps(monkeypatch)
        outcomes = set()
        for model in (CAP, CSP):
            for k in range(topo.sigma + 1):
                del calls[:]
                outcomes.add(abstract_sufficient(topo, model, k, guard=10))
                assert len(calls) <= comb(topo.sigma, min(k, topo.sigma - 1)), (model.kind, k)
        assert outcomes == {True, False}


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
