"""Acceptance suite: every exit criterion, one test and one printed line each.

The corpus is seeded and deterministic (see conftest).  The maximum
identifiability of each instance comes from the reference sweep of every
failure set in ``bruteforce``, computed once per module and shared, so the
whole suite stays well inside its time budgets and no criterion reads the
package's connectivity code on both sides of a comparison.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from nodeloc.conditions import verdict_table
from nodeloc.document import parse_topology
from nodeloc.ensemble import min_cover_size
from nodeloc.graph import monitor_connectivity
from nodeloc.oracle import CAP, CSP, localize, simulate_measurements, up_model
from nodeloc.report import analyze, emit_report

from bruteforce import (
    brute_component_condition,
    brute_min_cover,
    brute_observations,
    brute_vertex_connectivity,
    merge_monitors,
    merge_monitors_leaving_out,
    reference_identifiability,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(name: str, violations: list, elapsed: float | None = None, budget: float | None = None):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    timing = f" [{elapsed:.1f}s < {budget:.0f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {name}: {status}{timing}")
    assert not violations, violations[:5]
    if elapsed is not None and budget is not None:
        assert elapsed < budget, f"suite took {elapsed:.1f}s, budget {budget}s"


def _reference_maximum(topo, model) -> int:
    """The size of the first repeated observation, minus 1 (sigma if none repeats)."""
    pair, _ = reference_identifiability(
        topo, model, lambda failure: brute_observations(topo, model, failure)
    )
    return topo.sigma if pair is None else len(pair[1]) - 1


@pytest.fixture(scope="module")
def cap_oracle(corpus):
    return [_reference_maximum(doc.to_topology(), CAP) for doc in corpus]


@pytest.fixture(scope="module")
def csp_oracle(corpus):
    return [_reference_maximum(doc.to_topology(), CSP) for doc in corpus]


@pytest.fixture(scope="module")
def up_instances(up_corpus):
    out = []
    for doc in up_corpus:
        topo = doc.to_topology()
        model = up_model(doc.to_ensemble(topo))
        out.append((doc, topo, model, _reference_maximum(topo, model)))
    return out


def test_criterion_1_cap_condition_sandwich(corpus, cap_oracle):
    started = time.monotonic()
    violations = []
    for doc, omega in zip(corpus, cap_oracle):
        topo = doc.to_topology()
        for k, verdict in enumerate(verdict_table(topo, CAP)[0]):
            oracle_ok = k <= omega
            if verdict.sufficient_holds and not oracle_ok:
                violations.append(("sufficient-not-identifiable", doc, k))
            if oracle_ok and not verdict.necessary_holds:
                violations.append(("identifiable-fails-necessary", doc, k))
    _report("1 CAP sandwich", violations, time.monotonic() - started, 60.0)


def test_criterion_2_csp_condition_sandwich(corpus, csp_oracle):
    started = time.monotonic()
    violations = []
    for doc, omega in zip(corpus, csp_oracle):
        topo = doc.to_topology()
        for k, verdict in enumerate(verdict_table(topo, CSP)[0]):
            oracle_ok = k <= omega
            if verdict.sufficient_holds and not oracle_ok:
                violations.append(("sufficient-not-identifiable", doc, k))
            if oracle_ok and not verdict.necessary_holds:
                violations.append(("identifiable-fails-necessary", doc, k))
    _report("2 CSP sandwich", violations, time.monotonic() - started, 120.0)


def test_criterion_3_up_condition_sandwich(up_instances):
    started = time.monotonic()
    violations = []
    for doc, topo, model, omega in up_instances:
        for k, verdict in enumerate(verdict_table(topo, model)[0]):
            oracle_ok = k <= omega
            if verdict.sufficient_holds and not oracle_ok:
                violations.append(("sufficient-not-identifiable", doc, k))
            if oracle_ok and not verdict.necessary_holds:
                violations.append(("identifiable-fails-necessary", doc, k))
    _report("3 UP sandwich", violations, time.monotonic() - started, 60.0)


def test_criterion_4_connectivity_equivalences(corpus):
    violations = []
    for doc in corpus:
        topo = doc.to_topology()
        if topo.sigma == 0:
            continue
        d = monitor_connectivity(topo)
        for s in range(topo.sigma):
            raw = brute_component_condition(topo, s)
            via_connectivity = d >= s + 1
            if raw != via_connectivity:
                violations.append(("merged", doc, s))
        for m in sorted(topo.monitors):
            d_m = monitor_connectivity(topo, m)
            for s in range(topo.sigma):
                raw = brute_component_condition(topo, s, with_monitor=m)
                via_connectivity = d_m >= s + 1
                if raw != via_connectivity:
                    violations.append(("leave-one-out", doc, m, s))
    _report("4 connectivity equivalences", violations)


def test_criterion_5_exact_edge_corollaries(corpus, cap_oracle, csp_oracle):
    violations = []
    for doc, omega_cap, omega_csp in zip(corpus, cap_oracle, csp_oracle):
        topo = doc.to_topology()
        sigma = topo.sigma
        cap_exact = all(len(topo.adjacency[v] & topo.monitors) >= 1 for v in topo.non_monitors)
        if (omega_cap == sigma) != cap_exact:
            violations.append(("cap-full-budget", doc))
        csp_exact = all(len(topo.adjacency[v] & topo.monitors) >= 2 for v in topo.non_monitors)
        if (omega_csp == sigma) != csp_exact:
            violations.append(("csp-full-budget", doc))
        if sigma >= 2:
            weak = [v for v in sorted(topo.non_monitors) if len(topo.adjacency[v] & topo.monitors) < 2]
            characterization = not weak or (
                len(weak) == 1
                and len(topo.adjacency[weak[0]] & topo.monitors) == 1
                and topo.non_monitors - {weak[0]} <= topo.neighbors(weak[0])
            )
            if (omega_csp >= sigma - 1) != characterization:
                violations.append(("csp-near-full", doc))
        else:
            # sigma = 1: (sigma-1)-identifiability is the trivial k = 0 case
            if omega_csp < 0:
                violations.append(("csp-near-full-degenerate", doc))
    _report("5 exact corollaries", violations)


def test_criterion_6_bound_sandwiches(corpus, up_instances, cap_oracle, csp_oracle):
    violations = []
    for doc, omega_cap, omega_csp in zip(corpus, cap_oracle, csp_oracle):
        topo = doc.to_topology()
        b = verdict_table(topo, CAP)[1]
        if b.applicable and not b.lower <= omega_cap <= b.upper:
            violations.append(("cap", doc, omega_cap, b))
        if b.applicable and b.upper - b.lower > 1:
            violations.append(("cap-width", doc, b))
        b = verdict_table(topo, CSP)[1]
        if b.applicable and not b.lower <= omega_csp <= b.upper:
            violations.append(("csp", doc, omega_csp, b))
        if b.applicable and b.upper - b.lower > 1:
            violations.append(("csp-width", doc, b))
    for doc, topo, model, omega in up_instances:
        b = verdict_table(topo, model)[1]
        if not b.lower <= omega <= b.upper:
            violations.append(("up", doc, omega, b))
    _report("6 bound sandwiches", violations)


def test_criterion_7_connectivity_and_cover_oracles(corpus, up_instances):
    violations = []
    for doc in corpus:
        topo = doc.to_topology()
        if topo.sigma == 0:
            continue
        cases = [(None, merge_monitors(topo))]
        cases += [(m, merge_monitors_leaving_out(topo, m)) for m in sorted(topo.monitors)]
        for left_out, graph in cases:
            if monitor_connectivity(topo, left_out) != brute_vertex_connectivity(graph):
                violations.append(("connectivity", doc, left_out))
    for doc, topo, model, _ in up_instances:
        if topo.sigma > 6:
            continue
        for v in sorted(topo.non_monitors):
            if min_cover_size(model.ensemble, v) != brute_min_cover(model.ensemble, v):
                violations.append(("cover", doc, v))
    _report("7 connectivity and cover oracles", violations)


def test_criterion_8_localization_round_trip(corpus, up_instances, cap_oracle, csp_oracle):
    from itertools import combinations

    violations = []

    def check(doc, topo, model, omega):
        pool = sorted(topo.non_monitors)
        for size in range(omega + 1):
            for truth in combinations(pool, size):
                truth_set = frozenset(truth)
                outcome = simulate_measurements(topo, model, truth_set)
                found = localize(topo, model, outcome, omega)
                if found != [truth_set]:
                    violations.append((doc, model.kind, truth_set, found))

    for doc, omega_cap, omega_csp in zip(corpus, cap_oracle, csp_oracle):
        topo = doc.to_topology()
        check(doc, topo, CAP, omega_cap)
        check(doc, topo, CSP, omega_csp)
    for doc, topo, model, omega in up_instances:
        check(doc, topo, model, omega)
    _report("8 localization round-trip", violations)


GOLDEN_CASES = ("chain", "ring", "hop", "twopaths")


def test_criterion_9_determinism_and_goldens():
    violations = []
    for name in GOLDEN_CASES:
        doc = parse_topology((GOLDEN_DIR / f"{name}.topology.json").read_text())
        first = emit_report(analyze(doc, oracle=True), "json")
        second = emit_report(analyze(doc, oracle=True), "json")
        if first != second:
            violations.append(("nondeterministic", name))
        expected = (GOLDEN_DIR / f"{name}.report.json").read_text()
        if first != expected:
            violations.append(("golden-mismatch", name))
    _report("9 determinism and goldens", violations)
