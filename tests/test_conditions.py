"""Per-k verdicts and maximum-identifiability bounds on hand-checked cases."""

from __future__ import annotations

import math
from collections import Counter

import pytest

import nodeloc.oracle as oracle
from nodeloc.conditions import (
    Identifiability,
    IdentifiabilityBounds,
    cap_bounds,
    cap_verdicts,
    csp_bounds,
    csp_verdicts,
    up_bounds,
    up_verdicts,
)
from nodeloc.ensemble import build_ensemble, cover_profile
from nodeloc.errors import InputError
from nodeloc.generate import barabasi_albert, erdos_renyi, grid
from nodeloc.graph import Topology, _leave_one_out_connectivity, monitor_connectivity
from nodeloc.oracle import CAP, CSP, max_identifiability

from bruteforce import (
    brute_observations,
    brute_vertex_connectivity,
    merge_monitors,
    merge_monitors_leaving_out,
    reference_identifiability,
)
from conftest import count_threshold_reads

PATH4 = Topology(4, [(0, 1), (1, 2), (2, 3)], [0, 3])
PATH3 = Topology(3, [(0, 1), (1, 2)], [0, 2])
STAR = Topology(4, [(0, 1), (0, 2), (0, 3)], [0])
RING = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [0])
DIAMOND = Topology(4, [(0, 1), (1, 3), (1, 2), (2, 3)], [0, 3])


def diamond_profile():
    return cover_profile(build_ensemble(DIAMOND, [(0, 1, 3), (0, 1, 2, 3)]))


class TestCapVerdict:
    def test_k_zero_trivial(self):
        v = cap_verdicts(RING)[0]
        assert v.value is Identifiability.IDENTIFIABLE
        assert v.rationale == "empty-failure-set"

    def test_full_budget_monitor_adjacency(self):
        assert cap_verdicts(PATH4)[2].value is Identifiability.IDENTIFIABLE

    def test_full_budget_fails_without_adjacency(self):
        assert cap_verdicts(RING)[3].value is Identifiability.NOT_IDENTIFIABLE

    def test_connectivity_steps_on_ring(self):
        # merged graph of the single-monitor ring has connectivity 2
        assert cap_verdicts(RING)[1].value is Identifiability.IDENTIFIABLE
        assert cap_verdicts(RING)[2].value is Identifiability.INDETERMINATE


class TestCspVerdict:
    def test_two_monitor_neighbors_at_full_budget(self):
        assert csp_verdicts(PATH3)[1].value is Identifiability.IDENTIFIABLE

    def test_single_monitor_star_fails(self):
        assert csp_verdicts(STAR)[3].value is Identifiability.NOT_IDENTIFIABLE

    def test_near_full_characterization_clause_two(self):
        # v1 touches both monitors; v2 touches one monitor and v1
        t = Topology(4, [(0, 1), (1, 3), (0, 2), (1, 2)], [0, 3])
        assert len(t.adjacency[1] & t.monitors) == 2
        assert len(t.adjacency[2] & t.monitors) == 1
        assert csp_verdicts(t)[1].value is Identifiability.IDENTIFIABLE

    def test_near_full_fails_with_two_weak_nodes(self):
        assert csp_verdicts(PATH4)[1].value is Identifiability.NOT_IDENTIFIABLE

    def test_formula_band(self):
        # two monitors, sigma 3: k=1 goes through the connectivity formulas;
        # merged connectivity 3 and both leave-one-out graphs 2-connected
        t = Topology(5, [(0, 1), (0, 2), (4, 1), (4, 3), (1, 2), (1, 3), (2, 3)], [0, 4])
        verdict = csp_verdicts(t)[1]
        assert verdict.rationale == "merged-and-leave-one-out-connectivity"
        assert verdict.value is Identifiability.IDENTIFIABLE


class TestUpVerdict:
    def test_running_example_indeterminate_at_one(self):
        v = up_verdicts(diamond_profile())[1]
        assert v.value is Identifiability.INDETERMINATE
        assert not v.sufficient_holds and v.necessary_holds

    def test_all_infinite_cover(self):
        t = Topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [0, 3])
        profile = cover_profile(build_ensemble(t, [(0, 1, 3), (0, 2, 3)]))
        for k in range(t.sigma + 1):
            assert up_verdicts(profile)[k].value is Identifiability.IDENTIFIABLE

    def test_unobserved_node_kills_k1(self):
        profile = cover_profile(build_ensemble(DIAMOND, [(0, 1, 3)]))
        assert up_verdicts(profile)[1].value is Identifiability.NOT_IDENTIFIABLE

    def test_k_zero_trivial(self):
        profile = cover_profile(build_ensemble(DIAMOND, [(0, 1, 3)]))
        assert up_verdicts(profile)[0].value is Identifiability.IDENTIFIABLE


class TestCapBounds:
    def test_single_monitor_ring_window(self):
        b = cap_bounds(RING)
        assert (b.lower, b.upper, b.applicable) == (1, 2, True)

    def test_guard_fail_falls_back_to_exact(self):
        b = cap_bounds(PATH4)
        assert not b.applicable and b.exact == 2
        assert "sigma-1" in b.guard_note

    def test_star_exact_sigma(self):
        b = cap_bounds(STAR)
        assert b.exact == 3


class TestCspBounds:
    def test_short_path_exact_via_two_neighbor_rule(self):
        b = csp_bounds(PATH3)
        assert not b.applicable and b.exact == 1

    def test_path4_scan_fallback(self):
        b = csp_bounds(PATH4)
        assert not b.applicable and (b.lower, b.upper) == (0, 0)

    def test_formula_window(self):
        # six-node path between two monitors: leave-one-out connectivity 1,
        # merged connectivity 2, sigma 4, so the guard holds
        t = Topology(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [0, 5])
        b = csp_bounds(t)
        assert b.applicable
        assert (b.lower, b.upper) == (0, 1)

    def test_near_full_exact_rule(self):
        t = Topology(4, [(0, 1), (1, 3), (0, 2), (1, 2)], [0, 3])
        b = csp_bounds(t)
        assert b.exact == t.sigma - 1

    def test_one_unit_window_from_both_connectivities(self):
        # leave-one-out connectivity 2 and merged connectivity 3 with four
        # non-monitors: the window is [1, 2] and the oracle lands inside it
        from nodeloc.oracle import CSP, max_identifiability

        t = Topology(
            6,
            [(0, 1), (0, 2), (0, 3), (5, 1), (5, 2), (4, 1), (4, 2), (4, 3), (3, 1)],
            [0, 5],
        )
        b = csp_bounds(t)
        assert b.applicable and (b.lower, b.upper) == (1, 2)
        assert b.lower <= max_identifiability(t, CSP) <= b.upper


class TestUpBounds:
    def test_running_example_window(self):
        b = up_bounds(diamond_profile())
        assert (b.lower, b.upper) == (0, 1)

    def test_infinite_cover_means_everything(self):
        t = Topology(4, [(0, 1), (1, 3), (0, 2), (2, 3)], [0, 3])
        profile = cover_profile(build_ensemble(t, [(0, 1, 3), (0, 2, 3)]))
        assert up_bounds(profile).exact == t.sigma

    def test_zero_cover_pins_zero(self):
        profile = cover_profile(build_ensemble(DIAMOND, [(0, 1, 3)]))
        b = up_bounds(profile)
        assert (b.lower, b.upper, b.exact) == (0, 0, 0)


class TestStructuralInvariants:
    def test_verdict_nesting_and_monotonicity(self, corpus):
        for doc in corpus[:80]:
            topo = doc.to_topology()
            for table in (cap_verdicts(topo), csp_verdicts(topo)):
                for earlier, later in zip(table, table[1:]):
                    assert not (later.sufficient_holds and not earlier.sufficient_holds)
                    assert not (later.necessary_holds and not earlier.necessary_holds)
                for verdict in table:
                    assert not (verdict.sufficient_holds and not verdict.necessary_holds)

    def test_up_nesting(self, up_corpus):
        for doc in up_corpus[:60]:
            topo = doc.to_topology()
            profile = cover_profile(doc.to_ensemble(topo))
            table = up_verdicts(profile)
            for earlier, later in zip(table, table[1:]):
                assert not (later.sufficient_holds and not earlier.sufficient_holds)
                assert not (later.necessary_holds and not earlier.necessary_holds)

    def test_bounds_are_well_formed(self, corpus):
        for doc in corpus[:80]:
            topo = doc.to_topology()
            for b in (cap_bounds(topo), csp_bounds(topo)):
                assert 0 <= b.lower <= b.upper <= topo.sigma
                if b.exact is not None:
                    assert b.lower <= b.exact <= b.upper
                if not b.applicable:
                    assert b.guard_note


class TestAllMonitorEdgeCases:
    def test_k_zero_needs_no_auxiliary_graph(self):
        every = Topology(2, [(0, 1)], [0, 1])
        for table in (cap_verdicts(every), csp_verdicts(every)):
            assert len(table) == 1
            assert table[0].value is Identifiability.IDENTIFIABLE
            assert table[0].rationale == "empty-failure-set"

    def test_bounds_still_require_a_nonmonitor(self):
        every = Topology(2, [(0, 1)], [0, 1])
        with pytest.raises(InputError):
            cap_bounds(every)
        with pytest.raises(InputError):
            csp_bounds(every)


# Dense ER instances past the default brute-force guard of 7 non-monitors:
# (sigma, monitors, edge probability, seed).  Sigma ranges over 9-12.
CSP_BEYOND_GUARD = [
    (9, 3, 0.6, 901),
    (10, 3, 0.6, 902),
    (11, 4, 0.65, 903),
    (12, 4, 0.7, 904),
    (12, 3, 0.6, 905),
    (10, 2, 0.7, 906),
    (9, 4, 0.5, 907),
    (11, 3, 0.75, 908),
    (12, 5, 0.8, 909),
    (11, 3, 0.35, 910),
]


@pytest.mark.parametrize("sigma, monitors, p, seed", CSP_BEYOND_GUARD)
def test_csp_conditions_against_oracle_beyond_default_guard(sigma, monitors, p, seed):
    topo = erdos_renyi(sigma + monitors, p, seed=seed, monitors=monitors).to_topology()
    assert topo.sigma == sigma
    omega = max_identifiability(topo, CSP, guard=12)
    b = csp_bounds(topo)
    assert b.lower <= omega <= b.upper, (omega, b)
    for k, verdict in enumerate(csp_verdicts(topo)):
        if verdict.value is Identifiability.IDENTIFIABLE:
            assert k <= omega, (k, omega)
        elif verdict.value is Identifiability.NOT_IDENTIFIABLE:
            assert k > omega, (k, omega)


class TestOneTableBuilder:
    """Every CAP/CSP function is a view of ``controllable_table``, and the
    topology value reads d and dm once for all of them."""

    def test_connectivity_calls_per_public_function(self, monkeypatch):
        from nodeloc.conditions import controllable_table

        reads = count_threshold_reads(monkeypatch)
        doc = erdos_renyi(14, 0.35, seed=4, monitors=3)
        # d = 4 < sigma = 11, so dm is read once, given d.
        for fn, want in (
            (cap_verdicts, ["d"]), (cap_bounds, ["d"]),
            (csp_verdicts, ["d", ("dm", 4)]), (csp_bounds, ["d", ("dm", 4)]),
            (lambda t: controllable_table(t, "CAP"), ["d"]),
            (lambda t: controllable_table(t, "CSP"), ["d", ("dm", 4)]),
        ):
            topo = doc.to_topology()
            del reads[:]
            fn(topo)
            fn(topo)
            assert reads == want
        topo = doc.to_topology()
        del reads[:]
        for fn in (cap_verdicts, cap_bounds, csp_verdicts, csp_bounds):
            fn(topo)
        assert reads == ["d", ("dm", 4)] and topo.sigma == 11

    def test_views_agree_with_the_table(self):
        from nodeloc.conditions import controllable_table

        for seed in range(20):
            topo = erdos_renyi(9, 0.45, seed=seed, monitors=1 + seed % 3).to_topology()
            for kind, verdicts, bounds in (("CSP", csp_verdicts, csp_bounds), ("CAP", cap_verdicts, cap_bounds)):
                table = controllable_table(topo, kind)
                assert table == (verdicts(topo), bounds(topo))
                assert len(table[0]) == topo.sigma + 1

    def test_each_distinct_verdict_is_built_once(self):
        from nodeloc.conditions import _table

        # The certified, open and refuted verdicts are shared across k; only
        # k = 0 and the exact edge rules (CAP one, CSP two, UP none) add objects.
        table = _table(60, 10, {60: (False, "edge"), 59: (True, "edge")}, "threshold")
        assert len(table) == 61 and len({id(v) for v in table}) == 2 + 4
        assert [table[k].value for k in (9, 10, 11, 59, 60)] == [
            Identifiability.IDENTIFIABLE, Identifiability.INDETERMINATE,
            Identifiability.NOT_IDENTIFIABLE, Identifiability.IDENTIFIABLE,
            Identifiability.NOT_IDENTIFIABLE,
        ]
        for seed in range(6):
            doc = erdos_renyi(40, 0.15, seed=seed, monitors=2 + seed % 3)
            topo = doc.to_topology()
            assert len({id(v) for v in cap_verdicts(topo)}) <= 1 + 4
            assert len({id(v) for v in csp_verdicts(topo)}) <= 2 + 4
        assert len({id(v) for v in up_verdicts(diamond_profile())}) <= 0 + 4

    def test_all_monitor_verdicts_build_no_auxiliary_graph(self, monkeypatch):
        every = Topology(3, [(0, 1), (1, 2)], [0, 1, 2])
        calls = count_threshold_reads(monkeypatch)
        table = cap_verdicts(every)
        assert csp_verdicts(every) == table and len(table) == 1
        assert table[0].value is Identifiability.IDENTIFIABLE
        assert calls == []

    def test_all_monitor_bounds_raise_on_every_call(self, monkeypatch):
        # A failed read is not memoised: each call reads d again and raises.
        every = Topology(3, [(0, 1), (1, 2)], [0, 1, 2])
        calls = count_threshold_reads(monkeypatch)
        for fn in (cap_bounds, csp_bounds, cap_bounds, csp_bounds):
            with pytest.raises(InputError, match="at least one non-monitor"):
                fn(every)
        assert calls == ["d"] * 4


def _span_family():
    """200 seeded ER (p 0.1 to 0.95), BA and grid networks of 4 to 30 nodes."""
    for seed in range(100):
        p = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95)[seed % 7]
        yield erdos_renyi(4 + seed % 27, p, seed=2900 + seed, monitors=1 + seed % 3)
    for seed in range(50):
        yield barabasi_albert(4 + seed % 27, 1 + seed % 3, seed=3000 + seed, monitors=1 + seed % 3)
    for seed in range(50):
        yield grid(2 + seed % 5, 2 + seed % 4, seed=3100 + seed, monitors=1 + seed % 3)


class TestOneThresholdRule:
    """Each regime's verdicts and bounds follow one threshold T.

    T is computed here independently of ``nodeloc.conditions``: the merged
    connectivity d for CAP, min(d - 1, dm) for CSP and the minimum cover
    size for UP.  Only the exact edges (k = 0, the full budget, and for CSP
    one short of it) may depart from the threshold rule.  In every regime
    the bounds are the span of the verdict table, and where the paper's
    precondition holds that span is its window [T - 1, T].
    """

    @staticmethod
    def _check_rule(verdicts, threshold, edges):
        for k, verdict in enumerate(verdicts):
            if k not in edges:
                assert verdict.sufficient_holds == (threshold >= k + 1), (k, threshold)
                assert verdict.necessary_holds == (threshold >= k), (k, threshold)

    @staticmethod
    def _check_span(verdicts, bounds, window):
        """``window`` is the paper's bounds where its precondition holds, else None."""
        lower = max(k for k, v in enumerate(verdicts) if v.sufficient_holds)
        refuted = [k for k, v in enumerate(verdicts) if not v.necessary_holds]
        upper = refuted[0] - 1 if refuted else len(verdicts) - 1
        assert (bounds.lower, bounds.upper) == (lower, upper)
        assert bounds.exact == (lower if lower == upper else None)
        assert bounds.applicable == (window is not None) == (bounds.guard_note == "")
        if window is not None:
            assert (lower, upper) == window

    def _check_controllable(self, topo, d, dm, seen):
        sigma = topo.sigma
        regimes = (
            ("CAP", cap_verdicts(topo), cap_bounds(topo), d, sigma - 1, {0, sigma}),
            ("CSP", csp_verdicts(topo), csp_bounds(topo), min(d - 1, dm), sigma - 2,
             {0, sigma - 1, sigma}),
        )
        for kind, verdicts, bounds, threshold, top, edges in regimes:
            self._check_rule(verdicts, threshold, edges)
            below = threshold <= top
            window = (max(threshold - 1, 0), max(threshold, 0)) if below else None
            self._check_span(verdicts, bounds, window)
            seen[kind, below, bounds.exact is not None] += 1
            if kind == "CAP" and not below:
                # d >= sigma: the merged graph is complete, so every
                # non-monitor borders a monitor.
                assert all(len(topo.adjacency[v] & topo.monitors) >= 1 for v in topo.non_monitors)

    def test_controllable_regimes(self, corpus):
        seen = Counter()
        for doc in corpus:
            topo = doc.to_topology()
            d = brute_vertex_connectivity(merge_monitors(topo))
            dm = min(
                brute_vertex_connectivity(merge_monitors_leaving_out(topo, m))
                for m in topo.monitors
            )
            assert monitor_connectivity(topo) == d
            assert min(monitor_connectivity(topo, m) for m in topo.monitors) == dm
            self._check_controllable(topo, d, dm, seen)
        # Larger and denser networks, with T read as controllable_table
        # reads it: d, then dm given d.
        wider = Counter()
        for doc in _span_family():
            topo = doc.to_topology()
            d = monitor_connectivity(topo)
            self._check_controllable(topo, d, _leave_one_out_connectivity(topo, d), wider)
        # Both regimes, both sides of the precondition, tight spans included.
        for counts in (seen, wider):
            assert all(counts[kind, below, True] for kind in ("CAP", "CSP") for below in (True, False))

    def test_uncontrollable_regime(self, up_corpus):
        tight = 0
        for doc in up_corpus:
            topo = doc.to_topology()
            profile = cover_profile(doc.to_ensemble(topo))
            verdicts, bounds, delta = up_verdicts(profile), up_bounds(profile), profile.min_cover
            self._check_rule(verdicts, delta, {0})
            # No exact rules and no precondition: delta is below sigma or infinite.
            window = (topo.sigma, topo.sigma) if math.isinf(delta) else (max(delta - 1, 0), delta)
            self._check_span(verdicts, bounds, window)
            tight += bounds.exact is not None
        assert tight > 0


# Auxiliary-graph shapes at the edges of monitor_connectivity's rungs.
MONITOR_CONNECTIVITY_CASES = {
    # sigma = 1: the merged graph is one edge, the leave-one-out graph none
    "sigma-one": Topology(2, [(0, 1)], [0]),
    # monitor 3 has only a monitor neighbour, so it adds no boundary node
    "monitor-without-non-monitor-neighbour": Topology(
        5, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4), (1, 4)], [0, 3, 4]
    ),
    # the triangle 4-5-6 is a component no monitor reaches
    "unreached-component": Topology(7, [(0, 1), (1, 2), (2, 3), (0, 2), (4, 5), (5, 6), (4, 6)], [0, 3]),
    # every non-monitor borders a monitor: the merged graph is complete
    "all-boundary": Topology(5, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 1), (4, 2)], [0, 4]),
    # node 2 cuts the triangle 2-4-5 off the virtual monitor
    "cut-vertex": Topology(6, [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4), (4, 5), (5, 2)], [0]),
}


@pytest.mark.parametrize("name", sorted(MONITOR_CONNECTIVITY_CASES))
def test_monitor_connectivity_against_the_reference_construction(name):
    topo = MONITOR_CONNECTIVITY_CASES[name]
    assert monitor_connectivity(topo) == brute_vertex_connectivity(merge_monitors(topo))
    for m in sorted(topo.monitors):
        want = brute_vertex_connectivity(merge_monitors_leaving_out(topo, m))
        assert monitor_connectivity(topo, m) == want, m


def test_monitor_connectivity_errors():
    with pytest.raises(InputError, match="at least one non-monitor"):
        monitor_connectivity(Topology(2, [(0, 1)], [0, 1]))
    with pytest.raises(InputError, match="not a monitor"):
        monitor_connectivity(PATH4, 1)
    with pytest.raises(InputError, match="unknown node"):
        monitor_connectivity(PATH4, 9)


# ---------------------------------------------------------------------------
# dm capped at d - 1 below d = sigma
# ---------------------------------------------------------------------------

#: Twin monitors on a five-cycle of non-monitors: leaving either out changes
#: nothing, so dm = d = 2 < sigma = 5 and the cap d - 1 binds.
TWIN_MONITORS = Topology(
    7, [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 2), (6, 0), (6, 2)], [5, 6]
)
#: Both monitors border every non-monitor: d = dm = sigma = 3.
DOUBLY_COVERED = Topology(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)], [0, 1])


def _reference_thresholds(topo):
    """d and dm from the reference construction and brute-force connectivity."""
    d = brute_vertex_connectivity(merge_monitors(topo))
    dm = min(brute_vertex_connectivity(merge_monitors_leaving_out(topo, m)) for m in topo.monitors)
    return d, dm


def _reference_csp(topo):
    """CSP's largest identifiable k and stranding level J from every failure set."""
    pair, trap = reference_identifiability(topo, CSP, lambda f: brute_observations(topo, CSP, f))
    return (topo.sigma if pair is None else len(pair[1]) - 1), trap


def _uncapped(topology, d=None):
    """dm as the plain minimum of the public connectivity, ignoring ``d``."""
    return min(monitor_connectivity(topology, m) for m in topology.monitors)


def _cap_family():
    """210 seeded ER (sparse and dense), BA and grid networks; 44 have d = sigma."""
    for seed in range(80):
        yield erdos_renyi(10 + seed % 25, 0.15 + 0.1 * (seed % 4), seed=seed, monitors=1 + seed % 5)
    for seed in range(40):
        yield erdos_renyi(8 + seed % 8, 0.7, seed=100 + seed, monitors=2 + seed % 4)
    for seed in range(50):
        yield barabasi_albert(12 + seed % 30, 1 + seed % 3, seed=200 + seed, monitors=1 + seed % 4)
    for seed in range(40):
        yield grid(3 + seed % 4, 3 + seed % 5, seed=300 + seed, monitors=1 + seed % 4)


class TestLeaveOneOutCap:
    """CSP reads dm only through min(d - 1, dm) unless d = sigma, so dm is
    computed capped at d - 1 there and exactly at d = sigma."""

    def test_cap_binds_when_dm_exceeds_d_minus_one(self):
        topo = TWIN_MONITORS
        d, dm = _reference_thresholds(topo)
        assert (topo.sigma, d, dm) == (5, 2, 2)
        assert _leave_one_out_connectivity(topo, d) == d - 1 < dm == _uncapped(topo)
        assert csp_bounds(topo) == IdentifiabilityBounds(0, 1, None, True, "")
        best, trap = _reference_csp(topo)
        assert oracle._stranding_level(topo, CSP) == trap == min(d - 1, dm)
        assert max_identifiability(topo, CSP) == best
        assert csp_bounds(topo).lower <= best <= csp_bounds(topo).upper

    def test_guard_note_prints_the_exact_dm_at_d_sigma(self):
        topo = DOUBLY_COVERED
        d, dm = _reference_thresholds(topo)
        assert d == dm == topo.sigma == 3
        assert _leave_one_out_connectivity(topo, d) == dm
        bounds = csp_bounds(topo)
        assert not bounds.applicable
        assert bounds.guard_note.startswith(f"min(leave-one-out {dm}, merged-1 {d - 1}) exceeds")
        best, trap = _reference_csp(topo)
        assert oracle._stranding_level(topo, CSP) is trap is None
        assert bounds.exact == best == topo.sigma

    def test_capped_equals_uncapped_on_seeded_networks(self, monkeypatch):
        import nodeloc.conditions as conditions
        import nodeloc.graph as graph

        def answers(topo):
            return (
                conditions.controllable_table(topo, "CAP"),
                conditions.controllable_table(topo, "CSP"),
                oracle._stranding_level(topo, CAP),
                oracle._stranding_level(topo, CSP),
            )

        docs = [doc for doc in _cap_family() if doc.to_topology().sigma > 0]
        assert len(docs) >= 200
        capped = [answers(doc.to_topology()) for doc in docs]
        monkeypatch.setattr(graph, "_leave_one_out_connectivity", _uncapped)
        sigma_exact = binding = 0
        for doc, got in zip(docs, capped):
            # A fresh value, so its memo holds nothing from the capped pass.
            topo = doc.to_topology()
            assert got == answers(topo)
            d, dm = monitor_connectivity(topo), _uncapped(topo)
            assert (topo._d, topo._dm) == (d, dm)
            sigma_exact += d == topo.sigma
            binding += d < topo.sigma and dm > d - 1
        # Both sides of the rule are exercised: exact reads and binding caps.
        assert sigma_exact >= 40 and binding >= 40
