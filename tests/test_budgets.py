"""One plain-int rule for failure budgets, guards and limits.

Each of these arguments is an int, never a bool, inside its call's range.
A float, a bool, None or an out-of-range value raises the error class the
call uses for bad arguments: it does not escape as a bare TypeError, and
True is not read as 1.
"""

from __future__ import annotations

import pytest

from nodeloc.cli import main
from nodeloc.conditions import cap_verdict, csp_verdict, up_verdict
from nodeloc.document import TopologyDocument, emit_topology
from nodeloc.ensemble import cover_profile, min_cover_size
from nodeloc.errors import InputError, UsageError
from nodeloc.graph import Topology, disjoint_paths
from nodeloc.oracle import (
    CAP,
    k_identifiable,
    localize,
    simulate_measurements,
)
from nodeloc.report import analyze

from bruteforce import is_k_connected

STAR = Topology(4, [(0, 1), (0, 2), (0, 3)], [0])
# m1-v1-m2 plus v1-v2-m2, with both paths through v1
UP_DOC = TopologyDocument(
    ("m1", "v1", "v2", "m2"),
    frozenset({0, 3}),
    frozenset({(0, 1), (1, 3), (1, 2), (2, 3)}),
    paths=((0, 1, 3), (0, 1, 2, 3)),
)
NOT_INTS = [1.5, True, None, "2"]


@pytest.mark.parametrize("k", NOT_INTS + [-1, 4])
def test_failure_budget(k):
    for call in (
        lambda: cap_verdict(STAR, k),
        lambda: csp_verdict(STAR, k),
        lambda: k_identifiable(STAR, CAP, k),
    ):
        with pytest.raises(InputError, match="must be an integer"):
            call()


@pytest.mark.parametrize("k_max", NOT_INTS + [-1])
def test_localize_k_max(k_max):
    outcomes = simulate_measurements(STAR, CAP, {1})
    with pytest.raises(InputError, match="k_max must be an integer"):
        localize(STAR, CAP, outcomes, k_max)
    # past sigma the budget is only capped
    assert localize(STAR, CAP, outcomes, 9) == [frozenset({1})]


@pytest.mark.parametrize("k", NOT_INTS + [-1, 3])
def test_up_verdict(k):
    profile = cover_profile(UP_DOC.to_ensemble())
    with pytest.raises(InputError, match="k must be an integer in 0..2"):
        up_verdict(profile, k)


@pytest.mark.parametrize("k", NOT_INTS + [-1])
def test_is_k_connected(k):
    # the reference predicate in bruteforce keeps the package's rule for k
    with pytest.raises(InputError, match="k must be an integer"):
        is_k_connected(STAR, k)


@pytest.mark.parametrize("guard", NOT_INTS + [-1])
def test_brute_force_guard(guard):
    outcomes = simulate_measurements(STAR, CAP, {1})
    for call in (
        lambda: k_identifiable(STAR, CAP, 1, guard=guard),
        lambda: localize(STAR, CAP, outcomes, 1, guard=guard),
        lambda: analyze(UP_DOC, oracle=True, guard=guard),
        lambda: analyze(UP_DOC, guard=guard),
    ):
        with pytest.raises(InputError, match="guard must be an integer"):
            call()


@pytest.mark.parametrize("limit", [1.5, True, "2", -1])
def test_disjoint_path_limit(limit):
    with pytest.raises(InputError, match="limit must be an integer"):
        disjoint_paths(STAR, 0, {1, 2, 3}, limit=limit)
    assert len(disjoint_paths(STAR, 0, {1, 2, 3}, limit=None)) == 3


@pytest.mark.parametrize("max_candidates", NOT_INTS + [-1])
def test_cover_candidate_guard(max_candidates):
    ens = UP_DOC.to_ensemble()
    for v in (1, 2):
        with pytest.raises(InputError, match="max_candidates must be an integer"):
            min_cover_size(ens, v, max_candidates=max_candidates)
    with pytest.raises(InputError, match="max_candidates must be an integer"):
        cover_profile(ens, max_candidates=max_candidates)


@pytest.mark.parametrize(
    "k_range", [(0.5, 1), (True, 1), (0, None), (-1, 1), (2, 1), (0, 3), (0, 1, 2), 5, [0]]
)
def test_analyze_k_range(k_range):
    with pytest.raises(UsageError, match="k range"):
        analyze(UP_DOC, k_range=k_range)


def test_cli_negative_guard_exits_2(tmp_path, capsys):
    topo = tmp_path / "up.json"
    topo.write_text(emit_topology(UP_DOC), encoding="utf-8")
    for argv in (["oracle", topo], ["analyze", topo, "--oracle"]):
        assert main(["--guard", "-1", *map(str, argv)]) == 2
        assert "guard must be an integer >= 0, got -1" in capsys.readouterr().err


def test_cli_analyze_checks_guard_without_oracle(tmp_path, capsys):
    topo = tmp_path / "up.json"
    topo.write_text(emit_topology(UP_DOC), encoding="utf-8")
    assert main(["analyze", str(topo), "--guard", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "guard must be an integer >= 0, got -1" in captured.err
