"""Correctness checks for every workload, computed apart from nodeloc.

Nothing here calls nodeloc or compares against a saved copy of its output.
The references are:

* connectivities from ``networkx.node_connectivity`` on auxiliary graphs
  built here (monitors deleted, one virtual monitor on the boundary, the
  boundary joined into a clique), fed into the paper's formulas;
* a reachability model: networkx components for CAP, local node
  connectivity of at least 2 to a sink joined to every monitor for CSP,
  path intersection for UP;
* brute-force minimum covers over bitmasks for UP;
* the observation model in ``observe.py`` for the localize streams;
* properties every answer must have (monotone verdict tables, sufficient
  implies necessary, one-unit-wide bounds, agreement between ``--k`` and
  the maximum).

``check`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import networkx as nx
from networkx.algorithms.connectivity import build_auxiliary_node_connectivity, local_node_connectivity
from networkx.algorithms.flow import build_residual_network

from observe import observe
from workloads import K_MAX

#: Networks up to this many non-monitors also get their maximum
#: identifiability recomputed outright with the reference model.
OUTRIGHT_SIGMA = 9

_SINK = "sink"
_VIRTUAL = "virtual"


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def nx_graph(net) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(net.names)))
    g.add_edges_from(net.edges)
    return g


def aux_graph(g: nx.Graph, monitors, merged) -> nx.Graph:
    """Monitors deleted; a virtual monitor joined to the boundary of ``merged``."""
    aux = g.subgraph(v for v in g if v not in monitors).copy()
    boundary = sorted({w for m in merged for w in g[m] if w not in monitors})
    aux.add_node(_VIRTUAL)
    aux.add_edges_from((b, _VIRTUAL) for b in boundary)
    aux.add_edges_from(itertools.combinations(boundary, 2))
    return aux


class Conditions:
    """The paper's per-k conditions and bounds, from networkx connectivities."""

    def __init__(self, net) -> None:
        g = nx_graph(net)
        mons = net.monitors
        self.sigma = sigma = len(net.names) - len(mons)
        self.merged = nx.node_connectivity(aux_graph(g, mons, mons))
        self.loo = min(nx.node_connectivity(aux_graph(g, mons, mons - {m})) for m in mons)
        monitor_degree = {v: sum(w in mons for w in g[v]) for v in net.non_monitors}
        self.all_adjacent = all(d >= 1 for d in monitor_degree.values())
        weak = [v for v, d in monitor_degree.items() if d < 2]
        self.full_exact = not weak
        self.near_full_exact = self.full_exact or (
            len(weak) == 1
            and monitor_degree[weak[0]] == 1
            and set(net.non_monitors) - {weak[0]} <= set(g[weak[0]])
        )

    def verdict(self, kind: str, k: int) -> tuple[bool, bool]:
        """(sufficient, necessary) at failure-set size k."""
        s, d = self.sigma, self.merged
        if k == 0:
            return True, True
        if kind == "CAP":
            if k == s:
                return self.all_adjacent, self.all_adjacent
            return s > k and d >= k + 1, s + 1 > k and d >= k
        if k == s:
            return self.full_exact, self.full_exact
        if k == s - 1:
            return self.near_full_exact, self.near_full_exact
        nodes = s + 1
        sufficient = nodes > k + 2 and d >= k + 2 and nodes > k + 1 and self.loo >= k + 1
        necessary = nodes > k + 1 and d >= k + 1 and nodes > k and self.loo >= k
        return sufficient, necessary

    def bounds(self, kind: str) -> tuple[int, int]:
        s, d = self.sigma, self.merged
        if kind == "CAP":
            if d <= s - 1:
                return max(d - 1, 0), d
            return (s, s) if self.all_adjacent else (0, s)
        upper = min(self.loo, d - 1)
        if upper <= s - 2:
            return max(min(self.loo - 1, d - 2), 0), max(upper, 0)
        if self.full_exact:
            return s, s
        if s >= 2 and self.near_full_exact:
            return s - 1, s - 1
        table = [self.verdict(kind, k) for k in range(s + 1)]
        lower = max(k for k, (suff, _) in enumerate(table) if suff)
        refuted = [k for k, (_, nec) in enumerate(table) if not nec]
        return lower, refuted[0] - 1 if refuted else s


def nx_observe(kind: str, g: nx.Graph, net, path_sets, failed) -> tuple[bool, ...]:
    """The reference reachability model (see the module docstring)."""
    if kind == "UP":
        return tuple(not (p & failed) for p in path_sets)
    alive = g.subgraph(v for v in g if v not in failed)
    if kind == "CAP":
        up = set()
        for component in nx.connected_components(alive):
            if component & net.monitors:
                up |= component
        return tuple(v in up for v in net.non_monitors)
    h = nx.Graph(alive)
    h.add_edges_from((_SINK, m) for m in net.monitors)
    aux = build_auxiliary_node_connectivity(h)
    residual = build_residual_network(aux, "capacity")
    return tuple(
        v not in failed
        and local_node_connectivity(h, v, _SINK, auxiliary=aux, residual=residual, cutoff=2) >= 2
        for v in net.non_monitors
    )


def failure_sets(pool, k: int):
    for size in range(k + 1):
        for combo in itertools.combinations(pool, size):
            yield frozenset(combo)


def nx_max_identifiability(kind: str, net) -> int:
    g, path_sets = nx_graph(net), [frozenset(p) for p in net.paths or ()]
    seen = set()
    for failed in failure_sets(net.non_monitors, len(net.non_monitors)):
        signature = nx_observe(kind, g, net, path_sets, failed)
        if signature in seen:
            return len(failed) - 1
        seen.add(signature)
    return len(net.non_monitors)


def min_cover_sizes(net) -> dict[int, float]:
    """Per non-monitor, fewest other non-monitors whose paths cover its paths."""
    through = {v: 0 for v in net.non_monitors}
    for i, path in enumerate(net.paths):
        for v in set(path) - net.monitors:
            through[v] |= 1 << i
    sizes = {}
    for v, target in through.items():
        if not target:
            sizes[v] = 0
            continue
        candidates = [through[w] & target for w in net.non_monitors if w != v and through[w] & target]
        reach = 0
        for c in candidates:
            reach |= c
        if reach != target:
            sizes[v] = math.inf
            continue
        for r in itertools.count(1):
            if any(_union(combo) == target for combo in itertools.combinations(candidates, r)):
                sizes[v] = r
                break
    return sizes


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


def up_bounds(sizes: dict[int, float]) -> tuple[int, int]:
    sigma, delta = len(sizes), min(sizes.values())
    if math.isinf(delta):
        return sigma, sigma
    return max(int(delta) - 1, 0), min(int(delta), sigma)


def canonical_document(net) -> str:
    """The canonical topology JSON, written here from the generator's data."""
    payload = {
        "version": 1,
        "nodes": [{"name": name, "monitor": i in net.monitors} for i, name in enumerate(net.names)],
        "edges": [[net.names[u], net.names[v]] for u, v in sorted(net.edges)],
    }
    if net.paths is not None:
        payload["paths"] = [[net.names[v] for v in p] for p in net.paths]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Per-output checks
# ---------------------------------------------------------------------------


def document_problems(report: dict, net) -> list[str]:
    """The report must describe exactly the generated document."""
    problems = []
    if report["nodes"] != net.names:
        problems.append("node list differs from the generated document")
    if report["monitors"] != [net.names[m] for m in sorted(net.monitors)]:
        problems.append("monitor list differs from the generated document")
    if report["sigma"] != len(net.non_monitors):
        problems.append(f"sigma {report['sigma']} != {len(net.non_monitors)}")
    digest = hashlib.sha256(canonical_document(net).encode("utf-8")).hexdigest()
    if report["provenance"]["input_sha256"] != digest:
        problems.append("input hash differs: the parsed document is not the generated one")
    return problems


def verdict_problems(kind: str, entry: dict, expected) -> list[str]:
    """Table properties, then flags and bounds against ``expected``.

    ``expected`` maps k to (sufficient, necessary) and holds "bounds".
    """
    problems = []
    dead = False
    for row in entry["verdicts"]:
        k, suff, nec = row["k"], row["sufficient"], row["necessary"]
        value = "identifiable" if suff else "not-identifiable" if not nec else "indeterminate"
        if suff and not nec:
            problems.append(f"{kind} k={k}: sufficient without necessary")
        if row["value"] != value:
            problems.append(f"{kind} k={k}: value {row['value']} does not match its flags")
        if dead and row["value"] != "not-identifiable":
            problems.append(f"{kind} k={k}: table is not monotone")
        dead = dead or row["value"] == "not-identifiable"
        if (suff, nec) != expected[k]:
            problems.append(f"{kind} k={k}: flags {(suff, nec)} != formula {expected[k]}")
    bounds = entry["bounds"]
    got = (bounds["lower"], bounds["upper"])
    if got != expected["bounds"]:
        problems.append(f"{kind} bounds {got} != formula {expected['bounds']}")
    if not 0 <= got[1] - got[0] <= 1:
        problems.append(f"{kind} bounds {got} are more than one unit wide")
    return problems


def check_analyze_flow(plan, results) -> list[str]:
    problems = []
    for op, out in zip(plan.ops, results):
        if out is None:
            continue
        net = plan.networks[op.info["net"]]
        report = json.loads(out.read_text(encoding="utf-8"))
        found = document_problems(report, net)
        ref = Conditions(net)
        for kind in ("CAP", "CSP"):
            expected = {k: ref.verdict(kind, k) for k in range(ref.sigma + 1)}
            expected["bounds"] = ref.bounds(kind)
            found += verdict_problems(kind, report["models"][kind], expected)
        problems += [f"{op.label} op {op.info['net']}: {p}" for p in found]
    return problems


def check_oracle_sweep(plan, results) -> list[str]:
    problems = []
    maxima = {}
    for index, (op, out) in enumerate(zip(plan.ops, results)):
        if out is None:
            continue
        kind, net = op.info["kind"], plan.networks[op.info["net"]]
        entry = json.loads(out.read_text(encoding="utf-8"))[kind]
        where = f"{op.label} net {op.info['net']}"
        if "k" not in op.info:
            value = maxima[index] = entry["max_identifiability"]
            if kind == "UP":
                lo, hi = up_bounds(min_cover_sizes(net))
            else:
                lo, hi = Conditions(net).bounds(kind)
            if not lo <= value <= hi:
                problems.append(f"{where}: maximum {value} outside the condition bounds [{lo}, {hi}]")
            if len(net.non_monitors) <= OUTRIGHT_SIGMA:
                ref = nx_max_identifiability(kind, net)
                if value != ref:
                    problems.append(f"{where}: maximum {value} != reference {ref}")
            continue
        k, maximum = op.info["k"], maxima.get(op.info["max_op"])
        if entry["k"] != k:
            problems.append(f"{where}: answered k={entry['k']}, asked {k}")
        if maximum is not None and entry["identifiable"] != (k <= maximum):
            problems.append(f"{where}: --k {k} says {entry['identifiable']} but the maximum is {maximum}")
        pair = entry.get("indistinguishable_pair")
        if entry["identifiable"] != (pair is None):
            problems.append(f"{where}: a counterexample must come exactly with a no")
        if pair is not None:
            problems += [f"{where}: {p}" for p in pair_problems(kind, net, pair, k)]
    return problems


def pair_problems(kind: str, net, pair, k: int) -> list[str]:
    ids = {name: i for i, name in enumerate(net.names)}
    first, second = (frozenset(ids[name] for name in side) for side in pair)
    if first == second:
        return ["the counterexample sets are equal"]
    if max(len(first), len(second)) > k or (first | second) & net.monitors:
        return ["the counterexample is not two non-monitor sets of size at most k"]
    g, path_sets = nx_graph(net), [frozenset(p) for p in net.paths]
    if nx_observe(kind, g, net, path_sets, first) != nx_observe(kind, g, net, path_sets, second):
        return [f"the counterexample {pair} is distinguishable under the reference model"]
    return []


def check_localize_stream(plan, results) -> list[str]:
    """Each answer must equal every set of size <= K_MAX that explains the map."""
    problems = []
    tables, nx_cache = {}, {}
    for op, answer in zip(plan.ops, results):
        if answer is None:
            continue
        n, kind, truth = op.info["net"], op.info["kind"], op.info["truth"]
        net = plan.networks[n]
        path_sets = [frozenset(p) for p in net.paths]
        if (n, kind) not in tables:
            table = {}
            for failed in failure_sets(net.non_monitors, K_MAX):
                sig = observe(kind, net.adj, net.monitors, net.non_monitors, path_sets, failed)
                table.setdefault(sig, []).append(failed)
            tables[n, kind] = table
        seen = observe(kind, net.adj, net.monitors, net.non_monitors, path_sets, truth)
        expected = sorted(tables[n, kind][seen], key=lambda f: (len(f), sorted(f)))
        where = f"{kind} net {n} truth {sorted(truth)}"
        if truth not in answer:
            problems.append(f"{where}: the answer misses the true failure set")
        if list(answer) != expected:
            problems.append(f"{where}: answer {[sorted(f) for f in answer]} != "
                            f"{[sorted(f) for f in expected]}")
        for candidate in answer:
            key = (n, kind, candidate)
            if key not in nx_cache:
                nx_cache[key] = nx_observe(kind, nx_graph(net), net, path_sets, candidate)
            if nx_cache[key] != seen:
                problems.append(f"{where}: candidate {sorted(candidate)} does not reproduce "
                                "the observation under the reference model")
    return problems


def check_ingest_up(plan, results) -> list[str]:
    problems = []
    for op, out in zip(plan.ops, results):
        if out is None:
            continue
        net = plan.networks[op.info["net"]]
        report = json.loads(out.read_text(encoding="utf-8"))
        found = document_problems(report, net)
        entry = report["models"]["UP"]
        sizes = min_cover_sizes(net)
        profile = entry["cover_profile"]
        want = {net.names[v]: "inf" if math.isinf(s) else s for v, s in sizes.items()}
        if profile["sizes"] != want:
            found.append("cover sizes differ from the brute-force minimum covers")
        delta = min(sizes.values())
        if profile["min_cover"] != ("inf" if math.isinf(delta) else delta):
            found.append(f"min cover {profile['min_cover']} != {delta}")
        visited = {v for p in net.paths for v in p}
        unobserved = [net.names[v] for v in net.non_monitors if v not in visited]
        if profile["unobserved"] != unobserved:
            found.append(f"unobserved {profile['unobserved']} != {unobserved}")
        expected = {k: (all(s > k for s in sizes.values()), all(s > k - 1 for s in sizes.values()))
                    for k in range(1, len(sizes) + 1)}
        expected[0] = (True, True)
        expected["bounds"] = up_bounds(sizes)
        found += verdict_problems("UP", entry, expected)
        problems += [f"{op.label} doc {op.info['net']}: {p}" for p in found]
    return problems


CHECKS = {
    "analyze-flow": check_analyze_flow,
    "oracle-sweep": check_oracle_sweep,
    "localize-stream": check_localize_stream,
    "ingest-up": check_ingest_up,
}


def check(workload: str, plan, results) -> list[str]:
    return CHECKS[workload](plan, results)
