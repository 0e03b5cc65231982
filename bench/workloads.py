"""Seeded inputs and op lists for the four nodeloc workloads.

Every builder takes the freshly imported ``nodeloc`` package, the run seed,
the number of rounds and a work directory.  It produces the run's inputs
with nodeloc's generators and ``emit_topology``, writes them to the work
directory, and returns a :class:`Plan`: the fixed list of ops the timed
phase runs, plus what the checks need to know about each input.  A round is
the same composition of ops every time; only the seeded instances differ, so
the op mix and the failed share do not depend on the seed.

Work that only the benchmark needs (the observation model behind the
``localize-stream`` outcome maps) runs inside ``clock.paused()`` so that it
is not counted as set-up time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from observe import observe

#: Guard passed to ``nodeloc oracle``; the largest sigma any workload uses.
ORACLE_GUARD = 13

#: Failure budget of every ``localize-stream`` call.
K_MAX = 3


@dataclass
class Network:
    """One generated input, in the form the checks read it."""

    names: list[str]
    monitors: frozenset[int]
    edges: list[tuple[int, int]]
    paths: list[tuple[int, ...]] | None = None

    @cached_property
    def adj(self) -> list[set[int]]:
        out = [set() for _ in self.names]
        for u, v in self.edges:
            out[u].add(v)
            out[v].add(u)
        return out

    @property
    def non_monitors(self) -> list[int]:
        return [v for v in range(len(self.names)) if v not in self.monitors]


@dataclass
class Op:
    """One timed call.  CLI ops carry ``argv``; session ops carry ``text``."""

    label: str
    argv: list[str] | None = None
    out: Path | None = None
    text: str | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list[Op]
    networks: list[Network]
    session: list[str] = field(default_factory=list)  # localize-stream documents


def _network(doc) -> Network:
    return Network(
        names=list(doc.names),
        monitors=frozenset(doc.monitors),
        edges=sorted(doc.edges),
        paths=None if doc.paths is None else [tuple(p) for p in doc.paths],
    )


def _connected(doc) -> bool:
    adj = _network(doc).adj
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(doc.names)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# analyze-flow
# ---------------------------------------------------------------------------

#: One round: (family, size, monitors).  ER sizes are node counts, BA sizes
#: are (nodes, attach), grids are (width, height).  The monitor count is
#: fixed per slot because it sets how many leave-one-out graphs there are.
FLOW_ROUND = (
    ("er", 60, 3),
    ("ba", (70, 2), 4),
    ("grid", (8, 7), 5),
)


def build_analyze_flow(nl, seed: int, rounds: int, work: Path, clock) -> Plan:
    rng = random.Random(f"analyze-flow:{seed}")
    ops, networks = [], []
    for i, (family, size, monitors) in enumerate(FLOW_ROUND * rounds):
        if family == "er":
            # Condition on connectivity so no op degenerates to a 0 answer.
            while True:
                doc = nl.erdos_renyi(size, 0.1, seed=rng.randrange(1 << 30), monitors=monitors)
                if _connected(doc):
                    break
        elif family == "ba":
            doc = nl.barabasi_albert(size[0], size[1], seed=rng.randrange(1 << 30), monitors=monitors)
        else:
            doc = nl.grid(size[0], size[1], seed=rng.randrange(1 << 30), monitors=monitors)
        path = _write(work / f"flow{i}.json", nl.emit_topology(doc))
        out = work / f"flow{i}.report.json"
        ops.append(Op(family, ["analyze", str(path), "--models", "CAP,CSP", "--out", str(out)], out,
                      info={"net": i}))
        networks.append(_network(doc))
    return Plan(ops, networks)


# ---------------------------------------------------------------------------
# oracle-sweep and localize-stream share dense networks with a UP path set
# ---------------------------------------------------------------------------


def random_probe_paths(adj, monitors, rng: random.Random, count: int) -> list[tuple[int, ...]]:
    """A one-hop path per non-monitor with two monitor neighbours, then
    ``count`` monitor-to-monitor walks through one to four non-monitors."""
    monitor_list = sorted(monitors)
    paths = []
    for v in range(len(adj)):
        ends = [m for m in sorted(adj[v]) if m in monitors]
        if v not in monitors and len(ends) >= 2:
            a, b = rng.sample(ends, 2)
            paths.append((a, v, b))
    target = len(paths) + count
    for _ in range(200 * count):
        if len(paths) == target:
            break
        start = rng.choice(monitor_list)
        inner = [w for w in sorted(adj[start]) if w not in monitors]
        if not inner:
            continue
        walk = [start, rng.choice(inner)]
        for _ in range(rng.randint(0, 3)):
            step = [w for w in sorted(adj[walk[-1]]) if w not in monitors and w not in walk]
            if not step:
                break
            walk.append(rng.choice(step))
        ends = [m for m in sorted(adj[walk[-1]]) if m in monitors]
        if ends:
            paths.append(tuple(walk) + (rng.choice(ends),))
    return paths


def _dense_network(nl, rng: random.Random, sigma: int, monitors: int, p: float):
    doc = nl.erdos_renyi(sigma + monitors, p, seed=rng.randrange(1 << 30), monitors=monitors)
    net = _network(doc)
    paths = random_probe_paths(net.adj, net.monitors, rng, count=3 * sigma)
    return doc.with_paths(paths)


def _permuted(doc, rng: random.Random):
    """The same network with its nodes listed in another order."""
    order = list(range(len(doc.names)))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    return type(doc)(
        names=tuple(doc.names[old] for old in order),
        monitors=frozenset(new[m] for m in doc.monitors),
        edges=frozenset(tuple(sorted((new[u], new[v]))) for u, v in doc.edges),
        paths=tuple(tuple(new[v] for v in p) for p in doc.paths),
    )


#: One oracle-sweep round: (sigma, monitors, edge probability, k).  With ten
#: monitors at p=0.6 nearly every non-monitor sees two monitors, so every
#: model is identifiable up to sigma and both the maximum and --k sigma-1
#: enumerate almost every failure set: the cost is set by sigma, not by
#: where the first collision happens to fall.  The two sparse networks
#: collide early, so their --k answers come with counterexamples.  Sorted by
#: latency a round is 12 sparse ops, then the 6 UP, 6 CAP and 6 CSP ops of
#: the deep networks; the deep networks share one sigma so that the median
#: op is always a UP op of the same size, not a gap between two kinds.
SWEEP_ROUND = (
    (10, 10, 0.6, 9),
    (10, 10, 0.6, 9),
    (10, 10, 0.6, 9),
    (12, 3, 0.3, 3),
    (9, 3, 0.3, 3),
)
MODELS = ("CAP", "CSP", "UP")


def build_oracle_sweep(nl, seed: int, rounds: int, work: Path, clock) -> Plan:
    """Each network gets the maximum per model; a relabelled copy gets --k.

    The copy lists the nodes in another order, so nodeloc sees a topology
    it has not seen and no op can reuse another op's results, while the
    --k answer must still agree with the maximum found on the original.
    """
    rng = random.Random(f"oracle-sweep:{seed}")
    ops, networks = [], []
    for i, (sigma, monitors, p, k) in enumerate(SWEEP_ROUND * rounds):
        doc = _dense_network(nl, rng, sigma, monitors, p)
        copy = _permuted(doc, rng)
        original = _write(work / f"sweep{i}.json", nl.emit_topology(doc))
        relabelled = _write(work / f"sweep{i}.perm.json", nl.emit_topology(copy))
        networks += [_network(doc), _network(copy)]
        for kind in MODELS:
            out = work / f"sweep{i}.{kind}.max.json"
            ops.append(Op(f"{kind}-max", ["oracle", str(original), "--guard", str(ORACLE_GUARD),
                                          "--models", kind, "--out", str(out)], out,
                          info={"net": 2 * i, "kind": kind}))
        for kind in MODELS:
            out = work / f"sweep{i}.{kind}.k.json"
            ops.append(Op(f"{kind}-k", ["oracle", str(relabelled), "--guard", str(ORACLE_GUARD),
                                        "--models", kind, "--k", str(k), "--out", str(out)], out,
                          info={"net": 2 * i + 1, "kind": kind, "k": k, "max_op": len(ops) - 3}))
    return Plan(ops, networks)


# ---------------------------------------------------------------------------
# localize-stream
# ---------------------------------------------------------------------------

#: (sigma, monitors, edge probability) of the networks the session keeps.
SESSION_NETWORKS = ((11, 6, 0.5), (12, 6, 0.5), (13, 6, 0.5))

#: Outcome maps per (network, model) stream and round.
MAPS_PER_ROUND = 4


def _random_failure(rng: random.Random, pool: list[int]) -> frozenset[int]:
    return frozenset(rng.sample(pool, rng.randint(0, K_MAX)))


def build_localize_stream(nl, seed: int, rounds: int, work: Path, clock) -> Plan:
    rng = random.Random(f"localize-stream:{seed}")
    docs = [_dense_network(nl, rng, *spec) for spec in SESSION_NETWORKS]
    networks = [_network(doc) for doc in docs]
    session = [nl.emit_topology(doc) for doc in docs]
    streams = [(n, kind) for n in range(len(docs)) for kind in MODELS]
    ops = []
    for _ in range(rounds * MAPS_PER_ROUND):
        for n, kind in streams:
            net = networks[n]
            truth = _random_failure(rng, net.non_monitors)
            with clock.paused():
                seen = observe(kind, net.adj, net.monitors, net.non_monitors,
                               [frozenset(p) for p in net.paths], truth)
                keys = list(range(len(net.paths))) if kind == "UP" else net.non_monitors
                states = dict(zip(keys, seen))
            ops.append(Op(kind, text=nl.emit_outcomes(kind, states, docs[n]),
                          info={"net": n, "kind": kind, "truth": truth}))
    return Plan(ops, networks, session=session)


# ---------------------------------------------------------------------------
# ingest-up
# ---------------------------------------------------------------------------

#: One round: (paths carried in the document, core non-monitors, monitor
#: hosts, host-to-host paths).  Carried documents take the paths inline;
#: the others import them with --paths.  Sizes are fixed per slot because
#: parsing is quadratic in the host count.  At most 19 core nodes plus one
#: spare keeps every node's candidate covers within the exact-cover guard
#: of 20.  The 2:1 mix keeps the median op inside one kind.
INGEST_ROUND = (
    (True, 16, 2000, 2500),
    (False, 18, 2500, 2500),
    (True, 19, 3000, 2000),
)


def _distances(adj, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = [source]
    for x in queue:
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _ingest_document(nl, rng: random.Random, core_n: int, hosts: int, path_count: int):
    """Thousands of monitor hosts around a core of at most 20 non-monitors."""
    core = nl.barabasi_albert(core_n, 2, seed=rng.randrange(1 << 30), monitors=1)
    core_adj = [sorted(a) for a in _network(core).adj]
    dist = [_distances(core_adj, w) for w in range(core_n)]
    edges = set(core.edges)
    spare = rng.random() < 0.3
    if spare:
        # A pendant core node with no hosts lies on no shortest route, so it
        # stays unobserved.
        edges.add((rng.randrange(core_n), core_n))
        core_n += 1
    attach = [rng.randrange(core_n - spare) for _ in range(hosts)]
    edges |= {(attach[h], core_n + h) for h in range(hosts)}
    paths = []
    while len(paths) < path_count:
        a, b = rng.sample(range(hosts), 2)
        if attach[a] == attach[b]:
            continue
        # A shortest route through the core, ties broken at random.
        target, route = attach[b], [attach[a]]
        while route[-1] != target:
            here = route[-1]
            route.append(rng.choice([y for y in core_adj[here]
                                     if dist[target].get(y) == dist[target][here] - 1]))
        paths.append((core_n + a, *route, core_n + b))
    labels = [f"c{v}" for v in range(core_n)] + [f"h{h}" for h in range(hosts)]
    doc = nl.TopologyDocument(
        names=tuple(labels),
        monitors=frozenset(range(core_n, core_n + hosts)),
        edges=frozenset(edges),
        paths=tuple(paths),
    )
    # Shuffle the node order so host names sit anywhere in the document.
    return _permuted(doc, rng)


def build_ingest_up(nl, seed: int, rounds: int, work: Path, clock) -> Plan:
    rng = random.Random(f"ingest-up:{seed}")
    ops, networks = [], []
    for i, (carried, *sizes) in enumerate(INGEST_ROUND * rounds):
        doc = _ingest_document(nl, rng, *sizes)
        out = work / f"ingest{i}.report.json"
        if carried:
            path = _write(work / f"ingest{i}.json", nl.emit_topology(doc))
            argv = ["analyze", str(path), "--models", "UP", "--out", str(out)]
        else:
            path = _write(work / f"ingest{i}.json", nl.emit_topology(nl.TopologyDocument(
                doc.names, doc.monitors, doc.edges)))
            lines = "".join(" ".join(doc.names[v] for v in p) + "\n" for p in doc.paths)
            text = _write(work / f"ingest{i}.paths.txt", "# host-to-host paths\n" + lines)
            argv = ["analyze", str(path), "--paths", str(text), "--models", "UP", "--out", str(out)]
        ops.append(Op("carried" if carried else "imported", argv, out, info={"net": i}))
        networks.append(_network(doc))
    return Plan(ops, networks)


BUILDERS = {
    "analyze-flow": build_analyze_flow,
    "oracle-sweep": build_oracle_sweep,
    "localize-stream": build_localize_stream,
    "ingest-up": build_ingest_up,
}

#: Rounds per second of --seconds, measured on the reference host at the
#: parent commit, so that the timed phase takes about --seconds there.  The
#: op list is then fixed by (workload, seed, seconds): a faster nodeloc
#: finishes the same list sooner.
ROUNDS_PER_SECOND = {
    "analyze-flow": 1.0,
    "oracle-sweep": 0.2,
    "localize-stream": 4.5,
    "ingest-up": 1.0,
}


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))
