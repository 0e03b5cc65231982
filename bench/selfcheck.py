"""Quick self-check of the benchmark on tiny inputs.

Run from the root of a checkout (a few seconds):

    python3 bench/selfcheck.py

It first compares the two observation models the checks use (``observe.py``
and the networkx model in ``checks.py``) on small random graphs.  Then, for
each workload, it runs nodeloc on shrunken inputs, requires the checks to
accept the real outputs, and corrupts the outputs one way at a time,
requiring the checks to reject every corruption.  Exit code 0 means every
check did both.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import checks
import run
import workloads
from observe import observe

#: Module constants that shrink each workload's inputs.
TINY = {
    "analyze-flow": {"FLOW_ROUND": (("er", 14, 3), ("ba", (16, 2), 4), ("grid", (4, 4), 3))},
    "oracle-sweep": {"SWEEP_ROUND": ((6, 5, 0.6, 2), (7, 3, 0.3, 2))},
    "localize-stream": {"SESSION_NETWORKS": ((5, 3, 0.5), (6, 2, 0.4)), "MAPS_PER_ROUND": 3},
    "ingest-up": {"INGEST_ROUND": ((True, 5, 20, 30), (False, 6, 25, 30), (True, 7, 30, 40))},
}


@contextmanager
def overridden(module, values: dict):
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def compare_observation_models(rng: random.Random) -> list[str]:
    problems = []
    for trial in range(30):
        n, m = rng.randint(5, 9), rng.randint(1, 3)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        net = workloads.Network([f"v{i}" for i in range(n)], frozenset(rng.sample(range(n), m)), edges)
        g = checks.nx_graph(net)
        for failed in checks.failure_sets(net.non_monitors, 2):
            for kind in ("CAP", "CSP"):
                mine = observe(kind, net.adj, net.monitors, net.non_monitors, [], failed)
                ref = checks.nx_observe(kind, g, net, [], failed)
                if mine != ref:
                    problems.append(f"trial {trial} {kind} {sorted(failed)}: {mine} != {ref}")
    return problems


# Each corruption edits one output in place and returns a function that undoes it.


def edit_json(path: Path, edit):
    original = path.read_text(encoding="utf-8")
    data = json.loads(original)
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")
    return lambda: path.write_text(original, encoding="utf-8")


def first(plan, results, **want):
    for op, out in zip(plan.ops, results):
        if out is not None and all(op.info.get(k) == v for k, v in want.items()):
            return op, out
    raise LookupError(f"no op with {want}")


def flip_flag(plan, results):
    def edit(report):
        row = report["models"]["CSP"]["verdicts"][1]
        row["sufficient"] = not row["sufficient"]
    return edit_json(results[0], edit)


def widen_bounds(plan, results):
    return edit_json(results[1], lambda r: r["models"]["CAP"]["bounds"].update(upper=r["sigma"]))


def break_monotone(plan, results):
    def edit(report):
        rows = report["models"]["CAP"]["verdicts"]
        rows[-1].update(value="identifiable", sufficient=True, necessary=True)
    return edit_json(results[2], edit)


def rename_node(plan, results):
    return edit_json(results[0], lambda r: r["nodes"].__setitem__(0, "renamed"))


def wrong_maximum(plan, results):
    _, out = first(plan, results, kind="CSP", net=0)
    return edit_json(out, lambda r: r["CSP"].update(max_identifiability=r["CSP"]["max_identifiability"] - 1))


def flip_k_answer(plan, results):
    _, out = first(plan, results, kind="CAP", net=1)
    return edit_json(out, lambda r: r["CAP"].update(identifiable=not r["CAP"]["identifiable"]))


def distinguishable_pair(plan, results):
    for op, out in zip(plan.ops, results):
        entry = json.loads(out.read_text(encoding="utf-8"))[op.info["kind"]]
        if entry.get("indistinguishable_pair"):
            break
    else:
        raise LookupError("no counterexample to corrupt")
    net = plan.networks[op.info["net"]]
    paths = [frozenset(p) for p in net.paths]
    empty = observe(op.info["kind"], net.adj, net.monitors, net.non_monitors, paths, frozenset())
    for v in net.non_monitors:
        if observe(op.info["kind"], net.adj, net.monitors, net.non_monitors, paths, frozenset({v})) != empty:
            return edit_json(out, lambda r: r[op.info["kind"]].update(
                indistinguishable_pair=[[], [net.names[v]]]))
    raise LookupError("no distinguishable single failure")


def _replace_answer(results, index, answer):
    original = results[index]
    results[index] = answer
    return lambda: results.__setitem__(index, original)


def drop_truth(plan, results):
    index = next(i for i, a in enumerate(results) if a and plan.ops[i].info["truth"])
    truth = plan.ops[index].info["truth"]
    return _replace_answer(results, index, [f for f in results[index] if f != truth])


def extra_candidate(plan, results):
    index = next(i for i, a in enumerate(results) if a)
    everything = frozenset(plan.networks[plan.ops[index].info["net"]].non_monitors)
    return _replace_answer(results, index, results[index] + [everything])


def wrong_cover(plan, results):
    def edit(report):
        sizes = report["models"]["UP"]["cover_profile"]["sizes"]
        name = next(iter(sizes))
        sizes[name] = sizes[name] + 1 if sizes[name] != "inf" else 1
    return edit_json(results[0], edit)


def wrong_unobserved(plan, results):
    return edit_json(results[1], lambda r: r["models"]["UP"]["cover_profile"]["unobserved"].append("h0"))


def shifted_up_bounds(plan, results):
    def edit(report):
        bounds = report["models"]["UP"]["bounds"]
        bounds.update(lower=bounds["lower"] + 1, upper=bounds["upper"] + 1)
    return edit_json(results[2], edit)


def other_input(plan, results):
    return edit_json(results[0], lambda r: r["provenance"].update(input_sha256="0" * 64))


CORRUPTIONS = {
    "analyze-flow": [flip_flag, widen_bounds, break_monotone, rename_node],
    "oracle-sweep": [wrong_maximum, flip_k_answer, distinguishable_pair],
    "localize-stream": [drop_truth, extra_candidate],
    "ingest-up": [wrong_cover, wrong_unobserved, shifted_up_bounds, other_input],
}


def main() -> int:
    src = run.ROOT / "src"
    if not (src / "nodeloc" / "__init__.py").is_file():
        print(f"error: no nodeloc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    failures = compare_observation_models(random.Random(0))
    print(f"observation models agree: {not failures}")
    work = run.OUT_DIR / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload, tiny in TINY.items():
            with overridden(workloads, tiny):
                _, nl, plan = run.set_up(workload, 1, 1, work)
                _, _, _, failed, results = run.run_ops(nl, workload, plan, run.HostSpeed())
            problems = checks.check(workload, plan, results)
            ok = not failed and not problems
            if not ok:
                failures.append(f"{workload}: real output rejected ({failed} failed ops): {problems[:3]}")
            print(f"{workload}: {len(plan.ops)} ops accepted: {ok}")
            for corrupt in CORRUPTIONS[workload]:
                undo = corrupt(plan, results)
                caught = checks.check(workload, plan, results)
                undo()
                if not caught:
                    failures.append(f"{workload}: {corrupt.__name__} was not rejected")
                print(f"  {corrupt.__name__}: rejected: {bool(caught)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
