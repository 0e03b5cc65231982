"""nodeloc benchmark: seeded inputs, a timed closed loop, checks, metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze-flow --seed 1 --seconds 15 --trace 0

nodeloc is imported from ``src/`` next to this directory; nothing is
installed.  One caller runs the workload's fixed op list in this process,
each op after the previous one returns (a closed loop, no threads).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, in seconds at the reference host speed (see
``hostspeed.py``); the raw host seconds are printed on the line before.
With ``--trace 1`` the run times the op list once untraced and once traced,
reports the per-layer metrics with the tracing overhead among them, and
writes the spans to ``bench/out/``.  See ``bench/README.md``."""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import hostspeed
from hostspeed import HostSpeed
from workloads import BUILDERS, K_MAX, ORACLE_GUARD, rounds_for

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up is repeated at least SETUP_MIN_REPEATS times, and more while the
#: repetitions total under SETUP_MIN_SECONDS, and its median is reported.
#: Short set-ups thus get enough repetitions for a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 40


class Clock:
    """Elapsed time of one set-up repetition, less the time spent paused."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.paused_s = 0.0

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused_s


def import_nodeloc():
    """Import nodeloc afresh, so each set-up pays the import and starts cold."""
    for name in [n for n in sys.modules if n == "nodeloc" or n.startswith("nodeloc.")]:
        del sys.modules[name]
    nl = importlib.import_module("nodeloc")
    importlib.import_module("nodeloc.cli")
    return nl


def set_up(workload: str, seed: int, rounds: int, work: Path, before_build=None):
    # Collect the previous repetition's garbage (old module objects sit in
    # reference cycles) so that no repetition pays for another's.
    gc.collect()
    clock = Clock()
    nl = import_nodeloc()
    if before_build is not None:
        with clock.paused():
            before_build(nl)
    plan = BUILDERS[workload](nl, seed, rounds, work, clock)
    return clock.elapsed(), nl, plan


def open_session(nl, plan):
    """The localize-stream library session: parse each network once, keep it."""
    session = []
    for text in plan.session:
        doc = nl.parse_topology(text)
        topology = doc.to_topology()
        models = {"CAP": nl.CAP, "CSP": nl.CSP, "UP": nl.up_model(doc.to_ensemble(topology))}
        session.append((doc, topology, models))
    return session


def localize_op(nl, session, op):
    doc, topology, models = session[op.info["net"]]
    try:
        kind, states = nl.parse_outcomes(op.text, doc)
        return nl.localize(topology, models[kind], states, K_MAX, guard=ORACLE_GUARD)
    except nl.NodelocError as exc:
        print(f"op {op.label} failed: {exc}", file=sys.stderr)
        return None


def cli_op(nl, op):
    return op.out if nl.cli.main(op.argv) == 0 else None


def run_ops(nl, workload: str, plan, speed: HostSpeed):
    """The timed phase.

    Returns the scaled wall time, the raw wall time, the scaled per-op
    latencies, the number of failed ops and the results (None for a failed
    op).  The host-speed probe runs between ops, at least every
    ``hostspeed.EVERY_S``, and its own time is not counted.
    """
    latencies, results, pending = [], [], []
    wall = raw_wall = 0.0
    gc.collect()
    before = speed.probe()
    start = time.perf_counter()

    def close_stretch():
        nonlocal before, start, wall, raw_wall
        elapsed = time.perf_counter() - start
        after = speed.probe()
        scale = speed.scale(before, after)
        wall += elapsed * scale
        raw_wall += elapsed
        latencies.extend(latency * scale for latency in pending)
        pending.clear()
        before = after
        start = time.perf_counter()

    if workload == "localize-stream":
        session = open_session(nl, plan)
        call = functools.partial(localize_op, nl, session)
    else:
        call = functools.partial(cli_op, nl)
    for op in plan.ops:
        t0 = time.perf_counter()
        results.append(call(op))
        pending.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= hostspeed.EVERY_S:
            close_stretch()
    if pending:
        close_stretch()
    failed = sum(result is None for result in results)
    return wall, raw_wall, latencies, failed, results


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nodeloc" / "__init__.py").is_file():
        print(f"error: no nodeloc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    rounds = rounds_for(args.workload, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        speed = HostSpeed()
        setup_times, raw_setup = [], []
        while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(raw_setup) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
        ):
            before = speed.probe()
            elapsed, nl, plan = set_up(args.workload, args.seed, rounds, work)
            setup_times.append(elapsed * speed.scale(before, speed.probe()))
            raw_setup.append(elapsed)
        wall, raw_wall, latencies, failed, results = run_ops(nl, args.workload, plan, speed)
        print(f"raw host seconds: setup_s {statistics.median(raw_setup):.4f} wall_s {raw_wall:.4f}; "
              f"probe median {statistics.median(speed.samples) * 1e3:.3f} ms, "
              f"reference {hostspeed.REFERENCE_S * 1e3:.3f} ms")

        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            _, nl, plan = set_up(args.workload, args.seed, rounds, work, before_build=tracer.install)
            traced_wall, _, latencies, failed, results = run_ops(nl, args.workload, plan, speed)
            tracer.stop()
            overhead = traced_wall - wall
            spans = OUT_DIR / f"spans-{args.workload}.jsonl"
            tracer.write(spans)
            print(f"tracing overhead: traced wall_s {traced_wall:.4f} - untraced wall_s "
                  f"{wall:.4f} = {overhead:.4f} s ({overhead / wall:+.1%}); spans in {spans}")
            metrics = {name: metric(value, unit) for name, (value, unit) in tracer.metrics().items()}
            metrics["trace.overhead_s"] = metric(overhead, "s")
            metrics["host.probe_s"] = metric(statistics.median(speed.samples), "s")
        else:
            metrics = {
                "setup_s": metric(statistics.median(setup_times), "s"),
                "wall_s": metric(wall, "s"),
                "op_p50_s": metric(statistics.median(latencies), "s"),
                # Read before the checks import networkx.
                "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            }

        import checks

        try:
            problems = checks.check(args.workload, plan, results)
        except (KeyError, TypeError, ValueError) as exc:
            # A report that lacks a field or holds the wrong type is wrong.
            problems = [f"an output could not be checked: {exc!r}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(plan.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
