"""Command-line front end.

Subcommands map one-to-one onto library operations::

    nodeloc analyze topo.json --oracle --format text
    nodeloc oracle topo.json --models CAP,CSP
    nodeloc localize topo.json outcomes.json --k-max 2
    nodeloc gen topo --model er --nodes 6 --edge-prob 0.5 --monitors 2 --seed 1
    nodeloc gen paths topo.json --per-pair 2
    nodeloc report analysis.json --format text

Exit codes: 0 success, 2 usage or format error, 3 capacity guard exceeded,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from ._version import __version__
from .document import _dump_json, emit_topology, parse_outcomes, parse_path_lines, parse_topology
from .errors import CapacityError, FormatError, InputError, UsageError
from .generate import barabasi_albert, erdos_renyi, generate_paths, grid
from .oracle import DEFAULT_GUARD, k_identifiable, localize, max_identifiability
from .report import analyze, emit_report, reformat_report, resolve_models

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


def _global_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # On subparsers the defaults are suppressed so a flag given after the
    # subcommand wins, while the top-level default still applies otherwise.
    default = (lambda v: v) if top_level else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=default(None), help="seed for generators")
    parser.add_argument(
        "--guard",
        type=int,
        default=default(DEFAULT_GUARD),
        help=f"max non-monitor count for exact oracle work (default {DEFAULT_GUARD})",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default=default("json"), help="output format"
    )


# gen topo: each model's generator and the two flags it needs, in call order.
_TOPO_MODELS = {
    "er": (erdos_renyi, ("nodes", "edge_prob")),
    "ba": (barabasi_albert, ("nodes", "attach")),
    "grid": (grid, ("width", "height")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; each leaf subcommand names its handler.  Parent
    # parsers declare the shared flags once: leaf < reader < document.
    parser = argparse.ArgumentParser(
        prog="nodeloc",
        description="Identifiability analysis for node-failure localization",
    )
    parser.add_argument("--version", action="version", version=f"nodeloc {__version__}")
    _global_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    leaf = argparse.ArgumentParser(add_help=False)
    _global_options(leaf, top_level=False)
    leaf.add_argument("--out", type=Path, default=None)
    reader = argparse.ArgumentParser(add_help=False, parents=[leaf])
    reader.add_argument("topology", type=Path)
    document = argparse.ArgumentParser(add_help=False, parents=[reader])
    document.add_argument("--paths", type=Path, default=None, help="text file, one path of node names per line")

    p = sub.add_parser("analyze", parents=[document], help="condition tables and identifiability bounds")
    p.add_argument("--models", default=None, help="comma list among CAP,CSP,UP")
    p.add_argument("--k-range", default=None, metavar="LO:HI", help="restrict the verdict table")
    p.add_argument("--oracle", action="store_true", help="add exact oracle results")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("oracle", parents=[document], help="exact oracle identifiability results only")
    p.add_argument("--models", default=None, help="comma list among CAP,CSP,UP")
    p.add_argument("--k", type=int, default=None, help="check one k instead of the maximum")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("localize", parents=[document], help="failure sets consistent with observations")
    p.add_argument("outcomes", type=Path)
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(handler=_cmd_localize)

    gen = sub.add_parser("gen", help="seeded instance generators")
    gensub = gen.add_subparsers(dest="gen_command", required=True)

    p = gensub.add_parser("topo", parents=[leaf], help="generate a random topology document")
    p.add_argument("--model", choices=tuple(_TOPO_MODELS), required=True)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--attach", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--monitors", type=int, default=None)
    p.add_argument("--monitor-fraction", type=float, default=None)
    p.set_defaults(handler=_cmd_gen_topo)

    p = gensub.add_parser("paths", parents=[reader], help="attach a shortest-path ensemble")
    p.add_argument("--per-pair", type=int, required=True)
    p.set_defaults(handler=_cmd_gen_paths)

    p = sub.add_parser("report", parents=[leaf], help="re-emit an analysis report")
    p.add_argument("report", type=Path)
    p.set_defaults(handler=_cmd_report)

    return parser


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        out.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _parse_models(arg: str | None) -> tuple[str, ...] | None:
    if arg is None:
        return None
    return tuple(part.strip().upper() for part in arg.split(",") if part.strip())


def _parse_k_range(arg: str | None) -> tuple[int, int] | None:
    if arg is None:
        return None
    try:
        lo, _, hi = arg.partition(":")
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad --k-range {arg!r}; expected LO:HI") from None


def _load_document(args: argparse.Namespace):
    doc = parse_topology(_read(args.topology))
    if args.paths is not None:
        doc = doc.with_paths(parse_path_lines(_read(args.paths), doc))
    return doc


def _cmd_analyze(args: argparse.Namespace) -> None:
    doc = _load_document(args)
    report = analyze(
        doc,
        models=_parse_models(args.models),
        oracle=args.oracle,
        guard=args.guard,
        k_range=_parse_k_range(args.k_range),
    )
    _write(emit_report(report, args.format), args.out)


def _cmd_oracle(args: argparse.Namespace) -> None:
    doc = _load_document(args)
    topology = doc.to_topology()
    results, text = {}, {}  # kind: its JSON entry, its text lines
    for model in resolve_models(doc, topology, _parse_models(args.models)):
        kind = model.kind
        if args.k is None:
            level = max_identifiability(topology, model, guard=args.guard)
            results[kind] = {"max_identifiability": level}
            text[kind] = f"{kind}: max identifiability {level}\n"
            continue
        ok, witness = k_identifiable(topology, model, args.k, guard=args.guard)
        results[kind] = {"k": args.k, "identifiable": ok}
        text[kind] = f"{kind}: k={args.k} identifiable: {'yes' if ok else 'no'}\n"
        if witness is not None:
            a, b = (sorted(doc.names[v] for v in side) for side in (witness.first, witness.second))
            results[kind]["indistinguishable_pair"] = [a, b]
            text[kind] += f"  counterexample: {{{', '.join(a)}}} vs {{{', '.join(b)}}}\n"
    _write(_dump_json(results) if args.format == "json" else "".join(text[kind] for kind in sorted(text)), args.out)


def _cmd_localize(args: argparse.Namespace) -> None:
    doc = _load_document(args)
    topology = doc.to_topology()
    kind, states = parse_outcomes(_read(args.outcomes), doc)
    model, = resolve_models(doc, topology, (kind,))
    candidates = localize(topology, model, states, args.k_max, guard=args.guard)
    named = [sorted(doc.names[v] for v in failure) for failure in candidates]
    if args.format == "json":
        _write(_dump_json({"model": kind, "candidates": named}), args.out)
    else:
        body = "\n".join("{" + ", ".join(c) + "}" for c in named) or "(no consistent failure set)"
        _write(body + "\n", args.out)


def _cmd_gen_topo(args: argparse.Namespace) -> None:
    if args.seed is None:
        raise UsageError("gen topo requires --seed for reproducibility")
    generator, needed = _TOPO_MODELS[args.model]
    values = [getattr(args, name) for name in needed]
    if None in values:
        flags = " and ".join("--" + name.replace("_", "-") for name in needed)
        raise UsageError(f"{args.model} needs {flags}")
    doc = generator(*values, seed=args.seed, monitors=args.monitors, monitor_fraction=args.monitor_fraction)
    _write(emit_topology(doc), args.out)


def _cmd_gen_paths(args: argparse.Namespace) -> None:
    doc = parse_topology(_read(args.topology))
    _write(emit_topology(generate_paths(doc, args.per_pair)), args.out)


def _cmd_report(args: argparse.Namespace) -> None:
    _write(reformat_report(_read(args.report), args.format), args.out)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (UsageError, FormatError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as exc:  # noqa: BLE001 - surface as invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
