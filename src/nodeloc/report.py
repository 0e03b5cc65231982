"""Full-analysis reports over a topology document.

``analyze`` runs the per-k condition tables and the maximum-identifiability
bounds for the requested probing models, optionally cross-checked against
the exact oracle, and packages everything with provenance so repeated
runs on the same input are byte-identical.  The report is a JSON-ready dict:
``emit_report`` renders it as stable JSON or as a human-readable text
table, and ``nodeloc report`` re-reads the JSON form.  The provenance's
``input_sha256`` is the SHA-256 of ``emit_topology(doc)``, the document's
canonical text.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Any, Callable, Mapping

from ._version import __version__
from .conditions import (
    Identifiability,
    IdentifiabilityBounds,
    Verdict,
    controllable_table,
    up_bounds,
    up_verdicts,
)
from .document import _WORDS, TopologyDocument, _array, _dump_json, _layout, _load_json, _quote, emit_topology
from .ensemble import cover_profile
from .errors import FormatError, InternalError, UsageError
from .graph import Topology, _plain_int
from .oracle import DEFAULT_GUARD, ProbingModel, max_identifiability, up_model

_MODEL_ORDER = ("CAP", "CSP", "UP")


def resolve_models(
    doc: TopologyDocument, topology: Topology, models: tuple[str, ...] | None
) -> list[ProbingModel]:
    """The probing model of each requested kind, in request order.

    ``models`` defaults to CAP and CSP, plus UP when the document carries
    paths; UP's ensemble is built on ``topology``.
    """
    if models is None:
        models = ("CAP", "CSP") + (("UP",) if doc.paths is not None else ())
    if not models:
        raise UsageError("empty --models list")
    for i, kind in enumerate(models):
        if kind not in _MODEL_ORDER:
            raise UsageError(f"unknown probing model {kind!r}")
        if kind in models[:i]:
            raise UsageError(f"probing model {kind!r} is repeated")
    if "UP" in models and doc.paths is None:
        raise UsageError("UP analysis requested but the document has no paths")
    return [
        up_model(doc.to_ensemble(topology)) if kind == "UP" else ProbingModel(kind)
        for kind in models
    ]


def analyze(
    doc: TopologyDocument,
    *,
    models: tuple[str, ...] | None = None,
    oracle: bool = False,
    guard: int = DEFAULT_GUARD,
    k_range: tuple[int, int] | None = None,
) -> dict[str, Any]:
    """Run every requested analysis on the document; return the report.

    The report is the JSON-ready dict that :func:`emit_report` renders.
    ``models`` defaults to CAP and CSP, plus UP when the document carries
    paths.  ``k_range`` restricts the verdict table (inclusive bounds);
    ``oracle`` adds the exact oracle's maxima, refusing when the non-monitor
    count exceeds ``guard``.
    """
    _plain_int(guard, "guard")
    if type(oracle) is not bool:
        raise UsageError(f"oracle must be a bool, got {oracle!r}")
    if k_range is not None and not (isinstance(k_range, (tuple, list)) and len(k_range) == 2):
        raise UsageError(f"k range must be a (low, high) pair, got {k_range!r}")
    topology = doc.to_topology()
    sigma = topology.sigma
    if sigma == 0:
        raise UsageError("every node is a monitor; there are no failures to analyze")
    chosen = {model.kind: model for model in resolve_models(doc, topology, models)}
    lo, hi = k_range if k_range is not None else (0, sigma)
    _plain_int(lo, "k range low end", 0, sigma, UsageError)
    _plain_int(hi, "k range high end", lo, sigma, UsageError)

    names = doc.names
    sections: dict[str, Any] = {}
    for kind in _MODEL_ORDER:
        if kind not in chosen:
            continue
        model = chosen[kind]
        profile = cover_profile(model.ensemble) if kind == "UP" else None
        if profile is None:
            verdicts, bounds = controllable_table(topology, kind)
        else:
            verdicts, bounds = up_verdicts(profile), up_bounds(profile)
        verdicts = verdicts[lo : hi + 1]
        oracle_max = max_identifiability(topology, model, guard=guard) if oracle else None
        _validate_section(kind, verdicts, bounds, oracle_max, lo)
        entry: dict[str, Any] = {
            "verdicts": [
                {
                    "k": k,
                    "value": verdict.value.value,
                    "sufficient": verdict.sufficient_holds,
                    "necessary": verdict.necessary_holds,
                    "rationale": verdict.rationale,
                }
                for k, verdict in enumerate(verdicts, lo)
            ],
            "bounds": asdict(bounds),
            "oracle": None if oracle_max is None else {"max_identifiability": oracle_max},
        }
        if profile is not None:
            entry["cover_profile"] = {
                "sizes": {names[v]: _size_json(size) for v, size in sorted(profile.cover_sizes.items())},
                "min_cover": _size_json(profile.min_cover),
                "unobserved": [names[v] for v in sorted(model.ensemble.unobserved)],
            }
        sections[kind] = entry

    # Imported here: hashlib loads OpenSSL, which only a report's digest
    # needs, so importing the package never pays for it.
    import hashlib
    return {
        "report_version": 1,
        "provenance": {
            "input_sha256": hashlib.sha256(emit_topology(doc).encode("utf-8")).hexdigest(),
            "options": {"models": list(chosen), "oracle": oracle, "guard": guard, "k_range": [lo, hi]},
            "tool": f"nodeloc {__version__}",
        },
        "nodes": list(names),
        "monitors": [names[m] for m in sorted(doc.monitors)],
        "sigma": sigma,
        "models": sections,
    }


def _validate_section(
    kind: str, verdicts: tuple[Verdict, ...], bounds: IdentifiabilityBounds, oracle_max: int | None, k_lo: int
) -> None:
    dead = False
    for k, verdict in enumerate(verdicts, k_lo):
        if dead and verdict.value is not Identifiability.NOT_IDENTIFIABLE:
            raise InternalError(f"{kind} verdict table is not monotone at k={k}")
        dead = dead or verdict.value is Identifiability.NOT_IDENTIFIABLE
    if oracle_max is not None and not bounds.lower <= oracle_max <= bounds.upper:
        raise InternalError(
            f"{kind} oracle result {oracle_max} escapes the "
            f"reported bounds [{bounds.lower}, {bounds.upper}]"
        )


def _size_json(size: int | float) -> int | str:
    return "inf" if math.isinf(size) else int(size)


def emit_report(report: Mapping[str, Any], fmt: str = "json") -> str:
    """Serialize a report dict from :func:`analyze`; ``fmt`` is ``json`` or ``text``.
    The JSON is ``_dump_json``'s text, with one template per distinct verdict row."""
    if fmt == "json":
        return _dump_json(report, {"verdicts": _verdicts_json})
    if fmt == "text":
        return render_text(report)
    raise UsageError(f"unknown report format {fmt!r}")


def _verdicts_json(rows: Any, pad: str, writers: Mapping[str, Callable]) -> str:
    """``_layout(rows, pad, writers)``; a row with exactly analyze's five keys and types (``type(x)
    is``: ``True`` never stands in for ``1``) is one template per distinct row, k spliced in."""
    if type(rows) is not list:
        return _layout(rows, pad, writers)
    key_pad, tails, items = pad + "    ", {}, []
    for row in rows:
        if type(row) is dict and len(row) == 5:
            k, n, r, s, v = map(row.get, ("k", "necessary", "rationale", "sufficient", "value"))
            if type(k) is int and type(n) is bool and type(r) is str and type(s) is bool and type(v) is str:
                if (n, r, s, v) not in tails:
                    tails[n, r, s, v] = (
                        f',\n{key_pad}"necessary": {_WORDS[n]},\n{key_pad}"rationale": {_quote(r)},'
                        f'\n{key_pad}"sufficient": {_WORDS[s]},\n{key_pad}"value": {_quote(v)}\n{pad}  }}'
                    )
                items.append(f'{{\n{key_pad}"k": {k}{tails[n, r, s, v]}')
                continue
        items.append(_layout(row, pad + "  ", writers))
    return _array(items, pad)


def reformat_report(data: bytes | str, fmt: str) -> str:
    """Re-emit an existing report JSON file in the requested format."""
    payload = _load_json(data)
    version = payload.get("report_version") if isinstance(payload, dict) else None
    if type(version) is not int or version != 1:
        raise FormatError("not a nodeloc report (missing report_version 1)")
    try:
        text = render_text(payload)  # reads every field, so it checks both formats
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        # A file claiming report_version 1 without a report's fields or types.
        raise FormatError(f"malformed nodeloc report: {exc!r}") from exc
    return text if fmt == "text" else emit_report(payload, fmt)


def render_text(payload: Mapping[str, Any]) -> str:
    """Stable human-readable rendering of a report payload."""
    lines = [
        "node failure identifiability report",
        f"tool: {payload['provenance']['tool']}",
        f"input sha256: {payload['provenance']['input_sha256']}",
        f"nodes: {len(payload['nodes'])}  monitors: {', '.join(payload['monitors'])}"
        f"  non-monitors: {payload['sigma']}",
        "",
    ]
    for kind in sorted(payload["models"]):
        entry = payload["models"][kind]
        lines.append(f"model {kind}")
        lines.append("  k  verdict           sufficient  necessary  rationale")
        for row in entry["verdicts"]:
            lines.append(
                f"  {row['k']:<2} {row['value']:<17} "
                f"{'yes' if row['sufficient'] else 'no':<11} "
                f"{'yes' if row['necessary'] else 'no':<10} {row['rationale']}"
            )
        b = entry["bounds"]
        exact = f" exact {b['exact']}" if b["exact"] is not None else ""
        note = f"  ({b['guard_note']})" if b["guard_note"] else ""
        lines.append(
            f"  max identifiability in [{b['lower']}, {b['upper']}]{exact}"
            f"{'' if b['applicable'] else '  [formula guard failed]'}{note}"
        )
        if entry.get("oracle"):
            lines.append(
                f"  oracle max identifiability: {entry['oracle']['max_identifiability']}"
            )
        if "cover_profile" in entry:
            sizes = entry["cover_profile"]["sizes"]
            rendered = ", ".join(f"{name}={sizes[name]}" for name in sorted(sizes))
            lines.append(f"  cover sizes: {rendered}  (min {entry['cover_profile']['min_cover']})")
            if entry["cover_profile"]["unobserved"]:
                lines.append(
                    "  unobserved nodes: "
                    + ", ".join(entry["cover_profile"]["unobserved"])
                )
        lines.append("")
    return "\n".join(lines)
