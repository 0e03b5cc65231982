"""Seeded instance generators for analyses and property suites.

All generators are deterministic functions of their arguments: the same
seed reproduces the same document byte for byte.  Monitors are drawn
uniformly without replacement from the node set.
"""

from __future__ import annotations

import random
import warnings
from typing import Iterable

from .document import TopologyDocument
from .errors import UsageError
from .graph import _plain_int, _shortest_paths


def _check_real(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{what} must be a number, got {value!r}")


def _resolve_monitor_count(n: int, monitors: int | None, monitor_fraction: float | None) -> int:
    if (monitors is None) == (monitor_fraction is None):
        raise UsageError("give exactly one of a monitor count or a monitor fraction")
    if monitor_fraction is not None:
        _check_real(monitor_fraction, "monitor fraction")
        if not 0.0 < monitor_fraction < 1.0:
            raise UsageError("monitor fraction must lie strictly between 0 and 1")
        monitors = max(1, round(monitor_fraction * n))
    _plain_int(monitors, "monitor count", 1, error=UsageError)
    if monitors >= n:
        raise UsageError("at least one non-monitor is required")
    return monitors


def _document(n: int, edges: Iterable[tuple[int, int]], rng: random.Random, count: int) -> TopologyDocument:
    """The document, with its ``count`` monitors drawn by ``rng`` after the edges."""
    return TopologyDocument(
        names=tuple(f"n{i}" for i in range(n)),
        monitors=frozenset(rng.sample(range(n), count)),
        edges=frozenset(edges),
    )


def erdos_renyi(
    n: int,
    edge_prob: float,
    *,
    seed: int,
    monitors: int | None = None,
    monitor_fraction: float | None = None,
) -> TopologyDocument:
    """G(n, p) random graph with seeded monitor placement."""
    _plain_int(n, "node count", 2, error=UsageError)
    _check_real(edge_prob, "edge probability")
    if not 0.0 <= edge_prob <= 1.0:
        raise UsageError("edge probability must lie in [0, 1]")
    count = _resolve_monitor_count(n, monitors, monitor_fraction)
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
    ]
    return _document(n, edges, rng, count)


def barabasi_albert(
    n: int,
    attach: int,
    *,
    seed: int,
    monitors: int | None = None,
    monitor_fraction: float | None = None,
) -> TopologyDocument:
    """Preferential-attachment graph: each new node links to ``attach`` others."""
    _plain_int(attach, "attachment count", 1, error=UsageError)
    _plain_int(n, "node count", attach + 1, error=UsageError)
    count = _resolve_monitor_count(n, monitors, monitor_fraction)
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    targets = list(range(attach))
    for source in range(attach, n):
        for t in targets:
            edges.append((t, source))
        repeated.extend(targets)
        repeated.extend([source] * attach)
        chosen: set[int] = set()
        while len(chosen) < attach:
            chosen.add(rng.choice(repeated))
        targets = sorted(chosen)
    return _document(n, edges, rng, count)


def grid(
    width: int,
    height: int,
    *,
    seed: int,
    monitors: int | None = None,
    monitor_fraction: float | None = None,
) -> TopologyDocument:
    """Rectangular grid in row-major node order."""
    _plain_int(width, "grid width", 1, error=UsageError)
    _plain_int(height, "grid height", 2 if width == 1 else 1, error=UsageError)  # two nodes at least
    n = width * height
    count = _resolve_monitor_count(n, monitors, monitor_fraction)
    edges = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges.append((v, v + 1))
            if r + 1 < height:
                edges.append((v, v + width))
    return _document(n, edges, random.Random(seed), count)


def generate_paths(doc: TopologyDocument, per_pair: int) -> TopologyDocument:
    """Attach a shortest-path ensemble to the document.

    For each ordered monitor pair, up to ``per_pair`` shortest paths are
    taken in lexicographic node order; a path already present in the
    opposite orientation is dropped.  Fully deterministic.
    """
    _plain_int(per_pair, "per-pair path count", 1, error=UsageError)
    if len(doc.monitors) < 2:
        raise UsageError("path generation needs at least two monitors")
    topology = doc.to_topology()
    seen: set[tuple[int, ...]] = set()
    paths: list[tuple[int, ...]] = []
    ordered = sorted(doc.monitors)
    for src in ordered:
        for dst in ordered:
            if src == dst:
                continue
            for path in _shortest_paths(topology, src, {dst}, frozenset(), per_pair):
                key = min(path, path[::-1])
                if key not in seen:
                    seen.add(key)
                    paths.append(path)
    if not paths:
        warnings.warn("no monitor-to-monitor path exists; the ensemble is empty")
    return doc.with_paths(paths)
