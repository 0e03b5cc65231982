"""Shared fixtures: deterministic instance corpus and hypothesis settings."""

from __future__ import annotations

import random
import sys
import warnings
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

import nodeloc.graph as graph
from nodeloc.document import TopologyDocument
from nodeloc.ensemble import PathEnsemble
from nodeloc.generate import erdos_renyi, generate_paths, grid

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def build_corpus(count: int = 300) -> list[TopologyDocument]:
    """Seeded topologies, 4 to 8 nodes, 1 to 3 monitors; fully deterministic."""
    docs: list[TopologyDocument] = []
    i = 0
    while len(docs) < count:
        n = 4 + (i % 5)
        monitors = 1 + (i % 3)
        if i % 11 == 10:
            docs.append(grid(2, n // 2, seed=9000 + i, monitors=monitors))
        else:
            p = (0.25, 0.4, 0.55, 0.7)[(i // 5) % 4]
            docs.append(erdos_renyi(n, p, seed=1000 + i, monitors=monitors))
        i += 1
    return docs


def _seeded_monitor_walks(doc: TopologyDocument, seed: int, count: int) -> TopologyDocument:
    """Random monitor-to-monitor walks; richer coverage than shortest paths."""
    topo = doc.to_topology()
    rng = random.Random(seed)
    monitors = sorted(topo.monitors)
    paths = []
    for _ in range(count):
        walk = [rng.choice(monitors)]
        for _ in range(2 * topo.node_count):
            nxt = sorted(topo.adjacency[walk[-1]])
            if not nxt:
                break
            walk.append(rng.choice(nxt))
            if len(walk) >= 2 and walk[-1] in topo.monitors:
                break
        if len(walk) >= 2 and walk[-1] in topo.monitors:
            paths.append(tuple(walk))
    return doc.with_paths(paths)


def count_threshold_reads(monkeypatch) -> list:
    """Record the connectivity reads in order, counted at ``nodeloc.graph``
    where every topology value's memo makes them: ``"d"`` for each
    merged-graph read, ``("dm", d)`` for each leave-one-out read given d.

    A value built before the call may have read its thresholds already, so
    callers count on topologies they build afterwards.
    """
    reads: list = []
    d_read, dm_read = graph.monitor_connectivity, graph._leave_one_out_connectivity

    def counted_d(topology, left_out=None):
        reads.append("d" if left_out is None else left_out)
        return d_read(topology, left_out)

    def counted_dm(topology, d):
        reads.append(("dm", d))
        return dm_read(topology, d)

    monkeypatch.setattr(graph, "monitor_connectivity", counted_d)
    monkeypatch.setattr(graph, "_leave_one_out_connectivity", counted_dm)
    return reads


def count_walks(monkeypatch) -> list[str]:
    """Record each walk an R(F) primitive makes, counted at ``nodeloc.graph``:
    ``"CAP"`` for the search from the monitors, ``"CSP"`` for the low-point DFS.

    Components and thresholds walk with the same helpers, so callers read
    d and dm first and list no components while counting.
    """
    walks: list[str] = []
    reach, low_points = graph._reach, graph._low_points
    monkeypatch.setattr(graph, "_reach", lambda *args: walks.append("CAP") or reach(*args))
    monkeypatch.setattr(graph, "_low_points", lambda *args: walks.append("CSP") or low_points(*args))
    return walks


def count_cover_searches(monkeypatch) -> list:
    """Record each exact-cover search as ``(ensemble, node)``, in order.

    A search ends by storing its node in the ensemble value's memo, so the
    memo is replaced by one that records each store.  A value built before
    the call may have searched already, so callers count on ensembles they
    build afterwards.
    """
    searches: list = []

    class Recorded(dict):
        def __init__(self, ensemble: PathEnsemble) -> None:
            super().__init__()
            self.ensemble = ensemble

        def __setitem__(self, v, entry) -> None:
            searches.append((self.ensemble, v))
            super().__setitem__(v, entry)

    memo = cached_property(Recorded)
    memo.__set_name__(PathEnsemble, "_covers")
    monkeypatch.setattr(PathEnsemble, "_covers", memo)
    return searches


def build_up_corpus(count: int = 300) -> list[TopologyDocument]:
    """Seeded (topology, generated path ensemble) instances with >= 2 monitors.

    Half the ensembles are the generator's shortest paths, half are seeded
    monitor-to-monitor walks, so cover sizes range over 0, finite and
    infinite values.
    """
    docs: list[TopologyDocument] = []
    i = 0
    with warnings.catch_warnings():
        # disconnected monitors legitimately yield empty ensembles here
        warnings.simplefilter("ignore")
        while len(docs) < count:
            n = 4 + (i % 5)
            monitors = 2 + (i % 2)
            p = (0.25, 0.35, 0.5)[(i // 2) % 3]
            if i % 7 == 6:
                doc = grid(2, max(2, n // 2), seed=9000 + i, monitors=monitors)
            else:
                doc = erdos_renyi(n, p, seed=5000 + i, monitors=monitors)
            if i % 2 == 0:
                doc = generate_paths(doc, per_pair=1 + (i % 3))
            else:
                doc = _seeded_monitor_walks(doc, seed=4000 + i, count=3 + (i % 6))
            docs.append(doc)
            i += 1
    return docs


@pytest.fixture(scope="session")
def corpus() -> list[TopologyDocument]:
    return build_corpus()


@pytest.fixture(scope="session")
def up_corpus() -> list[TopologyDocument]:
    return build_up_corpus()
