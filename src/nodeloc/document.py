"""On-disk topology documents and outcome maps.

One JSON schema carries everything the analyses consume::

    {
      "version": 1,
      "nodes": [{"name": "m1", "monitor": true}, {"name": "v1", "monitor": false}],
      "edges": [["m1", "v1"]],
      "paths": [["m1", "v1", "m1"]]          # optional, enables UP analysis
    }

Node order in the file defines the dense ids used in memory, so
``parse_topology(emit_topology(doc)) == doc`` holds byte for byte on the
canonical form.  Outcome maps use the schema
``{"model": "CAP", "observations": [{"probe": "v1", "state": "up"}]}`` with
node names as probes for CAP/CSP and integer path ids for UP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .ensemble import PathEnsemble, build_ensemble
from .errors import FormatError
from .graph import Topology

FORMAT_VERSION = 1


@dataclass(frozen=True)
class TopologyDocument:
    """Named view of a topology, with an optional measurement path list."""

    names: tuple[str, ...]
    monitors: frozenset[int]
    edges: frozenset[tuple[int, int]]
    paths: tuple[tuple[int, ...], ...] | None = None
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {name: i for i, name in enumerate(self.names)})

    def id_of(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise FormatError(f"unknown node name {name!r}") from None

    def to_topology(self) -> Topology:
        return Topology(len(self.names), self.edges, self.monitors)

    def to_ensemble(self, topology: Topology | None = None) -> PathEnsemble:
        if self.paths is None:
            raise FormatError("the document carries no measurement paths")
        return build_ensemble(topology or self.to_topology(), self.paths)

    def with_paths(self, paths: Iterable[Iterable[int]]) -> "TopologyDocument":
        return replace(self, paths=tuple(tuple(p) for p in paths))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(message)


def _text(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from exc


def _load_json(data: bytes | str):
    """Decode and parse JSON; every way malformed input fails is a FormatError."""
    try:
        return json.loads(_text(data))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals;
        # RecursionError comes from deeply nested arrays or objects.
        raise FormatError(f"not valid JSON: {exc}") from exc


def _dump_json(payload) -> str:
    """The canonical JSON layout of every file nodeloc writes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_topology(data: bytes | str) -> TopologyDocument:
    """Parse and validate a topology document.

    Rejects duplicate names, duplicate or dangling edges, and self-loops,
    naming the offending entry in the error message.
    """
    raw = _load_json(data)
    _expect(isinstance(raw, dict), "top level must be a JSON object")
    # JSON true parses to a bool, which Python compares equal to 1.
    version = raw.get("version")
    _expect(type(version) is int and version == FORMAT_VERSION, f"expected version {FORMAT_VERSION}")
    nodes = raw.get("nodes")
    _expect(isinstance(nodes, list) and nodes, "'nodes' must be a non-empty list")

    index: dict[str, int] = {}
    monitors: set[int] = set()
    for i, node in enumerate(nodes):
        _expect(isinstance(node, dict), f"node {i} must be an object")
        name = node.get("name")
        _expect(isinstance(name, str) and name, f"node {i} needs a non-empty string name")
        _expect(name not in index, f"duplicate node name {name!r}")
        _expect(isinstance(node.get("monitor"), bool), f"node {name!r} needs a boolean 'monitor'")
        if node["monitor"]:
            monitors.add(i)
        index[name] = i
    _expect(bool(monitors), "at least one node must be a monitor")

    edges: set[tuple[int, int]] = set()
    raw_edges = raw.get("edges", [])
    _expect(isinstance(raw_edges, list), "'edges' must be a list")
    for i, edge in enumerate(raw_edges):
        _expect(
            isinstance(edge, list) and len(edge) == 2,
            f"edge {i} must be a two-element list",
        )
        for name in edge:
            _expect(isinstance(name, str), f"edge {i} endpoint {name!r} must be a node name")
            _expect(name in index, f"edge {i} references unknown node {name!r}")
        u, v = index[edge[0]], index[edge[1]]
        _expect(u != v, f"edge {i} is a self-loop at {edge[0]!r}")
        key = (u, v) if u < v else (v, u)
        _expect(key not in edges, f"edge {i} duplicates ({edge[0]!r}, {edge[1]!r})")
        edges.add(key)

    paths: tuple[tuple[int, ...], ...] | None = None
    if "paths" in raw and raw["paths"] is not None:
        raw_paths = raw["paths"]
        _expect(isinstance(raw_paths, list), "'paths' must be a list")
        parsed = []
        for i, path in enumerate(raw_paths):
            _expect(isinstance(path, list) and len(path) >= 2, f"path {i} must list at least two nodes")
            for name in path:
                _expect(isinstance(name, str), f"path {i} entry {name!r} must be a node name")
                _expect(name in index, f"path {i} references unknown node {name!r}")
            parsed.append(tuple(index[name] for name in path))
        paths = tuple(parsed)

    unknown = set(raw) - {"version", "nodes", "edges", "paths"}
    _expect(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    return TopologyDocument(tuple(index), frozenset(monitors), frozenset(edges), paths)


def emit_topology(doc: TopologyDocument) -> str:
    """Canonical JSON form; stable key order, two-space indent."""
    payload = {
        "version": FORMAT_VERSION,
        "nodes": [
            {"name": name, "monitor": i in doc.monitors} for i, name in enumerate(doc.names)
        ],
        "edges": [
            [doc.names[u], doc.names[v]] for u, v in sorted(doc.edges)
        ],
    }
    if doc.paths is not None:
        payload["paths"] = [[doc.names[v] for v in path] for path in doc.paths]
    return _dump_json(payload)


def parse_path_lines(data: bytes | str, doc: TopologyDocument) -> tuple[tuple[int, ...], ...]:
    """Plain-text path import: one path per line, whitespace-separated names.

    Blank lines and lines starting with ``#`` are skipped.  Only name
    resolution happens here; walk validity is checked when the ensemble is
    built.
    """
    paths = []
    for lineno, line in enumerate(_text(data).splitlines(), start=1):
        names = line.split()
        if not names or names[0].startswith("#"):
            continue
        if len(names) < 2:
            raise FormatError(f"path line {lineno} lists fewer than two nodes")
        for name in names:
            if name not in doc.index:
                raise FormatError(f"path line {lineno} references unknown node {name!r}")
        paths.append(tuple(doc.index[name] for name in names))
    return tuple(paths)


def parse_outcomes(data: bytes | str, doc: TopologyDocument) -> tuple[str, dict[int, bool]]:
    """Parse an outcome map; returns the model kind and probe states."""
    raw = _load_json(data)
    _expect(isinstance(raw, dict), "top level must be a JSON object")
    model = raw.get("model")
    _expect(model in ("CAP", "CSP", "UP"), "'model' must be CAP, CSP or UP")
    observations = raw.get("observations")
    _expect(isinstance(observations, list), "'observations' must be a list")
    states: dict[int, bool] = {}
    for i, obs in enumerate(observations):
        _expect(isinstance(obs, dict), f"observation {i} must be an object")
        _expect(obs.get("state") in ("up", "down"), f"observation {i} state must be up or down")
        probe = obs.get("probe")
        if model == "UP":
            _expect(type(probe) is int, f"observation {i} probe must be a path id")
            key = probe
        else:
            _expect(isinstance(probe, str), f"observation {i} probe must be a node name")
            key = doc.id_of(probe)
        _expect(key not in states, f"observation {i} repeats probe {probe!r}")
        states[key] = obs["state"] == "up"
    return model, states


def emit_outcomes(model: str, states: Mapping[int, bool], doc: TopologyDocument) -> str:
    """Canonical JSON form of an outcome map."""
    observations = [
        {
            "probe": key if model == "UP" else doc.names[key],
            "state": "up" if states[key] else "down",
        }
        for key in sorted(states)
    ]
    return _dump_json({"model": model, "observations": observations})
