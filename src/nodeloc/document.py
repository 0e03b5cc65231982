"""On-disk topology documents and outcome maps.

One JSON schema carries everything the analyses consume::

    {
      "version": 1,
      "nodes": [{"name": "m1", "monitor": true}, {"name": "v1", "monitor": false}],
      "edges": [["m1", "v1"]],
      "paths": [["m1", "v1", "m1"]]          # optional, enables UP analysis
    }

Node order in the file defines the dense ids used in memory, and
``parse_topology(emit_topology(doc)) == doc``.  Outcome maps look like
``{"model": "CAP", "observations": [{"probe": "v1", "state": "up"}]}``, with
path ids as UP probes.  Every file is ``json.dumps(indent=2, sort_keys=True)``'s
text, written without its pure-Python encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Mapping, NoReturn

from .ensemble import PathEnsemble, build_ensemble
from .errors import FormatError, InputError
from .graph import Topology

FORMAT_VERSION = 1
_WORDS = {None: "null", True: "true", False: "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class TopologyDocument:
    """Named view of a topology, with an optional measurement path list."""

    names: tuple[str, ...]
    monitors: frozenset[int]
    edges: frozenset[tuple[int, int]]
    paths: tuple[tuple[int, ...], ...] | None = None
    index = cached_property(lambda self: {name: i for i, name in enumerate(self.names)})  # name: id

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


def _dump_json(payload, writers: Mapping[str, Callable] = {}) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` for any ``json.loads`` value."""
    return _layout(payload, "", writers) + "\n"


def _layout(value, pad: str, writers: Mapping[str, Callable] = {}) -> str:
    """``value``'s JSON text at indent ``pad``: ``json.encoder``'s type tests, one frame per level.
    An object's item under a key of ``writers`` goes to that writer, called as ``_layout`` is."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return _WORDS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _WORDS.get(text := float.__repr__(value), text)
    inner, items = pad + "  ", []
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= {str}:  # a list of names: one quote each, no frame
            return _array(list(map(_quote, value)), pad)
        for item in value:
            items.append(_layout(item, inner, writers))
        return _array(items, pad)
    for key, item in sorted(value.items()):
        items.append(f"{_quote(key)}: {writers.get(key, _layout)(item, inner, writers)}")
    return _array(items, pad, "{}")


def _unresolved(entry: str, role: str, names: list, index: dict[str, int]) -> NoReturn:
    """Raise the error for the first name in ``names`` that is not a node; called
    only once a lookup has failed, so entries that resolve build no message."""
    for name in names:
        if not isinstance(name, str):
            raise FormatError(f"{entry} {role} {name!r} must be a node name")
        if name not in index:
            raise FormatError(f"{entry} references unknown node {name!r}")


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
        if type(node) is not dict:
            raise FormatError(f"node {i} must be an object")
        name = node.get("name")
        if type(name) is not str or not name:
            raise FormatError(f"node {i} needs a non-empty string name")
        if index.setdefault(name, i) != i:
            raise FormatError(f"duplicate node name {name!r}")
        if type(node.get("monitor")) is not bool:
            raise FormatError(f"node {name!r} needs a boolean 'monitor'")
        if node["monitor"]:
            monitors.add(i)
    _expect(bool(monitors), "at least one node must be a monitor")

    get = index.get
    edges: set[tuple[int, int]] = set()
    raw_edges = raw.get("edges", [])
    _expect(isinstance(raw_edges, list), "'edges' must be a list")
    for i, edge in enumerate(raw_edges):
        if type(edge) is not list or len(edge) != 2:
            raise FormatError(f"edge {i} must be a two-element list")
        a, b = edge
        u, v = get(a) if type(a) is str else None, get(b) if type(b) is str else None
        if u is None or v is None:
            _unresolved(f"edge {i}", "endpoint", edge, index)
        if u == v:
            raise FormatError(f"edge {i} is a self-loop at {a!r}")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise FormatError(f"edge {i} duplicates ({a!r}, {b!r})")
        edges.add(key)

    paths: tuple[tuple[int, ...], ...] | None = None
    raw_paths = raw.get("paths")
    if raw_paths is not None:
        _expect(isinstance(raw_paths, list), "'paths' must be a list")
        parsed = []
        for i, path in enumerate(raw_paths):
            if type(path) is not list or len(path) < 2:
                raise FormatError(f"path {i} must list at least two nodes")
            try:
                ids = tuple(map(get, path))
            except TypeError:  # an unhashable entry, which _unresolved names
                ids = (None,)
            if None in ids:
                _unresolved(f"path {i}", "entry", path, index)
            parsed.append(ids)
        paths = tuple(parsed)

    unknown = set(raw) - {"version", "nodes", "edges", "paths"}
    _expect(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    return TopologyDocument(tuple(index), frozenset(monitors), frozenset(edges), paths)


def _array(items: list[str], pad: str, brackets: str = "[]") -> str:
    """``_dump_json``'s layout of a list (or object) whose items are JSON text."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def emit_topology(doc: TopologyDocument) -> str:
    """Canonical JSON form: ``_dump_json``'s layout, joined from templates
    around names quoted once by the C string encoder."""
    quoted, n = list(map(_quote, doc.names)), len(doc.names)
    marks = list(map(doc.monitors.__contains__, range(n)))
    keys = sorted([u * n + v for u, v in doc.edges if type(u) is type(v) is int and 0 <= u < n and 0 <= v < n])
    int_monitors = {int}.issuperset(map(type, doc.monitors))
    if len(keys) < len(doc.edges) or sum(marks) < len(doc.monitors) or not int_monitors:
        # An edge or monitor id is not an int in 0..n-1: a bool or float
        # would pass for the int it equals, and no other id has a node.
        doc.to_topology()  # raises, naming the entry
    heads = ('{\n      "monitor": false,\n      "name": ', '{\n      "monitor": true,\n      "name": ')
    nodes = [f"{heads[mark]}{name}\n    }}" for mark, name in zip(marks, quoted)]
    edges = [f"[\n      {quoted[key // n]},\n      {quoted[key % n]}\n    ]" for key in keys]
    text = f'{{\n  "edges": {_array(edges, "  ")},\n  "nodes": {_array(nodes, "  ")},\n'
    if doc.paths is not None:
        join, quoted_of = ",\n      ".join, quoted.__getitem__
        paths = [f"[\n      {join(map(quoted_of, path))}\n    ]" if path else "[]" for path in doc.paths]
        text += f'  "paths": {_array(paths, "  ")},\n'
    return text + f'  "version": {FORMAT_VERSION}\n}}\n'


def parse_path_lines(data: bytes | str, doc: TopologyDocument) -> tuple[tuple[int, ...], ...]:
    """Plain-text path import: one path per line, whitespace-separated names.

    Blank lines and lines starting with ``#`` are skipped.  Only name
    resolution happens here; walk validity is checked when the ensemble is
    built.
    """
    get = doc.index.get
    paths = []
    for lineno, line in enumerate(_text(data).splitlines(), start=1):
        names = line.split()
        if not names or names[0].startswith("#"):
            continue
        if len(names) < 2:
            raise FormatError(f"path line {lineno} lists fewer than two nodes")
        ids = tuple(map(get, names))
        if None in ids:
            raise FormatError(f"path line {lineno} references unknown node {names[ids.index(None)]!r}")
        paths.append(ids)
    return tuple(paths)


def parse_outcomes(data: bytes | str, doc: TopologyDocument) -> tuple[str, dict[int, bool]]:
    """Parse an outcome map; returns the model kind and probe states."""
    raw = _load_json(data)
    _expect(type(raw) is dict, "top level must be a JSON object")
    model = raw.get("model")
    _expect(model in ("CAP", "CSP", "UP"), "'model' must be CAP, CSP or UP")
    observations = raw.get("observations")
    _expect(type(observations) is list, "'observations' must be a list")
    index = doc.index
    states: dict[int, bool] = {}
    for i, obs in enumerate(observations):
        # Each message is built only once its check has failed.
        if type(obs) is not dict:
            raise FormatError(f"observation {i} must be an object")
        state = obs.get("state")
        if state not in ("up", "down"):
            raise FormatError(f"observation {i} state must be up or down")
        probe = obs.get("probe")
        if model == "UP":
            if type(probe) is not int:
                raise FormatError(f"observation {i} probe must be a path id")
            key = probe
        elif type(probe) is str:
            key = index.get(probe)
            if key is None:
                doc.id_of(probe)  # raises: unknown node name
        else:
            raise FormatError(f"observation {i} probe must be a node name")
        if key in states:
            raise FormatError(f"observation {i} repeats probe {probe!r}")
        states[key] = state == "up"
    return model, states


def emit_outcomes(model: str, states: Mapping[int, bool], doc: TopologyDocument) -> str:
    """Canonical JSON form of an outcome map, from templates like :func:`emit_topology`.

    A model or probe key that :func:`parse_outcomes` could not give back
    raises InputError, checked in O(1) per map: once the keys are sorted a
    negative key is first and a bool (0 or 1) first or second, and any other
    stray key fails the sort, the type check of the ends or its own lookup.
    """
    if model not in ("CAP", "CSP", "UP"):
        raise InputError(f"unknown probing model {model!r}")
    names, rep = doc.names, int.__repr__
    try:
        keys = sorted(states)
        # keys[len(keys) > 1] is the second key, or the only one.
        if keys and (keys[0] < 0 or not type(keys[0]) is type(keys[len(keys) > 1]) is type(keys[-1]) is int):
            raise TypeError
        observations = [
            f'{{\n      "probe": {rep(key)},\n      "state": "{"up" if states[key] else "down"}"\n    }}'
            for key in keys
        ] if model == "UP" else [
            f'{{\n      "probe": {_quote(names[key])},\n      "state": "{"up" if states[key] else "down"}"\n    }}'
            for key in keys
        ]
    except (IndexError, TypeError):
        for key in states:
            if type(key) is not int or key < 0 or model != "UP" and key >= len(names):
                raise InputError(f"probe key {key!r} is not a {'path' if model == 'UP' else 'node'} id") from None
        raise
    return f'{{\n  "model": {_quote(model)},\n  "observations": {_array(observations, "  ")}\n}}\n'
