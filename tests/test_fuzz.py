"""Parser fuzz: malformed input of any shape fails with a NodelocError, never another exception.

The CLI maps NodelocError subclasses to exit codes 2 and 3; anything else
surfaces as exit 4, which is reserved for real bugs.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodeloc.document import parse_outcomes, parse_path_lines, parse_topology
from nodeloc.errors import NodelocError
from nodeloc.report import analyze, reformat_report

DOC = parse_topology(
    '{"version": 1, "nodes": [{"name": "m1", "monitor": true},'
    ' {"name": "v1", "monitor": false}, {"name": "m2", "monitor": true}],'
    ' "edges": [["m1", "v1"], ["v1", "m2"]], "paths": [["m1", "v1", "m2"]]}'
)
REPORT = analyze(DOC)
NAMES = st.sampled_from(DOC.names)
KEYS = st.sampled_from(["version", "nodes", "edges", "paths", "name", "monitor", "model",
                        "observations", "probe", "state", "report_version"])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | NAMES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | KEYS, inner, max_size=4),
    max_leaves=16,
)

topology_like = st.fixed_dictionaries(
    {
        "version": st.just(1) | json_values,
        "nodes": st.lists(
            st.fixed_dictionaries({"name": NAMES | json_values, "monitor": st.booleans() | json_values})
            | json_values,
            max_size=4,
        ) | json_values,
    },
    optional={
        "edges": st.lists(st.lists(NAMES | json_values, max_size=3), max_size=4) | json_values,
        "paths": st.lists(st.lists(NAMES | json_values, max_size=4), max_size=3) | json_values,
        "extra": json_values,
    },
)

outcomes_like = st.fixed_dictionaries(
    {
        "model": st.sampled_from(["CAP", "CSP", "UP"]) | json_values,
        "observations": st.lists(
            st.fixed_dictionaries(
                {
                    "probe": NAMES | st.integers(-1, 2) | json_values,
                    "state": st.sampled_from(["up", "down"]) | json_values,
                }
            )
            | json_values,
            max_size=4,
        ) | json_values,
    }
)


@st.composite
def report_like(draw):
    """A real report payload with one top-level or per-model field replaced."""
    payload = json.loads(json.dumps(REPORT))
    target = payload
    if draw(st.booleans()):
        target = payload["models"][draw(st.sampled_from(sorted(payload["models"])))]
    target[draw(st.sampled_from(sorted(target)) | KEYS)] = draw(json_values)
    return payload


def _documents(shaped):
    """Arbitrary bytes, arbitrary text, any JSON value, or JSON near the schema."""
    as_json = (json_values | shaped).map(json.dumps)
    return st.binary(max_size=64) | st.text(max_size=64) | as_json | as_json.map(str.encode)


def _only_nodeloc_errors(call, data):
    try:
        call(data)
    except NodelocError:
        pass


@given(_documents(topology_like))
def test_parse_topology(data):
    _only_nodeloc_errors(parse_topology, data)


@given(_documents(outcomes_like))
def test_parse_outcomes(data):
    _only_nodeloc_errors(lambda d: parse_outcomes(d, DOC), data)


@given(_documents(st.lists(st.lists(NAMES | json_values, max_size=4), max_size=4))
       | st.lists(st.lists(NAMES | st.text(max_size=4), max_size=4), max_size=4).map(
           lambda rows: "\n".join(" ".join(map(str, row)) for row in rows)))
def test_parse_path_lines(data):
    _only_nodeloc_errors(lambda d: parse_path_lines(d, DOC), data)


@given(_documents(report_like()), st.sampled_from(["json", "text", "yaml"]))
def test_reformat_report(data, fmt):
    _only_nodeloc_errors(lambda d: reformat_report(d, fmt), data)


MALFORMED = {
    "deep-array": "[" * 100_000,
    "deep-object": '{"a": ' * 100_000,
    "deep-closed-array": "[" * 100_000 + "]" * 100_000,
    "byte-ff": b"\xff",
    "truncated-utf8": b'{"version": 1, "nodes": "\xc3"}',
    "long-integer": "1" * 5_000,
    "long-integer-in-array": "[" + "9" * 5_000 + "]",
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_explicit_malformed_cases(data):
    for call in (
        parse_topology,
        lambda d: parse_outcomes(d, DOC),
        lambda d: parse_path_lines(d, DOC),
        lambda d: reformat_report(d, "text"),
    ):
        with pytest.raises(NodelocError):
            call(data)
