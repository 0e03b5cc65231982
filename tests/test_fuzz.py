"""Parser fuzz: malformed input of any shape fails with a NodelocError, never another exception.

The CLI maps NodelocError subclasses to exit codes 2 and 3; anything else
surfaces as exit 4, which is reserved for real bugs.
"""

from __future__ import annotations

import json
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _quote
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodeloc import document
from nodeloc.document import emit_outcomes, parse_outcomes, parse_path_lines, parse_topology
from nodeloc.errors import NodelocError
from nodeloc.report import analyze, reformat_report

from test_document import documents

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


#: The frame ``emit_outcomes`` writes around its observations, for one model.
HEAD, FOOT = '{{\n  "model": "{}",\n  "observations": [\n    ', "\n  ]\n}\n"
EDITS = ["none", "drop", "insert", "replace", "swap", "duplicate", "model", "newline"]


@st.composite
def edited_outcome_maps(draw):
    """A map in ``emit_outcomes``' layout on a document with awkward names, then
    at most one edit.  Returns the document, the text, and whether the
    document's templates alone must read it."""
    doc = draw(documents())
    # At most half the nodes are monitors, so most maps have node probes to read.
    ids = st.integers(0, len(doc.names) - 1)
    doc = replace(doc, monitors=frozenset(draw(st.sets(ids, max_size=len(doc.names) // 2))))
    model = draw(st.sampled_from(["CAP", "CSP", "UP"]))
    # Most keys are probes the templates cover; the rest may be monitors, or UP ids past the path list.
    count = len(doc.paths or ()) if model == "UP" else len(doc.names)
    probes = sorted(set(range(count)) - (set() if model == "UP" else doc.monitors))
    ids = st.integers(0, count + 2 if model == "UP" else count - 1)
    near = st.sampled_from(probes) if probes else ids
    states = draw(st.dictionaries(st.one_of(near, near, near, ids), st.booleans(), min_size=1, max_size=8))
    text, head = emit_outcomes(model, states, doc), HEAD.format(model)
    observations = [emit_outcomes(model, {key: up}, doc)[len(head) : -len(FOOT)] for key, up in sorted(states.items())]
    assert text == head + ",\n    ".join(observations) + FOOT
    # Many character edits fall in the frame that the template reader checks.
    frame = st.integers(0, len(head) - 1) | st.integers(len(text) - len(FOOT) - 1, len(text) - 1)
    edit, at = draw(st.sampled_from(EDITS)), draw(st.integers(0, len(text) - 1) | frame)
    char = draw(st.sampled_from('{}[],:" \n\\u0d') | st.characters())
    if edit in ("drop", "insert", "replace"):
        text = text[:at] + (char if edit != "drop" else "") + text[at + (edit != "insert") :]
    elif edit in ("swap", "duplicate") and observations:
        i, j = (draw(st.integers(0, len(observations) - 1)) for _ in range(2))
        if edit == "swap":
            observations[i], observations[j] = observations[j], observations[i]
        else:
            observations.insert(j, observations[i])
        text = head + ",\n    ".join(observations) + FOOT
    elif edit == "model":
        other = draw(st.sampled_from(sorted({"CAP", "CSP", "UP", "cap", "CAX", "UPS"} - {model})))
        text = text.replace(f'"model": "{model}"', f'"model": "{other}"', 1)
    elif edit == "newline":
        text = text[:-1]
    # The templates cover non-monitors whose quoted name reads back as the name, and path ids.
    covered = all(
        key < len(doc.paths or ()) if model == "UP"
        else key not in doc.monitors and json.loads(_quote(doc.names[key])) == doc.names[key]
        for key in states
    )
    return doc, text, covered and edit in ("none", "swap")


def _reading(text, doc):
    try:
        return repr(parse_outcomes(text, doc))
    except NodelocError as exc:
        # A JSON-decoder message names offsets, which a trailing space can move.
        if str(exc).startswith("not valid JSON"):
            return type(exc), type(exc.__cause__)
        return type(exc), str(exc)


@given(edited_outcome_maps())
def test_parse_outcomes_reads_its_own_layout_as_the_json_parser_does(case):
    doc, text, by_templates = case
    if by_templates:
        # A fresh document value, whose first map builds the templates.
        with mock.patch.object(document, "_load_json", side_effect=AssertionError("JSON parser entered")):
            assert _reading(text, replace(doc)) == _reading(text, doc)
    # A trailing space leaves the layout, so the JSON parser reads the reference.
    assert _reading(text, doc) == _reading(text + " ", doc)


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
