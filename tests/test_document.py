"""Document parsing, emission round-trips, and the seeded generators."""

from __future__ import annotations

import hashlib
import json
import random
import re
from json.encoder import encode_basestring_ascii as _quote

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodeloc.document import (
    TopologyDocument,
    _dump_json,
    _load_json,
    emit_outcomes,
    emit_topology,
    parse_outcomes,
    parse_topology,
)
from nodeloc.errors import FormatError, InputError, UsageError
from nodeloc.generate import barabasi_albert, erdos_renyi, generate_paths, grid

MINIMAL = """
{"version": 1,
 "nodes": [{"name": "m1", "monitor": true}, {"name": "v", "monitor": false}],
 "edges": [["m1", "v"]]}
"""


class TestParseTopology:
    def test_minimal_document(self):
        doc = parse_topology(MINIMAL)
        assert doc.names == ("m1", "v")
        assert doc.monitors == {0}
        assert doc.edges == {(0, 1)}
        topo = doc.to_topology()
        assert topo.sigma == 1

    def test_paths_key_builds_an_ensemble(self):
        raw = json.loads(MINIMAL)
        raw["nodes"].append({"name": "m2", "monitor": True})
        raw["edges"].append(["v", "m2"])
        raw["paths"] = [["m1", "v", "m2"]]
        doc = parse_topology(json.dumps(raw))
        ens = doc.to_ensemble()
        assert ens.incidence[doc.index["v"]] == {0}

    def test_document_without_paths_has_no_ensemble(self):
        with pytest.raises(FormatError, match="carries no measurement paths"):
            parse_topology(MINIMAL).to_ensemble()

    def test_unknown_edge_name(self):
        raw = json.loads(MINIMAL)
        raw["edges"].append(["m1", "ghost"])
        with pytest.raises(FormatError, match="ghost"):
            parse_topology(json.dumps(raw))

    @pytest.mark.parametrize("key", ["edges", "paths"])
    def test_non_string_name_is_a_format_error(self, key):
        raw = json.loads(MINIMAL)
        raw[key] = [[["m1"], "v"]]
        with pytest.raises(FormatError, match="must be a node name"):
            parse_topology(json.dumps(raw))

    def test_duplicate_name(self):
        raw = json.loads(MINIMAL)
        raw["nodes"].append({"name": "v", "monitor": False})
        with pytest.raises(FormatError, match="duplicate"):
            parse_topology(json.dumps(raw))

    def test_duplicate_edge_and_self_loop(self):
        raw = json.loads(MINIMAL)
        raw["edges"].append(["v", "m1"])
        with pytest.raises(FormatError, match="duplicates"):
            parse_topology(json.dumps(raw))
        raw = json.loads(MINIMAL)
        raw["edges"] = [["v", "v"]]
        with pytest.raises(FormatError, match="self-loop"):
            parse_topology(json.dumps(raw))

    def test_version_and_schema_guards(self):
        with pytest.raises(FormatError):
            parse_topology("[]")
        with pytest.raises(FormatError):
            parse_topology('{"version": 2, "nodes": []}')
        with pytest.raises(FormatError):
            parse_topology("not json")
        with pytest.raises(FormatError, match="expected version 1"):
            parse_topology(MINIMAL.replace('"version": 1', '"version": true'))

    @pytest.mark.parametrize(
        "change, message",
        [
            # top level
            ({"version": 2}, "expected version 1"),
            ({"version": None}, "expected version 1"),
            ({"nodes": []}, "'nodes' must be a non-empty list"),
            ({"nodes": {"m1": True}}, "'nodes' must be a non-empty list"),
            ({"nodes": [{"name": "v", "monitor": False}]}, "at least one node must be a monitor"),
            ({"edges": None}, "'edges' must be a list"),
            ({"paths": {}}, "'paths' must be a list"),
            ({"extra": 1, "more": 2}, "unknown top-level keys: ['extra', 'more']"),
            # nodes
            ({"nodes": [["m1"]]}, "node 0 must be an object"),
            ({"nodes": [{"name": "m1", "monitor": True}, {"monitor": False}]},
             "node 1 needs a non-empty string name"),
            ({"nodes": [{"name": "", "monitor": True}]}, "node 0 needs a non-empty string name"),
            ({"nodes": [{"name": 7, "monitor": True}]}, "node 0 needs a non-empty string name"),
            ({"nodes": [{"name": "m1", "monitor": True}, {"name": "m1", "monitor": True}]},
             "duplicate node name 'm1'"),
            ({"nodes": [{"name": "m1", "monitor": 1}]}, "node 'm1' needs a boolean 'monitor'"),
            ({"nodes": [{"name": "m1"}]}, "node 'm1' needs a boolean 'monitor'"),
            # edges
            ({"edges": ["m1"]}, "edge 0 must be a two-element list"),
            ({"edges": [["m1", "v", "m1"]]}, "edge 0 must be a two-element list"),
            ({"edges": [[["m1"], "v"]]}, "edge 0 endpoint ['m1'] must be a node name"),
            ({"edges": [["m1", {"v": 1}]]}, "edge 0 endpoint {'v': 1} must be a node name"),
            ({"edges": [["m1", 5]]}, "edge 0 endpoint 5 must be a node name"),
            ({"edges": [[None, "v"]]}, "edge 0 endpoint None must be a node name"),
            ({"edges": [["m1", "ghost"]]}, "edge 0 references unknown node 'ghost'"),
            ({"edges": [["v", "v"]]}, "edge 0 is a self-loop at 'v'"),
            ({"edges": [["m1", "v"], ["v", "m1"]]}, "edge 1 duplicates ('v', 'm1')"),
            # paths
            ({"paths": [["m1"]]}, "path 0 must list at least two nodes"),
            ({"paths": ["m1v"]}, "path 0 must list at least two nodes"),
            ({"paths": [["m1", ["v"]]]}, "path 0 entry ['v'] must be a node name"),
            ({"paths": [["m1", True]]}, "path 0 entry True must be a node name"),
            ({"paths": [["m1", "v", "ghost"]]}, "path 0 references unknown node 'ghost'"),
            # two faults in one entry: the first name in the entry decides
            ({"edges": [["ghost", 5]]}, "edge 0 references unknown node 'ghost'"),
            ({"edges": [[5, "ghost"]]}, "edge 0 endpoint 5 must be a node name"),
            ({"edges": [[["x"], ["y"]]]}, "edge 0 endpoint ['x'] must be a node name"),
            ({"edges": [["ghost", "ghost"]]}, "edge 0 references unknown node 'ghost'"),
            ({"paths": [["m1", "ghost", 7]]}, "path 0 references unknown node 'ghost'"),
            ({"paths": [[{}, "ghost"]]}, "path 0 entry {} must be a node name"),
            # faults in two entries: the earlier entry decides
            ({"edges": [["m1", "ghost"], ["v", 5]]}, "edge 0 references unknown node 'ghost'"),
            ({"edges": [["v", "v"], [["m1"], "v"]]}, "edge 0 is a self-loop at 'v'"),
            ({"edges": [["m1", "v"], ["v", "m1"], ["ghost", "m1"]]}, "edge 1 duplicates ('v', 'm1')"),
            ({"edges": [["m1", "v"], ["v", "v"], ["v", "m1"]]}, "edge 1 is a self-loop at 'v'"),
            ({"paths": [["m1", 3], ["ghost", "v"]]}, "path 0 entry 3 must be a node name"),
            ({"paths": [["m1", "v"], ["v", "ghost"]]}, "path 1 references unknown node 'ghost'"),
            # faults in two sections: nodes, then edges, then paths, then keys
            ({"nodes": [{"name": "m1", "monitor": True}], "edges": [["m1", "v"]]},
             "edge 0 references unknown node 'v'"),
            ({"edges": [["v", "v"]], "paths": [["ghost"]]}, "edge 0 is a self-loop at 'v'"),
            ({"paths": [["m1", "ghost"]], "extra": 1}, "path 0 references unknown node 'ghost'"),
        ],
    )
    def test_error_messages(self, change, message):
        raw = json.loads(MINIMAL)
        raw.update(change)
        with pytest.raises(FormatError) as excinfo:
            parse_topology(json.dumps(raw))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "top level must be a JSON object"),
            ('{"nodes": [{"name": "m1", "monitor": true}]}', "expected version 1"),
            ('{"version": true, "nodes": [{"name": "m1", "monitor": true}]}', "expected version 1"),
            ('{"version": 1}', "'nodes' must be a non-empty list"),
        ],
    )
    def test_top_level_error_messages(self, text, message):
        with pytest.raises(FormatError) as excinfo:
            parse_topology(text)
        assert str(excinfo.value) == message

    def test_round_trip_identity(self, corpus, up_corpus):
        for doc in corpus[:30] + up_corpus[:30]:
            assert parse_topology(emit_topology(doc)) == doc

    def test_emission_is_deterministic(self, corpus):
        doc = corpus[0]
        assert emit_topology(doc) == emit_topology(doc)


#: Characters the writer must escape exactly as ``json.dumps`` does: quote,
#: backslash, control characters, non-ASCII, astral-plane and lone surrogates.
awkward_names = st.text(
    st.sampled_from('"\\\n\t\x00\x1f\x7f/é€\u2028\U0001f600\ud800\udfffa') | st.characters(),
    min_size=1,
    max_size=6,
)


@st.composite
def documents(draw) -> TopologyDocument:
    names = draw(st.lists(awkward_names, min_size=1, max_size=8, unique=True))
    n = len(names)
    ids = st.integers(0, n - 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    paths = draw(st.none() | st.just(()) | st.lists(st.lists(ids, max_size=6).map(tuple)).map(tuple))
    return TopologyDocument(tuple(names), frozenset(draw(st.sets(ids))), frozenset(edges), paths)


class TestEmitTopology:
    @given(documents())
    def test_matches_the_json_module(self, doc):
        names = doc.names
        payload = {
            "version": 1,
            "nodes": [{"name": name, "monitor": i in doc.monitors} for i, name in enumerate(names)],
            "edges": [[names[u], names[v]] for u, v in sorted(doc.edges)],
        }
        if doc.paths is not None:
            payload["paths"] = [[names[v] for v in path] for path in doc.paths]
        assert emit_topology(doc) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    # Edges sort by the key u * n + v, exact only for int ids in 0..n-1: with
    # n = 3, (0, 4) shares (1, 1)'s key, (1, -1) shares (0, 2)'s and
    # (True, 2) shares (1, 2)'s, while (0, 2.0) has a float key.
    @pytest.mark.parametrize(
        "edge", [(0, 3), (3, 0), (0, 4), (1, -1), (-1, 2), (2, -3), (0, 2.0), (2.0, 1), (True, 2), (0, False)]
    )
    def test_an_edge_id_out_of_range_emits_nothing(self, edge):
        doc = TopologyDocument(("a", "b", "c"), frozenset({0}), frozenset({(0, 1), edge}))
        with pytest.raises(InputError, match=r"outside 0\.\.2"):
            emit_topology(doc)

    # A monitor id marks the node it equals: 7 and -1 mark none, and True
    # would mark b.
    @pytest.mark.parametrize("monitors", [{0, 7}, {True}, {-1}, {1.0}])
    def test_a_monitor_id_out_of_range_emits_nothing(self, monitors):
        doc = TopologyDocument(("a", "b", "c"), frozenset(monitors), frozenset({(0, 1)}))
        with pytest.raises(InputError, match=r"monitor id .* outside 0\.\.2"):
            emit_topology(doc)

    def test_never_enters_the_pure_python_encoder(self, monkeypatch):
        def refuse(self, o, _one_shot=False):
            raise AssertionError("pure-Python JSON encoder entered")

        monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
        with pytest.raises(AssertionError, match="pure-Python"):
            json.dumps([1], indent=2)
        n = 2000
        doc = TopologyDocument(
            tuple(f"n{i}" for i in range(n)),
            frozenset(range(0, n, 100)),
            frozenset((i, i + 1) for i in range(n - 1)),
            tuple(tuple(range(i, i + 101)) for i in range(0, n - 100, 100)),
        )
        text = emit_topology(doc)
        assert text.count('"name"') == n and text.endswith('  "version": 1\n}\n')


class _Dict(dict):
    """A dict subclass, which ``json.encoder`` lays out as a plain dict."""


class _Str(str):
    """A str subclass, which ``json.encoder`` writes as a plain string."""


#: Every kind of value ``json.loads`` returns, and the tuples and dict
#: subclasses nodeloc's own payloads may hold: ints next to the bools they
#: equal, ints of 20 digits and more, and every float including NaN, the
#: infinities and -0.0.
json_scalars = (
    awkward_names
    | st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.integers(10**19, 10**40)
    | st.integers(-(10**40), -(10**19))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0])
)
json_keys = awkward_names | st.just("")
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_keys, inner, max_size=4)
    | st.dictionaries(json_keys, inner, max_size=4).map(_Dict),
    max_leaves=24,
)


def _refuse_pure_python_encoder(monkeypatch):
    def refuse(self, o, _one_shot=False):
        raise AssertionError("pure-Python JSON encoder entered")

    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps([1], indent=2)


class TestDumpJson:
    @given(json_values)
    def test_matches_the_json_module(self, value):
        assert _dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "value",
        [{}, [], (), _Dict(), [[], {}], {"a": {"b": ()}}, True, 1, 0, False, 10**25, -0.0]
        # Lists of names, written with one quote each, and lists that only look like them.
        + [["a", "b\u00e9"], ("a",), {"nodes": [], "monitors": ["m"]}, [_Str("x"), "y"], ["a", 1], ["a", ["b"]]],
    )
    def test_edge_values(self, value):
        assert _dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_every_depth_json_loads_reads(self):
        # The deepest nesting json.loads reads from this frame, by bisection:
        # the writer must lay it out too, or ``nodeloc report`` would fail on
        # a file it has read.
        low, high = 1, 5000
        while low < high:
            mid = (low + high + 1) // 2
            try:
                _load_json("[" * mid + "{}" + "]" * mid)
                low = mid
            except FormatError:
                high = mid - 1
        assert low > 500
        value = _load_json("[" * low + "{}" + "]" * low)
        assert _dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@st.composite
def outcome_maps(draw):
    doc = draw(documents())
    model = draw(st.sampled_from(["CAP", "CSP", "UP"]))
    # Most UP keys are the document's path ids or just past them, which the
    # writer reads from its memo or formats; some lie far beyond.
    near = st.integers(0, len(doc.paths or ()) + 2)
    keys = st.one_of(near, near, near, st.integers(0, 10**6)) if model == "UP" else st.integers(0, len(doc.names) - 1)
    return model, draw(st.dictionaries(keys, st.booleans(), max_size=12)), doc


def _json_outcomes(model, states, doc) -> str:
    observations = [
        {
            "probe": key if model == "UP" else doc.names[key],
            "state": "up" if states[key] else "down",
        }
        for key in sorted(states)
    ]
    payload = {"model": model, "observations": observations}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestEmitOutcomes:
    @given(outcome_maps())
    def test_matches_the_json_module(self, case):
        model, states, doc = case
        assert emit_outcomes(model, states, doc) == _json_outcomes(model, states, doc)

    # Each map would be written, or fail with a stray error, without the
    # writer's checks; parse_outcomes could give none of them back.
    @pytest.mark.parametrize(
        "model, states, named",
        [
            ("CAP", {-1: True}, "probe key -1 "),  # would index from the end: "b"
            ("CAP", {True: True}, "probe key True "),  # would write "a"
            ("CAP", {7: True}, "probe key 7 "),  # IndexError
            ("CAP", {1.0: True}, "probe key 1.0 "),  # TypeError
            ("CSP", {0: False, True: True}, "probe key True "),  # a bool second
            ("CSP", {0: False, 1.5: True, 2: True}, "probe key 1.5 "),  # a float inside the range
            ("CAP", {"a": True}, "probe key 'a' "),  # a name, not an id
            ("CAP", {0: True, "a": True}, "probe key 'a' "),  # keys that do not sort
            ("UP", {-1: True}, "probe key -1 "),
            ("UP", {True: True}, "probe key True "),
            ("UP", {0.0: True}, "probe key 0.0 "),
            ("UP", {0: True, 0.5: False, 9: True}, "probe key 0.5 "),
            ("XYZ", {1: True}, "model 'XYZ'"),
        ],
    )
    def test_keys_parse_outcomes_cannot_give_back_raise(self, model, states, named):
        doc = TopologyDocument(("m", "a", "b"), frozenset({0}), frozenset({(0, 1), (1, 2)}))
        with pytest.raises(InputError, match=re.escape(named)):
            emit_outcomes(model, states, doc)

    # A reading is written by lookup, not by its truthiness: "down" is truthy
    # and would have been written as up.
    @pytest.mark.parametrize(
        "model, states, named",
        [
            ("CAP", {1: "down", 2: 0}, "probe 1 reads 'down'"),
            ("CSP", {1: True, 2: None}, "probe 2 reads None"),
            ("CAP", {2: [True]}, "probe 2 reads [True]"),  # unhashable: TypeError
            ("UP", {0: 2}, "probe 0 reads 2"),
        ],
    )
    def test_readings_parse_outcomes_cannot_give_back_raise(self, model, states, named):
        doc = TopologyDocument(("m", "a", "b"), frozenset({0}), frozenset({(0, 1), (1, 2)}))
        with pytest.raises(InputError, match=re.escape(named)):
            emit_outcomes(model, states, doc)

    def test_zero_and_one_write_as_down_and_up(self):
        doc = TopologyDocument(("m", "a", "b"), frozenset({0}), frozenset({(0, 1), (1, 2)}))
        text = emit_outcomes("CAP", {1: 0, 2: 1}, doc)
        assert text == emit_outcomes("CAP", {1: False, 2: True}, doc)
        assert parse_outcomes(text, doc) == ("CAP", {1: 0, 2: 1})


class TestOutcomeTextMemo:
    """Each document value builds its probes' observation texts on its first
    outcome map, node ids and path ids alike, and every later map splices them."""

    @staticmethod
    def _maps(doc, count, seed):
        """Seeded outcome maps on ``doc``: node ids under CAP and CSP; under UP
        path ids, ids just past the path list and a few far beyond it."""
        rng = random.Random(seed)
        readings = (True, False, 1, 0, 1.0, 0.0)
        path_count = len(doc.paths or ())
        for i in range(count):
            model = rng.choice(("CAP", "CSP", "UP"))
            if model == "UP":
                pool = list(range(path_count + 3)) + [10**6 + i]
            else:
                pool = list(range(len(doc.names)))
            keys = rng.sample(pool, rng.randint(0, min(len(pool), 12)))
            yield model, {key: rng.choice(readings) for key in keys}

    # A document with paths, and one with paths=None, whose UP keys all lie past its list.
    @pytest.mark.parametrize("paths", [True, False])
    def test_warm_memo_matches_the_json_module(self, paths):
        doc = erdos_renyi(14, 0.4, seed=3, monitors=4)
        doc = generate_paths(doc, 2) if paths else doc
        maps = list(self._maps(doc, 300, seed=1))
        assert {model for model, _ in maps} == {"CAP", "CSP", "UP"}
        up_keys = {key for model, states in maps if model == "UP" for key in states}
        assert max(up_keys) > 10**6 and len(doc.paths or ()) + 2 in up_keys and 0 in up_keys
        for model, states in maps:
            assert emit_outcomes(model, states, doc) == _json_outcomes(model, states, doc)
        assert len(doc._texts[0]) == len(doc.names) and len(doc._texts[1]) == len(doc.paths or ())

    def test_with_paths_copy_has_its_own_memo(self):
        doc = generate_paths(erdos_renyi(10, 0.5, seed=4, monitors=3), 1)
        for model, states in self._maps(doc, 50, seed=3):
            emit_outcomes(model, states, doc)
        memo = doc._texts
        longer = doc.with_paths(doc.paths + ((0, 1), (1, 0)))
        assert "_texts" not in vars(longer)
        for model, states in self._maps(longer, 100, seed=4):
            assert emit_outcomes(model, states, longer) == _json_outcomes(model, states, longer)
        assert longer._texts is not memo and len(longer._texts[1]) == len(doc.paths) + 2
        assert doc._texts is memo and len(memo[1]) == len(doc.paths)
        # The original still writes its own path list's past-the-end ids as before.
        past = {len(doc.paths): True, len(doc.paths) + 1: False}
        assert emit_outcomes("UP", past, doc) == _json_outcomes("UP", past, doc)

    def test_value_semantics_survive_a_write(self):
        text = emit_topology(generate_paths(erdos_renyi(10, 0.5, seed=5, monitors=3), 1))
        doc, twin = parse_topology(text), parse_topology(text)
        before = (hash(doc), repr(doc))
        for model, states in self._maps(doc, 30, seed=5):
            emit_outcomes(model, states, doc)
        assert "_texts" in vars(doc) and "_texts" not in vars(twin)
        assert doc == twin and (hash(doc), repr(doc)) == before == (hash(twin), repr(twin))
        assert len({doc, twin}) == 1 and parse_topology(emit_topology(doc)) == doc

    def test_built_once_per_value(self, monkeypatch):
        from nodeloc import document

        doc = generate_paths(erdos_renyi(12, 0.4, seed=6, monitors=4), 2)
        quoted = []

        def counted(text):
            quoted.append(text)
            return _quote(text)

        monkeypatch.setattr(document, "_quote", counted)
        maps = list(self._maps(doc, 200, seed=6))
        model, states = maps[0]
        emit_outcomes(model, states, doc)
        memo = doc._texts
        for model, states in maps[1:]:
            emit_outcomes(model, states, doc)
            assert doc._texts is memo
        # Each name is quoted once; each map quotes only its model.
        assert [text for text in quoted if text in doc.names] == list(doc.names)
        assert len(quoted) == len(doc.names) + len(maps)

    def test_a_name_that_is_not_a_string_fails_the_first_write(self):
        # As emit_topology does: the memo quotes every name, written or not.
        doc = TopologyDocument(("m", 1, "b"), frozenset({0}), frozenset({(0, 1), (1, 2)}))
        for write in (lambda: emit_topology(doc), lambda: emit_outcomes("CAP", {2: True}, doc)):
            with pytest.raises(TypeError):
                write()


class TestNoPurePythonEncoder:
    """Outcome maps, reports and CLI answers never enter ``json.encoder``'s
    pure-Python path, which any ``indent`` selects."""

    def test_library_writers(self, monkeypatch):
        from nodeloc.generate import erdos_renyi
        from nodeloc.report import analyze, emit_report

        doc = erdos_renyi(12, 0.4, seed=3, monitors=3)
        _refuse_pure_python_encoder(monkeypatch)
        states = {v: v % 2 == 0 for v in range(len(doc.names)) if v not in doc.monitors}
        for model in ("CAP", "CSP"):
            assert parse_outcomes(emit_outcomes(model, states, doc), doc) == (model, states)
        assert parse_outcomes(emit_outcomes("UP", {0: True, 7: False}, doc), doc)[1] == {0: True, 7: False}
        text = emit_report(analyze(doc, oracle=True, guard=9), "json")
        assert json.loads(text)["report_version"] == 1

    def test_cli_json_output(self, monkeypatch, tmp_path, capsys):
        from nodeloc.cli import main
        from nodeloc.oracle import CAP, simulate_measurements

        doc = erdos_renyi(10, 0.4, seed=2, monitors=3)
        topo = tmp_path / "topo.json"
        topo.write_text(emit_topology(doc), encoding="utf-8")
        outcomes = tmp_path / "obs.json"
        topology = doc.to_topology()
        states = simulate_measurements(topology, CAP, {min(topology.non_monitors)})
        outcomes.write_text(emit_outcomes("CAP", states, doc), encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["analyze", str(topo), "--out", str(report)]) == 0
        _refuse_pure_python_encoder(monkeypatch)
        for argv in (
            ["oracle", str(topo)],
            ["oracle", str(topo), "--k", "1"],
            ["localize", str(topo), str(outcomes), "--k-max", "1"],
            ["report", str(report)],
        ):
            capsys.readouterr()
            assert main(argv) == 0, argv
            out = capsys.readouterr().out
            assert out.endswith("\n") and json.loads(out), argv
        assert out == report.read_text(encoding="utf-8")


class TestPathLines:
    def test_parse_and_skip_noise(self):
        from nodeloc.document import parse_path_lines

        doc = TopologyDocument(
            ("m1", "v1", "v2", "m2"), frozenset({0, 3}), frozenset({(0, 1), (1, 2), (2, 3)})
        )
        text = "m1 v1 v2 m2\n\n# a comment\nm2 v2 v1 m1\n"
        assert parse_path_lines(text, doc) == ((0, 1, 2, 3), (3, 2, 1, 0))

    def test_unknown_name_and_short_line(self):
        from nodeloc.document import parse_path_lines

        doc = parse_topology(MINIMAL)
        with pytest.raises(FormatError, match="line 1"):
            parse_path_lines("m1 ghost\n", doc)
        with pytest.raises(FormatError, match="fewer than two"):
            parse_path_lines("m1\n", doc)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m1 v\nv\n", "path line 2 lists fewer than two nodes"),
            ("m1 v\n\nv ghost m1 phantom\n", "path line 3 references unknown node 'ghost'"),
            ("m1 v\n# m1 ghost\nv phantom\nghost m1\n", "path line 3 references unknown node 'phantom'"),
        ],
    )
    def test_error_messages(self, text, message):
        from nodeloc.document import parse_path_lines

        with pytest.raises(FormatError) as excinfo:
            parse_path_lines(text, parse_topology(MINIMAL))
        assert str(excinfo.value) == message


class TestOutcomes:
    def test_round_trip(self):
        doc = parse_topology(MINIMAL)
        text = emit_outcomes("CAP", {1: False}, doc)
        model, states = parse_outcomes(text, doc)
        assert model == "CAP" and states == {1: False}

    def test_up_probes_are_path_ids(self):
        doc = parse_topology(MINIMAL)
        model, states = parse_outcomes(
            '{"model": "UP", "observations": [{"probe": 0, "state": "down"}]}', doc
        )
        assert model == "UP" and states == {0: False}

    def test_schema_errors(self):
        doc = parse_topology(MINIMAL)
        with pytest.raises(FormatError):
            parse_outcomes('{"model": "XX", "observations": []}', doc)
        with pytest.raises(FormatError):
            parse_outcomes(
                '{"model": "CAP", "observations": [{"probe": "v", "state": "sideways"}]}',
                doc,
            )
        with pytest.raises(FormatError):
            parse_outcomes(
                '{"model": "CAP", "observations": [{"probe": "ghost", "state": "up"}]}',
                doc,
            )
        # JSON booleans are Python ints, yet no path id.
        for probe in ("false", "true"):
            with pytest.raises(FormatError, match="must be a path id"):
                parse_outcomes(
                    '{"model": "UP", "observations": [{"probe": ' + probe + ', "state": "up"}]}',
                    doc,
                )

    @pytest.mark.parametrize(
        "model, observations, message",
        [
            ("CAP", '[{"probe": "v", "state": "up"}, 3]', "observation 1 must be an object"),
            ("CAP", '[{"probe": "v", "state": "UP"}]', "observation 0 state must be up or down"),
            ("CAP", '[{"probe": "v"}]', "observation 0 state must be up or down"),
            ("UP", '[{"probe": 1.0, "state": "up"}]', "observation 0 probe must be a path id"),
            ("UP", '[{"probe": "0", "state": "up"}]', "observation 0 probe must be a path id"),
            ("CSP", '[{"probe": 1, "state": "down"}]', "observation 0 probe must be a node name"),
            ("CAP", '[{"state": "down"}]', "observation 0 probe must be a node name"),
            ("CAP", '[{"probe": "ghost", "state": "up"}]', "unknown node name 'ghost'"),
            (
                "CAP",
                '[{"probe": "v", "state": "up"}, {"probe": "v", "state": "down"}]',
                "observation 1 repeats probe 'v'",
            ),
            (
                "UP",
                '[{"probe": 0, "state": "up"}, {"probe": 0, "state": "up"}]',
                "observation 1 repeats probe 0",
            ),
            # Two faults in one observation: the first check in this order names it.
            ("CAP", '[{"probe": 7, "state": "sideways"}]', "observation 0 state must be up or down"),
            ("UP", '[{"probe": "ghost", "state": 1}]', "observation 0 state must be up or down"),
            (
                "CAP",
                '[{"probe": "v", "state": "up"}, {"probe": ["v"], "state": "up"}]',
                "observation 1 probe must be a node name",
            ),
            (
                "CAP",
                '[{"probe": "v", "state": "up"}, {"probe": "ghost", "state": "up"}]',
                "unknown node name 'ghost'",
            ),
        ],
    )
    def test_observation_error_messages(self, model, observations, message):
        doc = parse_topology(MINIMAL)
        text = f'{{"model": "{model}", "observations": {observations}}}'
        with pytest.raises(FormatError) as excinfo:
            parse_outcomes(text, doc)
        assert str(excinfo.value) == message


class TestGenerators:
    @pytest.mark.parametrize(
        "make, digest",
        [
            (lambda: erdos_renyi(12, 0.3, seed=5, monitors=3),
             "0b2ce176fa7a8c08752d68215feea5b39509162f38e875dd65d253e334dc2658"),
            (lambda: barabasi_albert(12, 2, seed=5, monitor_fraction=0.25),
             "dbafbfc4b9ca7d21d53ca4868c5ff39e08f56a2f0f2c8292f2d2c4f1a81c7f18"),
            (lambda: grid(4, 3, seed=5, monitors=3),
             "8704978ee777f9291082f2baa793cf461801e3253d55a8a271f11dabba696af8"),
        ],
        ids=["er", "ba", "grid"],
    )
    def test_seeded_bytes_are_stable_across_versions(self, make, digest):
        # A seed names one document for good, not just within one run: the
        # digests are literals, so a change to the edge or monitor draws fails.
        assert hashlib.sha256(emit_topology(make()).encode("utf-8")).hexdigest() == digest

    def test_er_determinism(self):
        a = erdos_renyi(6, 0.5, seed=1, monitors=2)
        b = erdos_renyi(6, 0.5, seed=1, monitors=2)
        assert emit_topology(a) == emit_topology(b)
        assert emit_topology(a) != emit_topology(erdos_renyi(6, 0.5, seed=2, monitors=2))

    def test_monitor_count_bounds(self):
        with pytest.raises(UsageError):
            erdos_renyi(4, 0.5, seed=1, monitors=4)
        with pytest.raises(UsageError):
            erdos_renyi(4, 0.5, seed=1, monitors=0)
        with pytest.raises(UsageError):
            erdos_renyi(4, 0.5, seed=1)

    def test_monitor_fraction(self):
        doc = erdos_renyi(8, 0.5, seed=3, monitor_fraction=0.25)
        assert len(doc.monitors) == 2

    def test_grid_shape(self):
        doc = grid(3, 3, seed=7, monitors=4)
        assert len(doc.names) == 9
        assert len(doc.monitors) == 4
        assert len(doc.edges) == 12

    def test_ba_degrees(self):
        doc = barabasi_albert(7, 2, seed=5, monitors=2)
        topo = doc.to_topology()
        # each newcomer brings exactly two edges
        assert len(doc.edges) == 2 * (7 - 2)
        assert all(len(topo.neighbors(v)) >= 2 for v in range(2, 7))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: erdos_renyi(5.5, 0.5, seed=1, monitors=1), "node count must be an integer"),
            (lambda: grid(2.5, 2, seed=1, monitors=1), "grid width must be an integer"),
            (lambda: grid(2, 2.0, seed=1, monitors=1), "grid height must be an integer"),
            (lambda: barabasi_albert(6, 1.5, seed=1, monitors=1), "attachment count must be an integer"),
            (lambda: barabasi_albert(6.0, 1, seed=1, monitors=1), "node count must be an integer"),
            (lambda: erdos_renyi(5, 0.5, seed=1, monitors=2.5), "monitor count must be an integer"),
            (lambda: erdos_renyi(5, 0.5, seed=1, monitors=True), "monitor count must be an integer"),
            (lambda: erdos_renyi(5, "x", seed=1, monitors=1), "edge probability must be a number"),
            (lambda: erdos_renyi(5, True, seed=1, monitors=1), "edge probability must be a number"),
            (
                lambda: erdos_renyi(5, 0.5, seed=1, monitor_fraction=False),
                "monitor fraction must be a number",
            ),
        ],
        ids=[
            "er-nodes", "grid-width", "grid-height", "ba-attach", "ba-nodes", "er-monitors",
            "er-monitors-bool", "er-edge-prob", "er-edge-prob-bool", "er-fraction-bool",
        ],
    )
    def test_arguments_are_never_coerced(self, make, message):
        with pytest.raises(UsageError, match=message):
            make()

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_edge_probability_outside_the_unit_interval(self, p):
        with pytest.raises(UsageError, match=r"edge probability must lie in \[0, 1\]"):
            erdos_renyi(5, p, seed=1, monitors=1)

    def test_monitor_fraction_of_one_leaves_no_non_monitor(self):
        with pytest.raises(UsageError, match="strictly between 0 and 1"):
            erdos_renyi(5, 0.5, seed=1, monitor_fraction=1.0)

    def test_integral_edge_probability_is_accepted(self):
        assert erdos_renyi(4, 1, seed=1, monitors=1) == erdos_renyi(4, 1.0, seed=1, monitors=1)


class TestGeneratePaths:
    def test_unique_shortest_path(self):
        doc = TopologyDocument(
            ("m1", "v1", "v2", "m2"), frozenset({0, 3}), frozenset({(0, 1), (1, 2), (2, 3)})
        )
        out = generate_paths(doc, 1)
        assert out.paths == ((0, 1, 2, 3),)

    def test_two_routes_round_a_cycle(self):
        doc = TopologyDocument(
            ("m1", "v1", "m2", "v2"),
            frozenset({0, 2}),
            frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
        )
        out = generate_paths(doc, 2)
        assert set(out.paths) == {(0, 1, 2), (0, 3, 2)}

    def test_disconnected_monitors_warn(self):
        doc = TopologyDocument(("m1", "v", "m2"), frozenset({0, 2}), frozenset({(0, 1)}))
        with pytest.warns(UserWarning):
            out = generate_paths(doc, 1)
        assert out.paths == ()

    def test_needs_two_monitors(self):
        doc = TopologyDocument(("m1", "v"), frozenset({0}), frozenset({(0, 1)}))
        with pytest.raises(UsageError):
            generate_paths(doc, 1)

    @pytest.mark.parametrize("per_pair", [1.5, True])
    def test_per_pair_must_be_an_integer(self, per_pair):
        doc = TopologyDocument(("m1", "m2"), frozenset({0, 1}), frozenset({(0, 1)}))
        with pytest.raises(UsageError, match="per-pair path count must be an integer"):
            generate_paths(doc, per_pair)

    def test_deterministic_and_lexicographic(self):
        doc = grid(3, 2, seed=11, monitors=2)
        a, b = generate_paths(doc, 3), generate_paths(doc, 3)
        assert a == b
        for path in a.paths:
            topo = doc.to_topology()
            assert path[0] in topo.monitors and path[-1] in topo.monitors
