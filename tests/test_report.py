"""Analysis reports: content, determinism and the report writer."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodeloc.document import TopologyDocument, emit_topology, parse_topology
from nodeloc.ensemble import cover_profile
from nodeloc.errors import CapacityError, FormatError, UsageError
from nodeloc.generate import erdos_renyi, generate_paths, grid
from nodeloc.oracle import CAP, CSP
from nodeloc.report import _BUILTIN_SHA256, _BUILTIN_SHA256_BELOW, analyze, emit_report, reformat_report

from conftest import count_threshold_reads
from test_document import awkward_names

PATH4 = TopologyDocument(
    ("m1", "v1", "v2", "m2"), frozenset({0, 3}), frozenset({(0, 1), (1, 2), (2, 3)})
)
RING = TopologyDocument(
    ("m", "v1", "v2", "v3"),
    frozenset({0}),
    frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}),
)
GOLDEN_DIR = Path(__file__).parent / "golden"
UP_DOC = TopologyDocument(
    ("m1", "v1", "v2", "m2"),
    frozenset({0, 3}),
    frozenset({(0, 1), (1, 3), (1, 2), (2, 3)}),
    paths=((0, 1, 3), (0, 1, 2, 3)),
)


class TestAnalyze:
    def test_path4_cap_table(self):
        report = analyze(PATH4, oracle=True)
        payload = json.loads(emit_report(report, "json"))
        cap = payload["models"]["CAP"]
        assert [row["value"] for row in cap["verdicts"]] == ["identifiable"] * 3
        assert cap["bounds"]["exact"] == 2
        assert cap["oracle"]["max_identifiability"] == 2

    def test_ring_cap_bounds_and_oracle(self):
        report = analyze(RING, models=("CAP",), oracle=True)
        payload = json.loads(emit_report(report, "json"))
        cap = payload["models"]["CAP"]
        assert (cap["bounds"]["lower"], cap["bounds"]["upper"]) == (1, 2)
        assert cap["oracle"]["max_identifiability"] == 2

    def test_up_section(self):
        report = analyze(UP_DOC, oracle=True)
        payload = json.loads(emit_report(report, "json"))
        up = payload["models"]["UP"]
        assert up["bounds"] == {
            "lower": 0,
            "upper": 1,
            "exact": None,
            "applicable": True,
            "guard_note": "",
        }
        assert up["oracle"]["max_identifiability"] == 1
        assert up["cover_profile"]["sizes"] == {"v1": "inf", "v2": 1}
        assert up["cover_profile"]["min_cover"] == 1

    def test_default_models_follow_paths(self):
        assert set(json.loads(emit_report(analyze(PATH4), "json"))["models"]) == {"CAP", "CSP"}
        assert set(json.loads(emit_report(analyze(UP_DOC), "json"))["models"]) == {
            "CAP",
            "CSP",
            "UP",
        }

    def test_up_without_paths_is_a_usage_error(self):
        with pytest.raises(UsageError):
            analyze(PATH4, models=("UP",))

    @pytest.mark.parametrize("models", [("CAP", "CAP"), ("UP", "CSP", "UP")])
    def test_repeated_model_is_a_usage_error(self, models):
        with pytest.raises(UsageError, match=f"probing model '{models[0]}' is repeated"):
            analyze(UP_DOC, models=models)

    @pytest.mark.parametrize("models", [(), []])
    def test_empty_model_list_is_a_usage_error(self, models):
        # The same refusal as the CLI's empty --models.
        with pytest.raises(UsageError, match="^empty --models list$"):
            analyze(UP_DOC, models=models)

    def test_k_range_restricts_table(self):
        report = analyze(PATH4, k_range=(1, 2))
        payload = json.loads(emit_report(report, "json"))
        assert [row["k"] for row in payload["models"]["CAP"]["verdicts"]] == [1, 2]
        with pytest.raises(UsageError):
            analyze(PATH4, k_range=(0, 9))

    def test_one_connectivity_per_auxiliary_graph(self, monkeypatch):
        import nodeloc.conditions as conditions
        import nodeloc.graph as graph
        from nodeloc.generate import erdos_renyi

        doc = erdos_renyi(20, 0.3, seed=5, monitors=4)
        graphs = []
        capped = graph._capped_connectivity

        def counted(topology, left_out, cap):
            graphs.append((left_out, cap))
            return capped(topology, left_out, cap)

        reads = count_threshold_reads(monkeypatch)
        monkeypatch.setattr(graph, "_capped_connectivity", counted)
        report = analyze(doc, models=("CAP", "CSP"))
        # d = 2 < sigma = 16: one read of d and one of dm given d, whose cap
        # d - 1 = 1 is decided by one components pass of G - M, so the merged
        # graph is the only auxiliary graph whose connectivity is computed.
        assert reads == ["d", ("dm", 2)]
        assert graphs == [(None, 16)]
        # The oracle's answers read the same value's d and dm.
        del reads[:], graphs[:]
        assert analyze(doc, models=("CAP", "CSP"), oracle=True, guard=16)["models"].keys() == {"CAP", "CSP"}
        assert reads == ["d", ("dm", 2)]
        assert graphs == [(None, 16)]

        # The shared summaries give what the public function gives one by one.
        topology = doc.to_topology()
        for model in (CAP, CSP):
            verdicts, bounds = conditions.verdict_table(topology, model)
            entry = report["models"][model.kind]
            assert [
                (row["k"], row["value"], row["sufficient"], row["necessary"], row["rationale"])
                for row in entry["verdicts"]
            ] == [
                (k, v.value.value, v.sufficient_holds, v.necessary_holds, v.rationale)
                for k, v in enumerate(verdicts)
            ]
            assert entry["bounds"] == dataclasses.asdict(bounds)

    @pytest.mark.parametrize("oracle", ["yes", 1, None])
    def test_oracle_flag_must_be_a_bool(self, oracle):
        with pytest.raises(UsageError, match="oracle must be a bool"):
            analyze(PATH4, oracle=oracle)

    def test_oracle_guard(self):
        from nodeloc.generate import erdos_renyi

        big = erdos_renyi(12, 0.4, seed=3, monitors=2)
        with pytest.raises(CapacityError):
            analyze(big, oracle=True)
        analyze(big, oracle=False)  # conditions alone stay polynomial


class TestEmission:
    def test_byte_identical_reports(self):
        a = emit_report(analyze(UP_DOC, oracle=True), "json")
        b = emit_report(analyze(UP_DOC, oracle=True), "json")
        assert a == b

    @pytest.mark.parametrize(
        "doc",
        [
            *(
                parse_topology((GOLDEN_DIR / f"{name}.topology.json").read_text())
                for name in ("chain", "ring", "hop", "twopaths")
            ),
            UP_DOC,
        ],
        ids=["chain", "ring", "hop", "twopaths", "up_doc"],
    )
    def test_report_is_plain_json(self, doc):
        # A tuple, frozenset or dataclass in the report would not survive the round trip.
        report = analyze(doc, oracle=True)
        assert report == json.loads(emit_report(report, "json"))
        if doc.paths is not None:
            assert doc.to_ensemble().paths == doc.paths

    def test_json_round_trips(self):
        payload = json.loads(emit_report(analyze(PATH4), "json"))
        assert payload["report_version"] == 1
        assert payload["provenance"]["input_sha256"]

    def test_text_lists_all_k_rows(self):
        text = emit_report(analyze(RING, models=("CAP",)), "text")
        for k in range(4):
            assert f"\n  {k} " in text

    def test_reformat_report(self):
        data = emit_report(analyze(PATH4), "json")
        assert reformat_report(data, "json") == data
        assert "model CAP" in reformat_report(data, "text")
        with pytest.raises(FormatError):
            reformat_report("{}", "text")

    def test_monotone_tables_on_corpus(self, corpus):
        for doc in corpus[:40]:
            payload = json.loads(emit_report(analyze(doc), "json"))
            for entry in payload["models"].values():
                dead = False
                for row in entry["verdicts"]:
                    if dead:
                        assert row["value"] == "not-identifiable"
                    dead = dead or row["value"] == "not-identifiable"


def _path4_of_length(size: int) -> TopologyDocument:
    """PATH4 renamed so that its canonical text is exactly ``size`` bytes long:
    v1's name is written three times (its node and two edges), m1's twice."""
    extra = size - len(emit_topology(PATH4))
    pad_v1, pad_m1 = {0: (extra // 3, 0), 1: (extra // 3 - 1, 2), 2: (extra // 3, 1)}[extra % 3]
    return dataclasses.replace(PATH4, names=("m1" + "m" * pad_m1, "v1" + "v" * pad_v1, "v2", "m2"))


class TestInputDigest:
    """``input_sha256`` is hashlib's SHA-256 of the canonical text on both sides
    of the size limit: the builtin module below it, ``hashlib`` from it on."""

    @pytest.mark.parametrize("delta", [-1, 0, 1], ids=["below", "at", "above"])
    def test_digest_on_both_sides_of_the_limit(self, delta, monkeypatch):
        size = _BUILTIN_SHA256_BELOW + delta
        doc = _path4_of_length(size)
        text = emit_topology(doc).encode("utf-8")
        assert len(text) == size
        if delta < 0:  # hashlib must not be imported
            monkeypatch.setitem(sys.modules, "hashlib", None)
        else:  # the builtin must not be called
            monkeypatch.setitem(sys.modules, _BUILTIN_SHA256, types.ModuleType("no_sha256"))
        digest = analyze(doc, models=("CAP",))["provenance"]["input_sha256"]
        assert digest == hashlib.sha256(text).hexdigest()

    def test_without_a_builtin_module_hashlib_hashes_every_size(self, monkeypatch):
        golden = json.loads((GOLDEN_DIR / "ring.report.json").read_text(encoding="utf-8"))
        doc = parse_topology((GOLDEN_DIR / "ring.topology.json").read_text(encoding="utf-8"))
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
        report = analyze(doc)
        assert report["provenance"]["input_sha256"] == golden["provenance"]["input_sha256"]


def test_cover_refusal_names_the_node_as_the_document_does():
    # The 8x8 grid's node 5 is the first over the exact-cover guard; renamed,
    # the report's refusal gives its document name, and cover_profile its id.
    doc = generate_paths(grid(8, 8, seed=1, monitors=8), 2)
    doc = dataclasses.replace(doc, names=tuple(f"router-{i * 7}" for i in range(len(doc.names))))
    with pytest.raises(CapacityError) as refused:
        analyze(doc, models=("UP",))
    message = str(refused.value)
    assert message.startswith("node 'router-35': 25 other non-monitors on its paths exceed the exact-cover guard")
    assert "node 5" not in message
    with pytest.raises(CapacityError, match="^node 5: 25 other non-monitors"):
        cover_profile(doc.to_ensemble())


@st.composite
def analyzable_documents(draw) -> TopologyDocument:
    """Documents ``analyze`` accepts: awkward names, at least one monitor and
    one non-monitor, any edges, and no paths."""
    names = draw(st.lists(awkward_names, min_size=2, max_size=8, unique=True))
    n = len(names)
    monitors = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    edges = draw(st.sets(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)])))
    return TopologyDocument(tuple(names), frozenset(monitors), frozenset(edges))


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestReportWriter:
    """``emit_report`` writes each distinct verdict row from one template, and
    its JSON stays ``json.dumps(indent=2, sort_keys=True)``'s text."""

    @pytest.mark.filterwarnings("ignore:no monitor-to-monitor path")
    @settings(max_examples=150, deadline=None)
    @given(analyzable_documents(), st.data())
    def test_matches_the_json_module(self, doc, data):
        # Walks only between two monitors, and UP only over walks: every draw is analyzed.
        walks = len(doc.monitors) >= 2 and data.draw(st.booleans())
        models = data.draw(
            st.sampled_from([None, ("CAP",), ("CSP",), ("CSP", "CAP")] + [("UP",), ("CAP", "CSP", "UP")] * walks)
        )
        ends = st.integers(0, len(doc.names) - len(doc.monitors))
        k_range = data.draw(st.none() | st.tuples(ends, ends).map(lambda pair: tuple(sorted(pair))))
        report = analyze(generate_paths(doc, 1) if walks else doc, models=models, k_range=k_range)
        assert emit_report(report, "json") == _dumps(report)

    def test_matches_the_json_module_on_long_tables(self):
        doc = generate_paths(erdos_renyi(24, 0.25, seed=7, monitors=4), 1)
        for k_range in (None, (3, 12), (20, 20)):
            report = analyze(doc, models=("CAP", "CSP", "UP"), k_range=k_range)
            assert emit_report(report, "json") == _dumps(report)

    # Row 4 of the CAP table of erdos_renyi(20, 0.3, seed=5, monitors=4)
    # (d = 2) repeats row 3 but for k, so a break the schema check let
    # through would be written from row 3's template: 0 equals False.
    SCHEMA_BREAKS = {
        "float-k": lambda rows: rows[4].update(k=4.0),
        "bool-k": lambda rows: rows[4].update(k=True),
        "int-sufficient": lambda rows: rows[4].update(sufficient=0),
        "int-necessary": lambda rows: rows[4].update(necessary=0),
        "int-value": lambda rows: rows[4].update(value=5),
        "extra-key": lambda rows: rows[4].update(extra=None),
        "missing-key": lambda rows: rows[4].pop("rationale"),
        "row-not-a-dict": lambda rows: rows.__setitem__(4, [4, "not-identifiable"]),
    }

    @pytest.mark.parametrize("name", sorted(SCHEMA_BREAKS))
    def test_rows_off_the_schema_are_laid_out_in_full(self, name):
        payload = json.loads(emit_report(analyze(erdos_renyi(20, 0.3, seed=5, monitors=4)), "json"))
        rows = payload["models"]["CAP"]["verdicts"]
        assert {key: value for key, value in rows[3].items() if key != "k"} == {
            key: value for key, value in rows[4].items() if key != "k"
        }
        self.SCHEMA_BREAKS[name](rows)
        text = _dumps(payload)
        assert emit_report(payload, "json") == text
        if name in ("missing-key", "row-not-a-dict"):
            # The text rendering reads every row field, so such a file is refused.
            with pytest.raises(FormatError, match="malformed"):
                reformat_report(text, "json")
        else:
            assert reformat_report(text, "json") == text

    def test_verdicts_that_are_not_a_list(self):
        payload = json.loads(emit_report(analyze(PATH4), "json"))
        payload["models"]["CAP"]["verdicts"] = {}
        payload["models"]["CSP"]["verdicts"] = []
        text = _dumps(payload)
        assert emit_report(payload, "json") == reformat_report(text, "json") == text


def test_all_monitor_document_is_a_usage_error():
    doc = TopologyDocument(("a", "b"), frozenset({0, 1}), frozenset({(0, 1)}))
    with pytest.raises(UsageError, match="no failures"):
        analyze(doc)
