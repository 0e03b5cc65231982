"""Analysis reports: content, determinism, and monotonicity validation."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nodeloc.document import TopologyDocument, parse_topology
from nodeloc.errors import CapacityError, FormatError, NodelocError, UsageError
from nodeloc.generate import erdos_renyi, generate_paths
from nodeloc.report import analyze, emit_report, reformat_report

from conftest import count_threshold_reads
from test_document import documents

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

        # The shared summaries give what the public functions give one by one.
        topology = doc.to_topology()
        for kind, verdicts, bounds in (
            ("CAP", conditions.cap_verdicts(topology), conditions.cap_bounds(topology)),
            ("CSP", conditions.csp_verdicts(topology), conditions.csp_bounds(topology)),
        ):
            entry = report["models"][kind]
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


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestReportWriter:
    """``emit_report`` writes each distinct verdict row from one template, and
    its JSON stays ``json.dumps(indent=2, sort_keys=True)``'s text."""

    @pytest.mark.filterwarnings("ignore:no monitor-to-monitor path")
    @settings(max_examples=150, deadline=None)
    @given(documents(), st.data())
    def test_matches_the_json_module(self, doc, data):
        models = data.draw(
            st.sampled_from([None, ("CAP",), ("CSP",), ("UP",), ("CSP", "CAP"), ("CAP", "CSP", "UP")])
        )
        walks = data.draw(st.booleans())  # paths that are walks, so UP usually runs
        ends = st.integers(0, max(len(doc.names) - len(doc.monitors), 0))
        k_range = data.draw(st.none() | st.tuples(ends, ends).map(lambda pair: tuple(sorted(pair))))
        try:
            report = analyze(generate_paths(doc, 1) if walks else doc, models=models, k_range=k_range)
        except NodelocError:
            assume(False)
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
