"""Command-line surface: subcommands, exit codes, determinism."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from nodeloc.cli import _build_parser, main
from nodeloc.document import emit_outcomes, emit_topology, parse_topology
from nodeloc.generate import barabasi_albert, erdos_renyi, generate_paths, grid

from conftest import count_threshold_reads

PATH4_JSON = """
{"version": 1,
 "nodes": [{"name": "m1", "monitor": true}, {"name": "v1", "monitor": false},
           {"name": "v2", "monitor": false}, {"name": "m2", "monitor": true}],
 "edges": [["m1", "v1"], ["v1", "v2"], ["v2", "m2"]]}
"""


@pytest.fixture()
def topo_file(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(PATH4_JSON, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_json_output(self, topo_file, capsys):
        code, out, _ = run(capsys, "analyze", topo_file, "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["models"]["CAP"]["oracle"]["max_identifiability"] == 2

    def test_text_output(self, topo_file, capsys):
        code, out, _ = run(capsys, "analyze", topo_file, "--format", "text")
        assert code == 0 and "model CAP" in out

    def test_determinism(self, topo_file, capsys):
        _, first, _ = run(capsys, "analyze", topo_file, "--oracle")
        _, second, _ = run(capsys, "analyze", topo_file, "--oracle")
        assert first == second

    def test_up_without_paths_exits_2(self, topo_file, capsys):
        code, _, err = run(capsys, "analyze", topo_file, "--models", "UP")
        assert code == 2 and "no paths" in err

    def test_bad_document_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        code, _, err = run(capsys, "analyze", bad)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("entry", ['[["m"], "v"]', '[{"n": 1}, "v"]'])
    def test_non_string_edge_endpoint_exits_2(self, entry, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"version": 1, "nodes": [{"name": "m", "monitor": true},'
            ' {"name": "v", "monitor": false}], "edges": [' + entry + "]}",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "analyze", bad)
        assert code == 2 and "must be a node name" in err

    def test_long_ring_bounds(self, tmp_path, capsys):
        # An 800-node ring with one monitor: the merged graph is a cycle
        # (connectivity 2) and the only leave-one-out graph isolates the
        # virtual monitor (connectivity 0).  Augmenting paths run hundreds
        # of nodes long here.
        n = 800
        ring = tmp_path / "ring800.json"
        ring.write_text(
            json.dumps(
                {
                    "version": 1,
                    "nodes": [{"name": f"v{i}", "monitor": i == 0} for i in range(n)],
                    "edges": [[f"v{i}", f"v{(i + 1) % n}"] for i in range(n)],
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "analyze", ring, "--models", "CAP,CSP")
        assert code == 0
        models = json.loads(out)["models"]
        assert (models["CAP"]["bounds"]["lower"], models["CAP"]["bounds"]["upper"]) == (1, 2)
        assert (models["CSP"]["bounds"]["lower"], models["CSP"]["bounds"]["upper"]) == (0, 0)

    def test_guard_exceeded_exits_3(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gen", "topo", "--model", "er", "--nodes", 12, "--edge-prob", "0.4",
            "--monitors", "2", "--seed", "9",
        )
        assert code == 0
        big = tmp_path / "big.json"
        big.write_text(out, encoding="utf-8")
        code, _, err = run(capsys, "analyze", big, "--oracle")
        assert code == 3 and "guard" in err

    def test_cover_guard_refusal_names_no_flag(self, tmp_path, capsys):
        # no option raises the exact-cover guard, so the message names none
        code, out, _ = run(
            capsys, "gen", "topo", "--model", "grid", "--width", 8, "--height", 8,
            "--monitors", 8, "--seed", 1,
        )
        topo = tmp_path / "grid.json"
        topo.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "gen", "paths", topo, "--per-pair", 2)
        assert code == 0
        topo.write_text(out, encoding="utf-8")
        code, _, err = run(capsys, "analyze", topo, "--models", "UP")
        assert code == 3 and "exact-cover guard" in err
        assert "--guard" not in err and "--oracle" not in err

    def test_cover_guard_refusal_names_the_node_as_the_document_does(self, tmp_path, capsys):
        # the same refusal on a copy whose names are not n<id>: node 5 is "host-58"
        doc = generate_paths(grid(8, 8, seed=1, monitors=8), 2)
        renamed = tmp_path / "renamed.json"
        renamed.write_text(emit_topology(replace(doc, names=tuple(f"host-{63 - i}" for i in range(64)))),
                           encoding="utf-8")
        code, _, err = run(capsys, "analyze", renamed, "--models", "UP")
        assert code == 3 and "node 'host-58': 25 other non-monitors" in err
        assert "node 5" not in err


class TestOracleCommand:
    def test_hub_on_many_routes_answers(self, tmp_path, capsys):
        # m1-ui-v-m2 for 1,200 spokes ui: the hub v's least cover takes all
        # 1,200 spokes, deeper than the interpreter's recursion limit.
        spokes = [f"u{i}" for i in range(1200)]
        doc = {
            "version": 1,
            "nodes": [{"name": name, "monitor": name in ("m1", "m2")} for name in ["m1", "m2", "v", *spokes]],
            "edges": [["v", "m2"]] + [edge for u in spokes for edge in (["m1", u], [u, "v"])],
            "paths": [["m1", u, "v", "m2"] for u in spokes],
        }
        topo = tmp_path / "hub.json"
        topo.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "oracle", topo, "--models", "UP", "--guard", 5000)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"UP": {"max_identifiability": 1}}

    def test_max_identifiability(self, topo_file, capsys):
        code, out, _ = run(capsys, "oracle", topo_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["CAP"]["max_identifiability"] == 2
        assert payload["CSP"]["max_identifiability"] == 0

    def test_default_models_read_d_once(self, tmp_path, capsys, monkeypatch):
        # sigma = 10, d = 3: CAP and CSP both read d, and CSP reads dm given d.
        net = tmp_path / "sigma10.json"
        net.write_text(emit_topology(erdos_renyi(14, 0.3, seed=4, monitors=4)), encoding="utf-8")
        reads = count_threshold_reads(monkeypatch)
        code, out, _ = run(capsys, "--guard", "10", "oracle", net)
        assert code == 0 and json.loads(out).keys() == {"CAP", "CSP"}
        assert reads == ["d", ("dm", 3)]

    def test_specific_k_with_counterexample(self, topo_file, capsys):
        code, out, _ = run(capsys, "oracle", topo_file, "--models", "CSP", "--k", "1")
        payload = json.loads(out)
        assert code == 0 and payload["CSP"]["identifiable"] is False
        assert payload["CSP"]["indistinguishable_pair"] == [["v1"], ["v2"]]

    def test_guard_refusal_names_guard_flag(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gen", "topo", "--model", "er", "--nodes", 10, "--edge-prob", "0.4",
            "--monitors", "2", "--seed", "9",
        )
        big = tmp_path / "sigma8.json"
        big.write_text(out, encoding="utf-8")
        code, _, err = run(capsys, "oracle", big)
        assert code == 3 and "brute-force guard of 7" in err
        assert "--guard" in err and "--oracle" not in err

    def test_guard_still_refuses_a_cap_answer_that_sweeps_nothing(self, tmp_path, capsys):
        # sigma = 35, d = 4: the CAP maximum reads d alone, yet the guard
        # counts non-monitors, so only --guard 35 lets it answer.
        big = tmp_path / "sigma35.json"
        big.write_text(emit_topology(erdos_renyi(40, 0.2, seed=3, monitors=5)), encoding="utf-8")
        code, _, err = run(capsys, "oracle", big, "--models", "CAP")
        assert code == 3 and "brute-force guard of 7" in err and "--guard" in err
        code, out, _ = run(capsys, "--guard", "35", "oracle", big, "--models", "CAP")
        assert code == 0 and json.loads(out)["CAP"]["max_identifiability"] == 4


class TestLocalize:
    def test_round_trip(self, topo_file, tmp_path, capsys):
        doc = parse_topology(PATH4_JSON)
        outcomes = tmp_path / "obs.json"
        outcomes.write_text(
            emit_outcomes("CAP", {1: False, 2: True}, doc), encoding="utf-8"
        )
        code, out, _ = run(capsys, "localize", topo_file, outcomes, "--k-max", "2")
        payload = json.loads(out)
        assert code == 0 and payload["candidates"] == [["v1"]]

    # The canonical map is read by template, the others by the JSON parser.
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_a_reindented_map_answers_byte_for_byte(self, fmt, topo_file, tmp_path, capsys):
        canonical = emit_outcomes("CSP", {1: False, 2: False}, parse_topology(PATH4_JSON))
        answers = []
        for indent in ("canonical", None, 4):
            text = canonical if indent == "canonical" else json.dumps(json.loads(canonical), indent=indent)
            outcomes = tmp_path / f"obs-{indent}.json"
            outcomes.write_text(text, encoding="utf-8")
            answers.append(run(capsys, "localize", topo_file, outcomes, "--k-max", "2", "--format", fmt))
        assert answers[0][0] == 0 and answers[0][1] and answers[1:] == [answers[0]] * 2

    def test_boolean_up_probe_exits_2(self, tmp_path, capsys):
        raw = json.loads(PATH4_JSON)
        raw["paths"] = [["m1", "v1", "v2", "m2"]]
        topo_file = tmp_path / "paths.json"
        topo_file.write_text(json.dumps(raw), encoding="utf-8")
        outcomes = tmp_path / "obs.json"
        outcomes.write_text(
            '{"model": "UP", "observations": [{"probe": false, "state": "up"}]}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, "localize", topo_file, outcomes, "--k-max", "1")
        assert code == 2 and "must be a path id" in err and out == ""


class TestGen:
    def test_topo_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "gen", "topo", "--model", "er", "--nodes", 6, "--edge-prob", "0.5",
            "--monitors", "2",
        )
        assert code == 2 and "--seed" in err

    def test_topo_monitor_overflow_exits_2(self, capsys):
        code, _, err = run(
            capsys, "gen", "topo", "--model", "er", "--nodes", 4, "--edge-prob", "0.5",
            "--monitors", "4", "--seed", "1",
        )
        assert code == 2 and "non-monitor" in err

    def test_topo_byte_determinism(self, capsys):
        args = (
            "gen", "topo", "--model", "grid", "--width", "3", "--height", "3",
            "--monitors", "4", "--seed", "7",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        doc = parse_topology(first)
        assert len(doc.monitors) == 4 and len(doc.names) == 9

    @pytest.mark.parametrize(
        "argv, make",
        [
            (
                ("--model", "er", "--nodes", 7, "--edge-prob", "0.4", "--monitors", 2, "--seed", 3),
                lambda: erdos_renyi(7, 0.4, seed=3, monitors=2),
            ),
            (
                ("--model", "ba", "--nodes", 8, "--attach", 2, "--monitor-fraction", "0.25",
                 "--seed", 5),
                lambda: barabasi_albert(8, 2, seed=5, monitor_fraction=0.25),
            ),
            (
                ("--model", "grid", "--width", 3, "--height", 4, "--monitors", 3, "--seed", 7),
                lambda: grid(3, 4, seed=7, monitors=3),
            ),
        ],
        ids=["er", "ba", "grid"],
    )
    def test_topo_is_the_library_generator(self, argv, make, capsys):
        code, out, _ = run(capsys, "gen", "topo", *argv)
        assert (code, out) == (0, emit_topology(make()))

    @pytest.mark.parametrize(
        "model, given, message",
        [
            ("er", ("--nodes", 6), "er needs --nodes and --edge-prob"),
            ("ba", ("--attach", 2), "ba needs --nodes and --attach"),
            ("grid", ("--width", 3), "grid needs --width and --height"),
        ],
    )
    def test_topo_missing_model_flags_exit_2(self, model, given, message, capsys):
        code, out, err = run(
            capsys, "gen", "topo", "--model", model, *given, "--monitors", 1, "--seed", 1
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_paths_pipeline(self, topo_file, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "paths", topo_file, "--per-pair", "1")
        assert code == 0
        doc = parse_topology(out)
        assert doc.paths == ((0, 1, 2, 3),)


class TestPathsFlag:
    def test_text_path_file_enables_up(self, topo_file, tmp_path, capsys):
        paths = tmp_path / "paths.txt"
        paths.write_text("m1 v1 v2 m2\n# noise\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "analyze", topo_file, "--paths", paths, "--models", "UP", "--oracle"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["models"]["UP"]["cover_profile"]["sizes"] == {"v1": 1, "v2": 1}

    def test_invalid_path_file_exits_2(self, topo_file, tmp_path, capsys):
        paths = tmp_path / "paths.txt"
        paths.write_text("m1 v2 m2\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", topo_file, "--paths", paths, "--models", "UP")
        assert code == 2 and "missing edge" in err


class TestReportCommand:
    def test_reemit_text(self, topo_file, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", topo_file)
        report = tmp_path / "r.json"
        report.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "report", report, "--format", "text")
        assert code == 0 and "model CSP" in out

    def test_rejects_non_report(self, topo_file, capsys):
        code, _, err = run(capsys, "report", topo_file)
        assert code == 2 and "report_version" in err

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_rejects_a_version_nodeloc_never_writes(self, version, topo_file, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", topo_file)
        report = tmp_path / "r.json"
        report.write_text(out.replace('"report_version": 1,', f'"report_version": {version},'), encoding="utf-8")
        assert f'"report_version": {version},' in report.read_text(encoding="utf-8")
        code, out, err = run(capsys, "report", report)
        assert code == 2 and out == "" and "report_version" in err


def test_unexpected_failure_exits_4(topo_file, capsys, monkeypatch):
    import nodeloc.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "analyze", boom)
    code, _, err = run(capsys, "analyze", topo_file)
    assert code == 4 and "internal error" in err


def test_oracle_maximum_outside_the_bounds_exits_4(topo_file, capsys, monkeypatch):
    # PATH4's CAP bounds are [2, 2]: an oracle answer of 1 is a bug in one of the two.
    import nodeloc.report as report

    monkeypatch.setattr(report, "max_identifiability", lambda topology, model, guard: 1)
    code, out, err = run(capsys, "analyze", topo_file, "--oracle", "--models", "CAP")
    assert code == 4 and out == ""
    assert "internal error" in err and "CAP oracle result 1 escapes the reported bounds [2, 2]" in err


def test_out_flag_writes_file(topo_file, tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "analyze", topo_file, "--out", target)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["sigma"] == 2


class TestParserReuse:
    def test_parser_is_built_once(self):
        from nodeloc.cli import _build_parser

        assert _build_parser() is _build_parser()

    def test_no_option_leaks_into_the_next_call(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gen", "topo", "--model", "er", "--nodes", 10, "--edge-prob", "0.4",
            "--monitors", "2", "--seed", "9",
        )
        big = tmp_path / "sigma8.json"
        big.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "--guard", "9", "oracle", big)
        assert code == 0 and "max_identifiability" in out
        code, _, err = run(capsys, "oracle", big)
        assert code == 3 and "brute-force guard of 7" in err


# One argv per leaf subcommand; parsing never opens the files named.
LEAF_ARGV = {
    "analyze": ("analyze", "t.json"),
    "oracle": ("oracle", "t.json"),
    "localize": ("localize", "t.json", "o.json", "--k-max", "1"),
    "gen-topo": ("gen", "topo", "--model", "er"),
    "gen-paths": ("gen", "paths", "t.json", "--per-pair", "1"),
    "report": ("report", "r.json"),
}


class TestGlobalFlags:
    @pytest.mark.parametrize("leaf", LEAF_ARGV)
    @pytest.mark.parametrize(
        "flag, value, dest, want",
        [("--seed", "5", "seed", 5), ("--guard", "9", "guard", 9), ("--format", "text", "format", "text")],
        ids=["seed", "guard", "format"],
    )
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_either_side_of_the_subcommand(self, leaf, flag, value, dest, want, before):
        argv = LEAF_ARGV[leaf]
        argv = (flag, value, *argv) if before else (*argv, flag, value)
        assert getattr(_build_parser().parse_args(argv), dest) == want

    @pytest.mark.parametrize("leaf", LEAF_ARGV)
    def test_defaults(self, leaf):
        args = _build_parser().parse_args(LEAF_ARGV[leaf])
        assert (args.seed, args.guard, args.format) == (None, 7, "json")

    @pytest.mark.parametrize(
        "argv",
        [
            (*LEAF_ARGV["localize"], "--models", "CAP"),
            (*LEAF_ARGV["gen-paths"], "--paths", "x"),
            (*LEAF_ARGV["gen-topo"], "--paths", "x"),
            (*LEAF_ARGV["report"], "--models", "CAP"),
        ],
        ids=["localize-models", "gen-paths-paths", "gen-topo-paths", "report-models"],
    )
    def test_no_subcommand_gains_a_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


class TestBadFilesExit2:
    def test_unwritable_out(self, topo_file, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "analyze", topo_file, "--out", target)
        assert code == 2 and "cannot write" in err and out == ""

    def test_non_utf8_topology(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"version": 1, "nodes": [{"name": "caf\xe9"}]}')
        code, _, err = run(capsys, "analyze", bad)
        assert code == 2 and "UTF-8" in err

    def test_deeply_nested_topology(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000, encoding="utf-8")
        code, _, err = run(capsys, "analyze", bad)
        assert code == 2 and "not valid JSON" in err

    def test_report_without_report_fields(self, tmp_path, capsys):
        bad = tmp_path / "hollow.json"
        bad.write_text('{"report_version": 1}', encoding="utf-8")
        for fmt in ("text", "json"):
            code, _, err = run(capsys, "report", bad, "--format", fmt)
            assert code == 2 and "malformed nodeloc report" in err, fmt


HEADER = """node failure identifiability report
tool: nodeloc 0.1.0
input sha256: {sha}
nodes: 4  monitors: m1, m2  non-monitors: 2
"""

CAP_FORMULA = (
    "  max identifiability in [2, 2] exact 2  [formula guard failed]  (merged-graph"
    " connectivity 2 exceeds sigma-1=1; the connectivity bound is stated only below"
    " that threshold)\n"
)
CSP_FORMULA = (
    "  max identifiability in [0, 0] exact 0  [formula guard failed]  (min(leave-one-out 1,"
    " merged-1 1) exceeds sigma-2=0; the connectivity bound is stated only below that"
    " threshold)\n"
)
PATH4_SHA = "b764889d323573f19ed0c1e1ea60e8a5b19b1ebd0c2f513ace9abd3b5e2fb176"


class TestTextOutput:
    def test_k_range_restricts_the_table(self, topo_file, capsys):
        code, out, _ = run(capsys, "analyze", topo_file, "--k-range", "1:2", "--format", "text")
        assert code == 0
        assert out == HEADER.format(sha=PATH4_SHA) + (
            "\nmodel CAP\n"
            "  k  verdict           sufficient  necessary  rationale\n"
            "  1  identifiable      yes         yes        merged-graph-connectivity\n"
            "  2  identifiable      yes         yes        full-budget-monitor-adjacency\n"
            + CAP_FORMULA
            + "\nmodel CSP\n"
            "  k  verdict           sufficient  necessary  rationale\n"
            "  1  not-identifiable  no          no         near-full-budget-characterization\n"
            "  2  not-identifiable  no          no         full-budget-two-monitor-adjacency\n"
            + CSP_FORMULA
        )

    @pytest.mark.parametrize("bad", ["3", "a:b"])
    def test_malformed_k_range_exits_2(self, bad, topo_file, capsys):
        code, out, err = run(capsys, "analyze", topo_file, "--k-range", bad)
        assert (code, out) == (2, "")
        assert err == f"error: bad --k-range {bad!r}; expected LO:HI\n"

    def test_analyze_oracle_line(self, topo_file, capsys):
        code, out, _ = run(capsys, "analyze", topo_file, "--oracle", "--format", "text")
        assert code == 0
        assert out == HEADER.format(sha=PATH4_SHA) + (
            "\nmodel CAP\n"
            "  k  verdict           sufficient  necessary  rationale\n"
            "  0  identifiable      yes         yes        empty-failure-set\n"
            "  1  identifiable      yes         yes        merged-graph-connectivity\n"
            "  2  identifiable      yes         yes        full-budget-monitor-adjacency\n"
            + CAP_FORMULA
            + "  oracle max identifiability: 2\n"
            "\nmodel CSP\n"
            "  k  verdict           sufficient  necessary  rationale\n"
            "  0  identifiable      yes         yes        empty-failure-set\n"
            "  1  not-identifiable  no          no         near-full-budget-characterization\n"
            "  2  not-identifiable  no          no         full-budget-two-monitor-adjacency\n"
            + CSP_FORMULA
            + "  oracle max identifiability: 0\n"
        )

    def test_analyze_up_cover_lines(self, topo_file, tmp_path, capsys):
        # The walk m1 v1 m1 leaves v2 on no path, and nothing else covers v1.
        paths = tmp_path / "paths.txt"
        paths.write_text("m1 v1 m1\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "analyze", topo_file, "--paths", paths, "--models", "UP", "--oracle",
            "--format", "text",
        )
        assert code == 0
        sha = "99b5fca175223f46578db491cc09c306cafe5d36f3408c6315c6126956545149"
        assert out == HEADER.format(sha=sha) + (
            "\nmodel UP\n"
            "  k  verdict           sufficient  necessary  rationale\n"
            "  0  identifiable      yes         yes        empty-failure-set\n"
            "  1  not-identifiable  no          no         cover-size-threshold\n"
            "  2  not-identifiable  no          no         cover-size-threshold\n"
            "  max identifiability in [0, 0] exact 0\n"
            "  oracle max identifiability: 0\n"
            "  cover sizes: v1=inf, v2=0  (min 0)\n"
            "  unobserved nodes: v2\n"
        )

    def test_oracle_max(self, topo_file, capsys):
        code, out, _ = run(capsys, "oracle", topo_file, "--format", "text")
        assert (code, out) == (0, "CAP: max identifiability 2\nCSP: max identifiability 0\n")

    def test_oracle_k_with_counterexample(self, topo_file, capsys):
        code, out, _ = run(capsys, "oracle", topo_file, "--k", "1", "--format", "text")
        assert (code, out) == (
            0,
            "CAP: k=1 identifiable: yes\nCSP: k=1 identifiable: no\n"
            "  counterexample: {v1} vs {v2}\n",
        )

    @pytest.mark.parametrize(
        "kind, states, k_max, want",
        [
            ("CSP", {1: False, 2: False}, 2, "{v1}\n{v2}\n{v1, v2}\n"),
            ("CAP", {1: True, 2: False}, 0, "(no consistent failure set)\n"),
        ],
    )
    def test_localize_candidates(self, kind, states, k_max, want, topo_file, tmp_path, capsys):
        outcomes = tmp_path / "obs.json"
        outcomes.write_text(emit_outcomes(kind, states, parse_topology(PATH4_JSON)), encoding="utf-8")
        code, out, _ = run(
            capsys, "localize", topo_file, outcomes, "--k-max", k_max, "--format", "text"
        )
        assert (code, out) == (0, want)


class TestUsageErrorsExit2:
    def test_empty_models_list(self, topo_file, capsys):
        code, out, err = run(capsys, "analyze", topo_file, "--models", ",")
        assert (code, out, err) == (2, "", "error: empty --models list\n")

    def test_unreadable_topology(self, tmp_path, capsys):
        code, out, err = run(capsys, "analyze", tmp_path / "missing.json")
        assert (code, out) == (2, "") and err.startswith("error: cannot read ")

    @pytest.mark.parametrize(
        "argv, kind",
        [(("analyze", "--models", "CAP,CAP"), "CAP"), (("oracle", "--models", "CSP,csp"), "CSP")],
    )
    def test_repeated_model(self, argv, kind, topo_file, capsys):
        command, *rest = argv
        code, out, err = run(capsys, command, topo_file, *rest)
        assert (code, out) == (2, "")
        assert err == f"error: probing model {kind!r} is repeated\n"

    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    def test_unknown_model(self, command, topo_file, capsys):
        code, out, err = run(capsys, command, topo_file, "--models", "CAP,XYZ")
        assert (code, out, err) == (2, "", "error: unknown probing model 'XYZ'\n")
