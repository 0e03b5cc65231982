"""Import footprint: only hashing a large report loads ``hashlib`` (and OpenSSL).

Each case runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, as the
demos run, and reads which of ``hashlib`` and ``_hashlib`` are loaded after
each step.  The oracle, localization, generation, re-emitting a report
and a library session never need a digest.  ``analyze`` hashes a canonical
text under ``report._BUILTIN_SHA256_BELOW`` bytes with the interpreter's
builtin SHA-256, so the golden ring and a 10 KB generated network load
neither module and still write the golden report byte for byte; a text at
or above that size is hashed by ``hashlib``, which is faster per byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from nodeloc import TopologyDocument, emit_outcomes, emit_topology, parse_topology
from nodeloc.report import _BUILTIN_SHA256_BELOW

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
TOPOLOGY = GOLDEN / "ring.topology.json"

_PRELUDE = """\
import json, sys
marks = []
def mark():
    marks.append(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""


def _loaded_after_each_mark(script: str) -> list[list[str]]:
    """Run ``script`` in a fresh interpreter; the watched modules loaded at each ``mark()``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _PRELUDE + script + "\nprint(json.dumps(marks))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _outcomes(tmp_path: Path) -> Path:
    """A CAP outcome map for the ring with v2 down."""
    doc = parse_topology(TOPOLOGY.read_text(encoding="utf-8"))
    path = tmp_path / "outcomes.json"
    path.write_text(emit_outcomes("CAP", {1: True, 2: False, 3: True}, doc), encoding="utf-8")
    return path


def test_importing_the_package_loads_no_hashlib():
    assert _loaded_after_each_mark("import nodeloc, nodeloc.cli\nmark()") == [[]]


def test_oracle_localize_gen_and_report_load_no_hashlib(tmp_path):
    outcomes, out = _outcomes(tmp_path), tmp_path / "out.json"
    script = f"""
from nodeloc import cli
assert cli.main(["oracle", {str(TOPOLOGY)!r}, "--out", {str(out)!r}]) == 0
mark()
assert cli.main(["localize", {str(TOPOLOGY)!r}, {str(outcomes)!r}, "--k-max", "1", "--out", {str(out)!r}]) == 0
mark()
assert cli.main(["gen", "topo", "--model", "er", "--nodes", "6", "--edge-prob", "0.5",
                 "--monitors", "2", "--seed", "1", "--out", {str(out)!r}]) == 0
mark()
assert cli.main(["report", {str(GOLDEN / "ring.report.json")!r}, "--format", "text", "--out", {str(out)!r}]) == 0
mark()
"""
    assert _loaded_after_each_mark(script) == [[], [], [], []]


def test_a_library_session_loads_no_hashlib(tmp_path):
    outcomes = _outcomes(tmp_path)
    script = f"""
import nodeloc as nl
doc = nl.parse_topology(open({str(TOPOLOGY)!r}, encoding="utf-8").read())
kind, states = nl.parse_outcomes(open({str(outcomes)!r}, encoding="utf-8").read(), doc)
assert nl.localize(doc.to_topology(), nl.ProbingModel(kind), states, 1) == [frozenset({{2}})]
mark()
"""
    assert _loaded_after_each_mark(script) == [[]]


def test_analyze_below_the_limit_loads_no_hashlib_and_writes_the_golden_report(tmp_path):
    out, er, er_out = tmp_path / "ring.report.json", tmp_path / "er.json", tmp_path / "er.report.json"
    script = f"""
from nodeloc import cli
assert cli.main(["analyze", {str(TOPOLOGY)!r}, "--oracle", "--out", {str(out)!r}]) == 0
mark()
assert cli.main(["gen", "topo", "--model", "er", "--nodes", "60", "--edge-prob", "0.1",
                 "--monitors", "3", "--seed", "1", "--out", {str(er)!r}]) == 0
assert cli.main(["analyze", {str(er)!r}, "--models", "CAP,CSP", "--out", {str(er_out)!r}]) == 0
mark()
"""
    assert _loaded_after_each_mark(script) == [[], []]
    assert out.read_bytes() == (GOLDEN / "ring.report.json").read_bytes()
    text = er.read_bytes()  # gen writes the canonical text
    assert 8_000 < len(text) < _BUILTIN_SHA256_BELOW
    report = json.loads(er_out.read_text(encoding="utf-8"))
    assert report["provenance"]["input_sha256"] == hashlib.sha256(text).hexdigest()


def test_analyze_at_the_limit_loads_hashlib(tmp_path):
    # m1 - v - m2, v's name long enough that the canonical text reaches the limit
    doc = TopologyDocument(("m1", "v" * (_BUILTIN_SHA256_BELOW // 3), "m2"), frozenset({0, 2}),
                           frozenset({(0, 1), (1, 2)}))
    text = emit_topology(doc).encode("utf-8")
    assert len(text) >= _BUILTIN_SHA256_BELOW
    topo, out = tmp_path / "long.json", tmp_path / "long.report.json"
    topo.write_bytes(text)
    script = f"""
from nodeloc import cli
mark()
assert cli.main(["analyze", {str(topo)!r}, "--out", {str(out)!r}]) == 0
mark()
"""
    before, after = _loaded_after_each_mark(script)
    assert before == [] and "hashlib" in after
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["provenance"]["input_sha256"] == hashlib.sha256(text).hexdigest()
