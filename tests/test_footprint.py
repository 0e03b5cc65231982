"""Import footprint: only hashing a report loads ``hashlib`` (and OpenSSL).

Each case runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, as the
demos run, and reads which of ``hashlib`` and ``_hashlib`` are loaded after
each step.  The oracle, localization, generation, re-emitting a report
and a library session never need a digest; ``analyze`` loads ``hashlib``
for the report's ``input_sha256`` and still writes the golden report byte
for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from nodeloc import emit_outcomes, parse_topology

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


def test_analyze_loads_hashlib_and_writes_the_golden_report(tmp_path):
    out = tmp_path / "ring.report.json"
    script = f"""
from nodeloc import cli
mark()
assert cli.main(["analyze", {str(TOPOLOGY)!r}, "--oracle", "--out", {str(out)!r}]) == 0
mark()
"""
    before, after = _loaded_after_each_mark(script)
    assert before == [] and "hashlib" in after
    assert out.read_bytes() == (GOLDEN / "ring.report.json").read_bytes()
