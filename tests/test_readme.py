"""The README's library quick start runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_its_comments():
    block = _quick_start()
    lines = block.splitlines()
    # Each print is followed by one comment line holding its exact output.
    prints = [i for i, line in enumerate(lines) if line.startswith("print(")]
    assert len(prints) == 3
    assert all(lines[i + 1].startswith("# ") for i in prints)
    want = [lines[i + 1].removeprefix("# ") for i in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
