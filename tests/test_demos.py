"""Every demo script runs to completion and prints its pinned output.

The goldens under ``tests/golden/demos`` are the scripts' stdout; a change
that alters any verdict, bound or oracle value a demo prints shows up here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert done.stdout == (GOLDEN / f"{script.stem}.txt").read_bytes()
