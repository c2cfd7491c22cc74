"""Smoke tests for scripts/: each runs as a subprocess and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

from softbounds.propagation import ENFORCERS

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_compare_consistencies_runs():
    lines = _run("compare_consistencies.py", "--seeds", "1")
    assert lines[0].split() == ["instance", "mode", "w0", "empty", "nodes", "backtracks", "ms"]
    rows = [line.split() for line in lines[2:] if line]
    assert [row[1] for row in rows] == list(ENFORCERS)
