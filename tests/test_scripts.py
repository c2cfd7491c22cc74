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


def test_scale_search_runs():
    lines = _run("scale_search.py", "--n", "8", "16", "--node-limit", "50")
    assert lines[0].split() == ["n", "mode", "status", "nodes", "solve_s", "check_share"]
    rows = [line.split() for line in lines[2:]]
    assert [(row[0], row[1]) for row in rows] == [
        (n, mode) for n in ("8", "16") for mode in ("bac", "bac0", "nc")
    ]
    for row in rows:
        assert int(row[3]) <= 50 and 0.0 <= float(row[5]) <= 1.0, row
        if row[1] == "bac0":
            assert float(row[5]) == 0.0, row
