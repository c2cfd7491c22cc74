#!/usr/bin/env python3
"""Time each CLI command as a child process, where start-up dominates.

Writes a small instance (`gen_random(n=4, d=5, e=3, seed=1)`) to a
temporary file, runs `python -m softbounds <command> ...` on it --runs
times per command, interleaving the commands, and prints each command's
median wall time and the `softbounds` modules one more run of it loads (read
from `-X importtime`). Only `verify` should load `oracle`, and only `reify`
should load `reify`.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

import softbounds
from softbounds.fileformat import emit
from softbounds.generators import gen_random


def commands(path: str):
    return {
        "propagate": ["propagate", path, "--json"],
        "solve": ["solve", path, "--json"],
        "gen": ["gen", "random", "--n", "4", "--d", "5", "--e", "3"],
        "verify": ["verify", path, "--json"],
        "reify": ["reify", path, "--json"],
    }


def run(args, env, *flags) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "softbounds", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    if proc.returncode != 0:
        sys.exit(f"softbounds {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc


def loaded_modules(args, env):
    """The sorted names of the `softbounds` submodules one run of `args` loads."""
    stderr = run(args, env, "-X", "importtime").stderr
    names = [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if "|" in line]
    return sorted(name.split(".", 1)[1] for name in names if name.startswith("softbounds."))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=20)
    args = ap.parse_args()

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(softbounds.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "small.wcsp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit(gen_random(n=4, d=5, e=3, seed=1)))
        table = commands(path)
        times = {name: [] for name in table}
        for _ in range(args.runs):
            for name, argv in table.items():
                t0 = time.perf_counter()
                run(argv, env)
                times[name].append(time.perf_counter() - t0)
        header = f"{'command':<10}{'median_ms':>10}  modules"
        print(header)
        print("-" * len(header))
        for name, argv in table.items():
            median_ms = statistics.median(times[name]) * 1000
            print(f"{name:<10}{median_ms:>10.1f}  {' '.join(loaded_modules(argv, env))}")


if __name__ == "__main__":
    main()
