"""Run the `softbounds` CLI under the benchmark's tracer.

    python perfbench/clichild.py TRACE_OUT.json <softbounds arguments...>

Behaves like `python -m softbounds <arguments...>` (same output, same exit
code) and also writes the tracer's spans and counters to TRACE_OUT.json.
The traced `cli` workload runs its jobs through this file.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import softbounds.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    idx = tracer.begin("cli_main")
    try:
        code = softbounds.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.end(idx)
        tracer.harvest_states()
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
