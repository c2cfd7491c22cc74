"""Measure and re-record the rows of tests/engine_pins.json.

Each row starts with its key: the suite instance, the consistency, and the
pop schedule (enforce rows) or the branching and variable order (search
rows). The rest are the measured fields, which `measure` computes and the
tests compare:

* "enforce" and "search" (bac, bac0): every field exactly, except the last,
  a ceiling on lookups that the engine may only stay under.
* "enforce_values" and "search_values" (nc, ac): every field exactly,
  lookups included.

Run as a script, it measures every row with the current engines, prints
every row that changed with the fields that moved and each section's lookup
total, recorded -> measured, beside the section's row fills (table reads
that filled cost rows, which are not lookups and are not pinned), and
rewrites the file. Row fills come from searched states only: a state gets
cost rows at its first mark, and a one-shot enforcement never marks.
A lookup ceiling becomes min(old, new). A wipeout enforce row, whose
deletions before the wipeout follow the revision order, carries the new
count when it is above its ceiling. The script writes nothing and exits
with status 1 when a row moves a field that no schedule may change (`empty`
and `w0` of an enforce row and the deletions of a consistent one; status,
optimum and witness of a search row), when a consistent enforce row or a
bac/bac0 search row rises above its lookup ceiling, or when an enforce or
enforce_values row fills any cost row.

    PYTHONPATH=src python tests/record_pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

from softbounds import search
from softbounds.propagation import ENFORCERS, PropState, state_mode
from softbounds.search import SearchOptions

from helpers import suite

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "engine_pins.json")

# The number of leading key fields of each section's rows.
KEY_LEN = {"search": 4, "enforce": 3, "enforce_values": 3, "search_values": 3}
# The sections whose last field is a lookup ceiling rather than a count.
CEILINGS = ("search", "enforce")
# The names of the measured fields, in row order.
ENFORCE_FIELDS = ("empty", "w0", "deletions", "projections", "pops", "trace", "lookups")
SEARCH_FIELDS = ("status", "optimum", "witness", "nodes", "backtracks", "deletions",
                 "projections", "pops", "lookups")


def instances() -> dict:
    """The suite instances the rows name, by name."""
    return {inst.name: inst for inst in suite(40, max_volume=3000)}


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def measure(section: str, inst, key: list) -> list:
    """The measured fields of the row of `section` whose key is `key`
    (without the instance name); lookups come last."""
    return measure_with_fills(section, inst, key)[0]


def measure_with_fills(section: str, inst, key: list) -> tuple:
    """`measure`'s fields and the row fills of the state they came from."""
    if section.startswith("enforce"):
        consistency, schedule = key
        rng = None if schedule is None else random.Random(schedule)
        trace = []
        st = PropState(inst, mode=state_mode(consistency), pop_rng=rng, trace=trace)
        rep = ENFORCERS[consistency](st)
        lines = "".join(json.dumps(event) + "\n" for event in trace)
        fields = [rep.empty, rep.w_zero, rep.deletions, rep.projections, rep.queue_pops,
                  hashlib.sha256(lines.encode()).hexdigest()[:16], sum(rep.eval_counts)]
        return fields, st.stats.row_fills
    consistency, branching, *order = key
    opts = SearchOptions(consistency=consistency, branching=branching)
    if order:
        opts.var_order = order[0]
    states = []
    build = search.PropState

    def recording(*args, **kwargs):
        states.append(build(*args, **kwargs))
        return states[-1]

    search.PropState = recording
    try:
        r = search.solve(inst, opts)
    finally:
        search.PropState = build
    st = states[-1]
    witness = None if r.best_assignment is None else [
        r.best_assignment[i] for i in range(len(r.best_assignment))
    ]
    fields = [r.status, r.best_cost, witness, r.nodes, r.backtracks, st.stats.deletions,
              st.stats.projections, st.stats.queue_pops, sum(ov.eval_count for ov in st.overlays)]
    return fields, st.stats.row_fills


def fixed_fields(section: str, old: list) -> tuple:
    """The fields of a row that no pop schedule or revision order may move."""
    if section.startswith("enforce"):
        return ("empty", "w0") if old[0] else ("empty", "w0", "deletions")
    return ("status", "optimum", "witness")


def main() -> int:
    pins = load()
    insts = instances()
    refused = False
    for section, rows in pins.items():
        n = KEY_LEN[section]
        names = ENFORCE_FIELDS if section.startswith("enforce") else SEARCH_FIELDS
        totals = [0, 0]
        fills = 0
        for idx, row in enumerate(rows):
            name, key, old = row[0], row[1:n], row[n:]
            new, row_fills = measure_with_fills(section, insts[name], key)
            totals[0] += old[-1]
            totals[1] += new[-1]
            fills += row_fills
            moved = [(f, a, b) for f, a, b in zip(names, old, new) if a != b]
            bad = [f for f, _, _ in moved if f in fixed_fields(section, old)]
            if section in CEILINGS and not (section == "enforce" and new[0]):
                if new[-1] > old[-1]:
                    bad.append("lookups above the ceiling")
                new[-1] = min(old[-1], new[-1])
            if section.startswith("enforce") and row_fills:
                bad.append(f"{row_fills} row fills in a one-shot enforcement")
            if moved or bad:
                text = ", ".join(f"{f} {a} -> {b}" for f, a, b in moved)
                if bad:
                    text = f"{text} (refused: {', '.join(bad)})".lstrip()
                print(f"{section} {row[:n]}: {text}")
            refused = refused or bool(bad)
            rows[idx] = row[:n] + new
        print(f"{section}: lookups {totals[0]} -> {totals[1]}, row fills {fills}")
    if refused:
        print("a row moved a schedule-free field, rose above its ceiling or filled rows"
              " in a one-shot enforcement; nothing written")
        return 1
    body = ",\n".join(
        f'  "{section}": [\n' + ",\n".join("    " + json.dumps(r) for r in rows) + "\n  ]"
        for section, rows in pins.items()
    )
    with open(PATH, "w") as fh:
        fh.write("{\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
