#!/usr/bin/env python3
"""Time branch-and-bound search as the instance grows.

For each n, builds `gen_random(n, d=8, e=2n, tightness=0.5, max_cost=3,
seed=1)` and searches it under bac, bac0 and nc up to a node limit, then
prints the nodes explored, the solve time and the share of that time spent
in `search.backward_check`, timed by wrapping that name as the search calls
it. Backward checking scans every domain for new singletons at each call,
so its share grows with n; this table is where a change that makes it
follow only what changed must show its gain. bac0 projects inside its
fixpoint, never backward-checks, and reads 0.
"""

import argparse
import time

from softbounds import search
from softbounds.generators import gen_random
from softbounds.search import SearchOptions, solve

CONSISTENCIES = ("bac", "bac0", "nc")


def timed_solve(inst, consistency: str, node_limit: int):
    """The search result, its seconds and the seconds spent in backward
    checking."""
    check = search.backward_check
    spent = [0.0]

    def backward_check(st):
        t0 = time.perf_counter()
        try:
            return check(st)
        finally:
            spent[0] += time.perf_counter() - t0

    search.backward_check = backward_check
    try:
        t0 = time.perf_counter()
        result = solve(inst, SearchOptions(consistency=consistency, node_limit=node_limit))
        seconds = time.perf_counter() - t0
    finally:
        search.backward_check = check
    return result, seconds, spent[0]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[80, 320, 1280])
    ap.add_argument("--node-limit", type=int, default=3000)
    args = ap.parse_args()

    header = f"{'n':>6}  {'mode':<6}{'status':<10}{'nodes':>7}{'solve_s':>10}{'check_share':>13}"
    print(header)
    print("-" * len(header))
    for n in args.n:
        inst = gen_random(n=n, d=8, e=2 * n, tightness=0.5, max_cost=3, seed=1)
        for consistency in CONSISTENCIES:
            result, seconds, checking = timed_solve(inst, consistency, args.node_limit)
            print(
                f"{n:>6}  {consistency:<6}{result.status:<10}{result.nodes:>7}"
                f"{seconds:>10.3f}{checking / seconds:>13.3f}"
            )


if __name__ == "__main__":
    main()
