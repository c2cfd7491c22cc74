#!/usr/bin/env python3
"""Compare the consistencies on seeded random instances.

For each instance and each consistency, enforces it once from the root and
runs a full branch-and-bound search, then prints one table row: the root's
lower bound `w0` and wipeout flag, the search's nodes and backtracks, and
the milliseconds of both. At the default seeds 0-4 every consistency
reports `w0` 0 at the root, so the table compares search effort alone. nc
takes the most nodes on every seed and bac and bac0 take the same; ac takes
fewer nodes than bac and bac0 on seeds 0, 3 and 4, but more on seeds 1 and
2 (49 against 39, 43 against 41).
"""

import argparse
import time

from softbounds.generators import gen_random
from softbounds.propagation import ENFORCERS, PropState, state_mode
from softbounds.search import SearchOptions, solve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--d", type=int, default=8)
    ap.add_argument("--e", type=int, default=9)
    ap.add_argument("--k", type=int, default=9)
    ap.add_argument("--tightness", type=float, default=0.5)
    args = ap.parse_args()

    header = f"{'instance':<22}{'mode':<6}{'w0':>4}{'empty':>7}{'nodes':>8}{'backtracks':>12}{'ms':>8}"
    print(header)
    print("-" * len(header))
    for seed in range(args.seeds):
        inst = gen_random(
            n=args.n, d=args.d, e=args.e, k=args.k, tightness=args.tightness, seed=seed
        )
        for name, enforcer in ENFORCERS.items():
            t0 = time.perf_counter()
            rep = enforcer(PropState(inst, mode=state_mode(name)))
            result = solve(inst, SearchOptions(consistency=name))
            ms = (time.perf_counter() - t0) * 1000
            print(
                f"{inst.name:<22}{name:<6}{rep.w_zero:>4}{str(rep.empty):>7}"
                f"{result.nodes:>8}{result.backtracks:>12}{ms:>8.1f}"
            )
        print()


if __name__ == "__main__":
    main()
