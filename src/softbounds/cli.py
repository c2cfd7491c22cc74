"""Command-line surface: propagate, solve, gen, verify, reify.

Exit codes: 0 for a non-empty/feasible outcome, 1 for an empty or
infeasible one, 2 for usage, parse and file errors, 3 for cap or budget
refusals. Reports are deterministic for fixed inputs and seeds; wall-clock
time is only included when --timing is passed so that default output stays
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from .core import CapError, SolverError
from .fileformat import emit, parse_path
from .generators import gen_random, gen_satellite, gen_spacerchain
from .network import Instance
from .oracle import (
    OracleBudget,
    brute_optimum,
    naive_bac_fixpoint,
    naive_bac_zero_fixpoint,
)
from .propagation import (
    ConsistencyReport,
    PropState,
    enforce_ac_star,
    enforce_bac,
    enforce_bac_zero,
    enforce_nc,
)
from .reify import compare_strength, enforce_crisp_bc, reify
from .search import SearchOptions, solve as search_solve

ENFORCERS = {
    "nc": enforce_nc,
    "ac": enforce_ac_star,
    "bac": enforce_bac,
    "bac0": enforce_bac_zero,
}


def _domains_field(report: ConsistencyReport) -> List[Optional[List[int]]]:
    return [None if d.is_empty else [d.lb, d.ub] for d in report.domains]


def _print_report(report: Dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
        return
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")


def _cmd_propagate(args) -> int:
    inst = parse_path(args.file)
    mode = "values" if args.consistency in ("nc", "ac") else "interval"
    trace: Optional[list] = [] if args.trace else None
    t0 = time.perf_counter()
    st = PropState(inst, mode=mode, trace=trace)
    rep = ENFORCERS[args.consistency](st)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    if trace:
        for event in trace:
            print(json.dumps(event), file=sys.stderr)
    out: Dict = {
        "command": "propagate",
        "consistency": args.consistency,
        "empty": rep.empty,
        "w0_final": rep.w_zero,
        "domains": _domains_field(rep),
        "deletions": rep.deletions,
        "queue_pops": rep.queue_pops,
        "eval_counts": rep.eval_counts,
    }
    if args.timing:
        out["wall_ms"] = wall_ms
    _print_report(out, args.json)
    return 1 if rep.empty else 0


def _cmd_solve(args) -> int:
    inst = parse_path(args.file)
    opts = SearchOptions(
        consistency=args.consistency,
        initial_ub=args.ub,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
        branching=args.branching,
        var_order=args.var_order,
    )
    t0 = time.perf_counter()
    result = search_solve(inst, opts)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    # The search restores its state, so we report the instance's domains.
    out: Dict = {
        "command": "solve",
        "consistency": args.consistency,
        "status": result.status,
        "empty": result.best_cost is None,
        "domains": [[v.domain.lb, v.domain.ub] for v in inst.variables],
    }
    if result.best_cost is not None:
        out["optimum"] = result.best_cost
        out["witness"] = [result.best_assignment[v.id] for v in inst.variables]
    out["nodes"] = result.nodes
    out["backtracks"] = result.backtracks
    if args.timing:
        out["wall_ms"] = wall_ms
    _print_report(out, args.json)
    return 1 if result.best_cost is None else 0


def _cmd_gen(args) -> int:
    if args.kind == "random":
        inst = gen_random(
            n=args.n,
            d=args.d,
            e=args.e,
            tightness=args.tightness,
            max_cost=args.max_cost,
            k=args.k,
            seed=args.seed,
        )
    elif args.kind == "satellite":
        inst = gen_satellite(N=args.N, horizon=args.horizon, seed=args.seed)
    else:
        inst = gen_spacerchain(m=args.m, L=args.L, k=args.k, seed=args.seed)
    text = emit(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    inst = parse_path(args.file)
    budget = OracleBudget(max_tuples=args.budget)
    opt = brute_optimum(inst, budget)
    naive_b = naive_bac_fixpoint(inst, budget)
    naive_bz_domains, naive_bz_w0, naive_bz_shifts = naive_bac_zero_fixpoint(inst, budget)

    rep_b = enforce_bac(PropState(inst))
    st_bz = PropState(inst)
    rep_bz = enforce_bac_zero(st_bz)
    engine_b = [None if d.is_empty else (d.lb, d.ub) for d in rep_b.domains]
    engine_bz = [None if d.is_empty else (d.lb, d.ub) for d in rep_bz.domains]
    oracle_b = [None if lo > hi else (lo, hi) for lo, hi in naive_b]
    oracle_bz = [None if lo > hi else (lo, hi) for lo, hi in naive_bz_domains]

    bac_agree = engine_b == oracle_b
    bac0_agree = (
        engine_bz == oracle_bz
        and rep_bz.w_zero == naive_bz_w0
        and [ov.delta_shift for ov in st_bz.overlays] == naive_bz_shifts
    )
    result = search_solve(inst, SearchOptions(consistency="bac0"))
    solve_agree = (result.best_cost is None) == (not opt.feasible) and (
        not opt.feasible or result.best_cost == opt.cost
    )
    out: Dict = {
        "command": "verify",
        "optimum": opt.cost if opt.feasible else None,
        "witness": (
            [opt.witness[v.id] for v in inst.variables] if opt.feasible else None
        ),
        "bac_agree": bac_agree,
        "bac0_agree": bac0_agree,
        "solve_agree": solve_agree,
    }
    _print_report(out, args.json)
    if not (bac_agree and bac0_agree and solve_agree):
        return 1
    return 1 if not opt.feasible else 0


def _cmd_reify(args) -> int:
    inst = parse_path(args.file)
    net = reify(inst)
    out: Dict = {
        "command": "reify",
        "mirrored": net.n_mirror,
        "cost_vars": len(net.cost_var_of),
        "constraints": [
            {"scope": list(t.scope), "rows": len(t.rows)} for t in net.tables
        ],
        "sum_bound": net.sum_bound,
    }
    if args.compare:
        strength = compare_strength(inst)
        out["bac0_empty"] = strength.bac0_empty
        out["reified_bc_empty"] = strength.reified_bc_empty
        crisp = enforce_crisp_bc(net)
        out["reified_bounds"] = [
            None if b is None else list(b) for b in crisp.bounds
        ]
        _print_report(out, args.json)
        return 1 if strength.bac0_empty else 0
    _print_report(out, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softbounds",
        description="Weighted constraint network solver with interval-bounds propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="enforce one consistency and report")
    p.add_argument("file")
    p.add_argument("--consistency", choices=sorted(ENFORCERS), default="bac0")
    p.add_argument("--trace", action="store_true", help="emit events to stderr")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true", help="include wall_ms in the report")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("solve", help="branch-and-bound to the optimum")
    p.add_argument("file")
    p.add_argument("--consistency", choices=sorted(ENFORCERS), default="bac0")
    p.add_argument("--ub", type=int, default=None, help="initial exclusive upper bound")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--branching", choices=("dichotomic", "enumerate"), default="dichotomic")
    p.add_argument("--var-order", choices=("min_domain", "lex"), default="min_domain")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="emit a generated instance")
    p.add_argument("kind", choices=("random", "satellite", "spacerchain"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--d", type=int, default=9)
    p.add_argument("--e", type=int, default=7)
    p.add_argument("--tightness", type=float, default=0.4)
    p.add_argument("--max-cost", type=int, default=4)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--L", type=int, default=1000)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="cross-check engines against brute force")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reify", help="dump the crisp counterpart")
    p.add_argument("file")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (SolverError, OSError) as exc:
        # Parse and contract errors, and unreadable or unwritable files.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
