"""Command-line surface: propagate, solve, gen, verify, reify.

Exit codes: 0 for a non-empty/feasible outcome, 1 for an empty or
infeasible one, 2 for usage, parse and file errors, 3 for cap or budget
refusals, 4 for a search stopped by its node or time limit before it found
any solution (nothing is proven either way). Reports are deterministic for
fixed inputs and seeds; wall-clock time is only included when --timing is
passed so that default output stays byte-identical across runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import asdict, fields
from typing import Dict, List, Optional

from .core import CapError, SolverError
from .fileformat import emit, parse_path
from .generators import GENERATORS
from .propagation import (
    ENFORCERS,
    ConsistencyReport,
    PropState,
    enforce_bac,
    enforce_bac_zero,
    state_mode,
)
from .search import BRANCHINGS, VAR_ORDERS, SearchOptions, solve as search_solve


def _domains_field(report: ConsistencyReport) -> List[Optional[List[int]]]:
    return [None if d.is_empty else [d.lb, d.ub] for d in report.domains]


def _print_report(report: Dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
        return
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")


class _StderrTrace:
    """Trace sink that writes each event to stderr as one JSON line."""

    def append(self, event: Dict) -> None:
        print(json.dumps(event), file=sys.stderr)


def _cmd_propagate(args) -> int:
    inst = parse_path(args.file)
    trace = _StderrTrace() if args.trace else None
    t0 = time.perf_counter()
    st = PropState(inst, mode=state_mode(args.consistency), trace=trace)
    rep = ENFORCERS[args.consistency](st)
    wall_ms = int((time.perf_counter() - t0) * 1000)
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
    opts = SearchOptions(**{f.name: getattr(args, f.name) for f in fields(SearchOptions)})
    t0 = time.perf_counter()
    result = search_solve(inst, opts)
    wall_ms = int((time.perf_counter() - t0) * 1000)
    # The search restores its state, so we report the instance's domains.
    out: Dict = {
        "command": "solve",
        "consistency": args.consistency,
        "status": result.status,
        "empty": result.status == "infeasible",
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
    if result.best_cost is not None:
        return 0
    return 1 if result.status == "infeasible" else 4


def _cmd_gen(args) -> int:
    gen = GENERATORS[args.kind]
    # A flag left unset is None and takes the generator's own default.
    given = {name: getattr(args, name) for name in inspect.signature(gen).parameters}
    inst = gen(**{name: value for name, value in given.items() if value is not None})
    text = emit(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    # The oracle and reify modules load only for the commands that run them.
    from .oracle import (
        OracleBudget,
        brute_optimum,
        naive_bac_fixpoint,
        naive_bac_zero_fixpoint,
    )

    inst = parse_path(args.file)
    # An unset budget takes the oracle's own default.
    budget = OracleBudget() if args.budget is None else OracleBudget(max_tuples=args.budget)
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
    from .reify import compare_strength, reify

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
        strength = compare_strength(inst, net)
        out["bac0_empty"] = strength.bac0_empty
        out["reified_bc_empty"] = strength.reified_bc_empty
        out["reified_bounds"] = [
            None if b is None else list(b) for b in strength.crisp.bounds
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
    p.add_argument("--consistency", choices=sorted(ENFORCERS))
    p.add_argument(
        "--ub", dest="initial_ub", metavar="UB", type=int, help="initial exclusive upper bound"
    )
    p.add_argument("--node-limit", type=int)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--branching", choices=BRANCHINGS)
    p.add_argument(
        "--var-order",
        choices=VAR_ORDERS,
        help=f"{VAR_ORDERS[0]}: fewest live values, ties to the most incident "
        f"functions, then the lowest id; {VAR_ORDERS[1]}: the lowest unassigned id "
        f"({BRANCHINGS[0]} branching tries the cheaper-looking half first)",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    # Each search option defaults as `SearchOptions` declares it.
    p.set_defaults(func=_cmd_solve, **asdict(SearchOptions()))

    p = sub.add_parser("gen", help="emit a generated instance")
    p.add_argument("kind", choices=GENERATORS)
    p.add_argument("--out", default=None)
    # Parameters without a library default keep these; the rest default to
    # unset, which leaves the generator's default in force.
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--d", type=int, default=9)
    p.add_argument("--e", type=int, default=7)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--L", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--tightness", type=float)
    p.add_argument("--max-cost", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="cross-check engines against brute force")
    p.add_argument("file")
    p.add_argument("--budget", type=int)
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
