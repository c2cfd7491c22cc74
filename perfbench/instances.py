"""Instance builders that live with the benchmark, not in the package.

They use only the package's public constructors (`Variable`, `Domain`, the
cost kinds, `CostFunction`, `Instance`), so every instance passes the same
validation a user's instance does. The analytic reference for the
far-travel chain below is computed here from the spacer parameters alone
and shares no code with `softbounds.propagation` or `softbounds.costfn`.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from softbounds import (
    AntiFunctionalNeq,
    CostFunction,
    Domain,
    ExtTable,
    FunctionalEq,
    Instance,
    LinPlus,
    MonoLeq,
    Spacer,
    ValuationStructure,
    Variable,
)


# -- far-travel chain ---------------------------------------------------


def far_travel_chain(seed: int, n: int = 5, L: int = 20_000, k: int = 24) -> Instance:
    """n variables over [0, L] linked by spacers whose smallest tolerable
    gap is about L/10, so the bounds of the fixpoint walk far inward.

    There are no unary functions and the zero plateau of every spacer stays
    reachable inside the fixpoint's boxes, so at each bound at most one
    function is tight. The fixpoint is then exactly the difference-bound
    closure that `chain_fixpoint` computes, for `bac` and `bac0` alike.
    """
    rng = random.Random(seed)
    variables = [Variable(i, Domain(0, L)) for i in range(n)]
    functions = []
    for i in range(n - 1):
        d1 = L // 10 + rng.randint(-L // 100, L // 100)
        d2 = d1 + rng.randint(3, 12)
        d3 = d2 + rng.randint(0, L // 40)
        d4 = d3 + rng.randint(3, 12)
        slope = rng.randint(1, 4)  # steep ramps cut part of the ramp off
        functions.append(CostFunction(scope=(i, i + 1), kind=Spacer(d1, d2, d3, d4, slope)))
    inst = Instance(
        name=f"fartravel-n{n}-L{L}-s{seed}",
        valuation=ValuationStructure(k),
        variables=variables,
        functions=functions,
        w_zero=0,
    )
    bounds, _ = chain_fixpoint(inst)
    for fn in functions:
        (i, j), sp = fn.scope, fn.kind
        if bounds[j][0] - bounds[i][1] > sp.d3 or bounds[j][1] - bounds[i][0] < sp.d2:
            raise ValueError("far-travel chain: a zero plateau is out of reach")
    return inst


def tolerable_gaps(sp: Spacer, k: int) -> Tuple[int, int]:
    """Smallest and largest gap g with cost(g) < k.

    The left ramp costs slope * (d2 - g), which stays below k while
    d2 - g <= (k - 1) // slope; the right ramp is symmetric.
    """
    reach = (k - 1) // sp.slope
    return max(sp.d1, sp.d2 - reach), min(sp.d4, sp.d3 + reach)


def chain_fixpoint(inst: Instance) -> Tuple[List[Tuple[int, int]], int]:
    """Difference-bound closure of a spacer chain: each spacer (i, j)
    demands x_j - x_i within its tolerable gap range. Returns the closed
    intervals and the number of values removed from the declared ones."""
    k = inst.valuation.k
    bounds = [[v.domain.lb, v.domain.ub] for v in inst.variables]
    gaps = [(fn.scope, tolerable_gaps(fn.kind, k)) for fn in inst.functions]
    changed = True
    while changed:
        changed = False
        for (i, j), (lo, hi) in gaps:
            new = (
                max(bounds[j][0], bounds[i][0] + lo),
                min(bounds[j][1], bounds[i][1] + hi),
                max(bounds[i][0], bounds[j][0] - hi),
                min(bounds[i][1], bounds[j][1] - lo),
            )
            old = (bounds[j][0], bounds[j][1], bounds[i][0], bounds[i][1])
            if new != old:
                bounds[j][0], bounds[j][1], bounds[i][0], bounds[i][1] = new
                changed = True
    removed = sum(
        (lb - v.domain.lb) + (v.domain.ub - ub)
        for (lb, ub), v in zip(bounds, inst.variables)
    )
    return [(lb, ub) for lb, ub in bounds], removed


# -- mixed-kind instances -----------------------------------------------


def _peak_table(rng: random.Random, d: int, k: int) -> ExtTable:
    """A table that is semi-convex along its second variable: for each
    value of the first, costs fall in both directions away from a peak, so
    every super-level set along that axis is contiguous."""
    table = {}
    for p in range(d):
        peak = rng.randrange(d)
        height = rng.randint(2, 5)
        for o in range(d):
            c = min(k, max(0, height - abs(o - peak)))
            if c:
                table[(p, o)] = c
    return ExtTable(default=0, table=table)


def _dense_table(rng: random.Random, d: int) -> ExtTable:
    # Every tuple listed, so box minimisation takes the enumeration path.
    return ExtTable(
        default=0,
        table={(a, b): rng.randint(0, 3) for a in range(d) for b in range(d)},
    )


def mixed_instance(seed: int, n: int = 6, d: int = 6, k: int = 20) -> Instance:
    """Small-domain network using every non-spacer kind at least twice:
    `FunctionalEq`, `AntiFunctionalNeq`, `MonoLeq`, `LinPlus`, a table
    tagged semi-convex (validated by `Instance`) and a dense table."""
    rng = random.Random(seed)
    variables = [Variable(i, Domain(0, d - 1)) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    makers = [
        lambda: FunctionalEq(rng.randint(1, 4), 1, rng.randint(-1, 1)),
        lambda: AntiFunctionalNeq(rng.randint(1, 4), 1, rng.randint(-1, 1)),
        lambda: MonoLeq(rng.randint(-1, 2), rng.randint(1, 4)),
        lambda: LinPlus(rng.choice((1, -1)), rng.choice((1, -1)), rng.randint(-4, 0)),
        lambda: _peak_table(rng, d, k),
        lambda: _dense_table(rng, d),
    ]
    functions = []
    for idx, pair in enumerate(pairs[: 2 * len(makers)]):
        kind = makers[idx % len(makers)]()
        if isinstance(kind, ExtTable) and idx % len(makers) == 4:
            kind = ExtTable(kind.default, kind.table, semiconvex=(pair[1], "asc"))
        functions.append(CostFunction(scope=pair, kind=kind))
    return Instance(
        name=f"mixed-n{n}-d{d}-s{seed}",
        valuation=ValuationStructure(k),
        variables=variables,
        functions=functions,
        w_zero=0,
    )
