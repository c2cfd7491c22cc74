"""Shared builders and brute-force checkers for the test-suite."""

from __future__ import annotations

import itertools
import random
from math import prod
from typing import Dict, List, Optional, Tuple

from softbounds.core import INFINITY, Domain, ValuationStructure, Variable
from softbounds.costfn import (
    AntiFunctionalNeq,
    CostFunction,
    ExtTable,
    FunctionalEq,
    LinPlus,
    MonoLeq,
    Spacer,
)
from softbounds.generators import gen_spacerchain
from softbounds.network import Instance
from softbounds.oracle import _cost as oracle_cost

SUITE_KINDS = (
    "ext2",
    "ext2",
    "ext1",
    "funceq",
    "antifuncneq",
    "monoleq",
    "linplus",
    "spacer",
    "ext3",
)


def _hill_row(rng: random.Random, width: int, top: int) -> List[int]:
    """A bitonic (rise-then-fall) row: all super-level sets are contiguous."""
    values = sorted(rng.randint(0, top) for _ in range(width))
    left, right = [], []
    for idx, v in enumerate(values):
        (left if idx % 2 == 0 else right).append(v)
    return left + right[::-1]


def make_kind(
    name: str,
    rng: random.Random,
    scope: Tuple[int, ...],
    intervals: Dict[int, Tuple[int, int]],
    k: int,
):
    top = min(k, 9)
    if name.startswith("ext"):
        ranges = [intervals[v] for v in scope]
        table = {}
        for values in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
            if rng.random() < 0.45:
                c = rng.randint(1, top)
                if rng.random() < 0.08:
                    c = k
                table[values] = c
        return ExtTable(default=0, table=table)
    (ilo, ihi) = intervals[scope[0]]
    (jlo, jhi) = intervals[scope[1]]
    if name in ("funceq", "antifuncneq"):
        p = rng.choice((-1, 0, 1, 1, 2))
        anchor_i = rng.randint(ilo, ihi)
        anchor_j = rng.randint(jlo, jhi)
        q = anchor_j - p * anchor_i
        alpha = rng.randint(1, top)
        cls = FunctionalEq if name == "funceq" else AntiFunctionalNeq
        return cls(alpha=alpha, p=p, q=q)
    if name == "monoleq":
        delta = rng.randint(jlo - ihi - 1, jhi - ilo + 1)
        return MonoLeq(delta=delta, alpha=rng.randint(1, top))
    if name == "linplus":
        a = rng.choice((-2, -1, 1, 1, 2))
        b = rng.choice((-2, -1, 1, 1, 2))
        c = rng.randint(-3, 3)
        return LinPlus(a, b, c)
    assert name == "spacer"
    g_lo, g_hi = jlo - ihi, jhi - ilo
    d1 = rng.randint(g_lo - 2, g_hi)
    d2 = d1 + rng.randint(0, 4)
    d3 = d2 + rng.randint(0, 4)
    d4 = d3 + rng.randint(0, 4)
    return Spacer(d1, d2, d3, d4, rng.randint(1, 2))


def suite_instance(seed: int, max_volume: int = 8000) -> Instance:
    """One seeded random mixed-kind instance (n <= 6, d <= 9, e <= 10,
    arity <= 3) with a bounded assignment space."""
    rng = random.Random(0x5EED ^ seed)
    n = rng.randint(2, 6)
    sizes = [rng.randint(2, 9) for _ in range(n)]
    while prod(sizes) > max_volume:
        idx = max(range(n), key=lambda i: sizes[i])
        sizes[idx] = max(2, sizes[idx] - 1)
    lbs = [rng.randint(-3, 3) for _ in range(n)]
    variables = [Variable(i, Domain(lbs[i], lbs[i] + sizes[i] - 1)) for i in range(n)]
    intervals = {i: (lbs[i], lbs[i] + sizes[i] - 1) for i in range(n)}
    k = rng.choice((3, 4, 6, 8, 12, 20))
    e = rng.randint(max(1, n - 1), 10)
    functions = []
    for _ in range(e):
        name = rng.choice(SUITE_KINDS)
        if name == "ext3" and n < 3:
            name = "ext2"
        if name == "ext1":
            scope = (rng.randrange(n),)
        elif name == "ext3":
            scope = tuple(sorted(rng.sample(range(n), 3)))
        else:
            i, j = rng.sample(range(n), 2)
            scope = (min(i, j), max(i, j))
        functions.append(
            CostFunction(scope=scope, kind=make_kind(name, rng, scope, intervals, k))
        )
    w_zero = rng.choice((0, 0, 0, 0, 1, 2))
    w_zero = min(w_zero, k - 1)
    return Instance(
        name=f"suite-{seed}",
        valuation=ValuationStructure(k),
        variables=variables,
        functions=functions,
        w_zero=w_zero,
    )


def suite(count: int = 50, max_volume: int = 8000) -> List[Instance]:
    return [suite_instance(seed, max_volume) for seed in range(count)]


def spacer_chains(max_volume: Optional[int] = None) -> List[Instance]:
    """Small spacer chains of 2 to 5 variables over [0, L <= 35] under
    three tops, most of them wipeouts: every variable walks its bounds.
    `max_volume` keeps the chains of at most that many assignments."""
    chains = [
        gen_spacerchain(m, L, k=k, seed=seed)
        for m, L in ((2, 12), (3, 20), (3, 35), (4, 35), (5, 35))
        for k in (2, 5, 24)
        for seed in (0, 1, 2)
    ]
    if max_volume is None:
        return chains
    return [inst for inst in chains if prod(v.domain.size() for v in inst.variables) <= max_volume]


def repeated_keys(inst: Instance) -> Tuple[int, int]:
    """How many table keys equal a key of an earlier table, and how many of
    those are the very tuple object that the earlier table holds."""
    first: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    repeats = shared = 0
    for fn in inst.functions:
        if isinstance(fn.kind, ExtTable):
            for key in fn.kind.table:
                if key in first:
                    repeats += 1
                    shared += first[key] is key
                else:
                    first[key] = key
    return repeats, shared


def binary_only(inst: Instance) -> bool:
    return all(fn.arity <= 2 for fn in inst.functions)


def hard_instance(seed: int) -> Instance:
    """Binary tables with costs in {0, 1} and k = 1: a crisp network."""
    rng = random.Random(0xBAD ^ seed)
    n = rng.randint(2, 5)
    sizes = [rng.randint(2, 6) for _ in range(n)]
    variables = [Variable(i, Domain(0, sizes[i] - 1)) for i in range(n)]
    e = rng.randint(n - 1, min(8, n * (n - 1) // 2 + 2))
    functions = []
    for _ in range(e):
        i, j = rng.sample(range(n), 2)
        scope = (min(i, j), max(i, j))
        table = {}
        for vi in range(sizes[scope[0]]):
            for vj in range(sizes[scope[1]]):
                if rng.random() < rng.choice((0.25, 0.5, 0.7)):
                    table[(vi, vj)] = 1
        functions.append(CostFunction(scope=scope, kind=ExtTable(default=0, table=table)))
    return Instance(
        name=f"hard-{seed}",
        valuation=ValuationStructure(1),
        variables=variables,
        functions=functions,
    )


def assignments(inst: Instance):
    ranges = [(v.domain.lb, v.domain.ub) for v in inst.variables]
    return itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))


def fast_total(inst: Instance, values: Tuple[int, ...]) -> int:
    """Original total cost through the oracle's independent evaluator."""
    k = inst.valuation.k
    total = inst.w_zero
    for fn in inst.functions:
        total += oracle_cost(fn, tuple(values[v] for v in fn.scope), k)
        if total >= k:
            return k
    return total


def effective_total(
    inst: Instance, values: Tuple[int, ...], shifts: List[int], w_zero: int
) -> int:
    """Total cost in the shifted reformulation of the interval engines."""
    k = inst.valuation.k
    total = w_zero
    for fi, fn in enumerate(inst.functions):
        raw = oracle_cost(fn, tuple(values[v] for v in fn.scope), k)
        total += k if raw == k else raw - min(shifts[fi], raw)
        if total >= k:
            return k
    return total


def value_mode_total(st, values: Tuple[int, ...]) -> int:
    """Total cost in the reformulation of a value-mode state: the constant
    term, the unary arrays (which absorb the unary functions) and each
    binary function less its two per-value projection offsets."""
    k = st.val.k
    total = st.w_zero
    for xi, arr in enumerate(st.unary):
        total += arr[values[xi] - st.base_lb[xi]]
    for fi, fn in enumerate(st.instance.functions):
        if fn.arity == 1:
            continue
        raw = oracle_cost(fn, tuple(values[v] for v in fn.scope), k)
        if fn.arity == 2 and raw < k:
            p0, p1 = st.pair_proj[fi]
            s0, s1 = fn.scope
            raw -= p0[values[s0] - st.base_lb[s0]] + p1[values[s1] - st.base_lb[s1]]
        total += raw
    return min(total, k)


def preservation_ok(
    inst: Instance,
    final_domains,
    shifts: Optional[List[int]] = None,
    w_zero: Optional[int] = None,
) -> bool:
    """Solution sets before and after enforcement must coincide exactly:
    every original solution survives inside the final domains with an
    unchanged (effective) cost, and no new solution appears."""
    k = inst.valuation.k
    shifts = shifts if shifts is not None else [0] * len(inst.functions)
    w_zero = w_zero if w_zero is not None else inst.w_zero
    for values in assignments(inst):
        orig = fast_total(inst, values)
        inside = all(final_domains[i].contains(values[i]) for i in range(len(values)))
        if orig < k:
            if not inside:
                return False
            if effective_total(inst, values, shifts, w_zero) != orig:
                return False
        elif inside:
            if effective_total(inst, values, shifts, w_zero) < k:
                return False
    return True


def crisp_solution_map(net) -> Dict[Tuple[int, ...], List[int]]:
    """All solutions of a reified network, keyed by the mirrored tuple.

    The cost variables are functionally determined by their table rows, so
    enumeration only walks the mirrored assignment space.
    """
    lookups = []
    for table in net.tables:
        lookups.append({row[:-1]: row[-1] for row in table.rows})
    ranges = [(net.bounds[i].lb, net.bounds[i].ub) for i in range(net.n_mirror)]
    out: Dict[Tuple[int, ...], List[int]] = {}
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
        costs = []
        ok = True
        for ti, table in enumerate(net.tables):
            key = tuple(values[v] for v in table.scope[:-1])
            if key not in lookups[ti]:
                ok = False
                break
            costs.append(lookups[ti][key])
        if ok and net.w_zero + sum(costs) < net.k:
            out[values] = costs
    return out
