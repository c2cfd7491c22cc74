"""Deterministic instance generators for experiments and tests.

All three shapes are seeded and reproducible byte-for-byte through emit().
Each builds only what `Instance`'s checks accept (dense ids, non-empty
intervals, in-range tuples and costs), so it skips those checks;
tests/test_generators.py runs them on every shape. The pair tables of
`gen_random` and `gen_satellite` draw their keys from small grids, so each
distinct key is one tuple shared by every table that lists it
(`costfn.KeyPool`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .core import ContractError, Domain, ValuationStructure, Variable
from .costfn import CostFunction, ExtTable, KeyPool, Spacer
from .network import Instance


def gen_random(
    n: int,
    d: int,
    e: int,
    tightness: float = 0.4,
    max_cost: int = 4,
    k: int = 10,
    seed: int = 0,
) -> Instance:
    """n variables over [0, d-1] and e sparse binary tables.

    `tightness` is the fraction of tuples given a nonzero cost drawn from
    [1, max_cost] (clamped to k, so max_cost >= k produces hard tuples).
    """
    if n < 2 or d < 1 or e < 0:
        raise ContractError("gen random needs n >= 2, d >= 1, e >= 0")
    if not 0.0 <= tightness <= 1.0:
        raise ContractError(f"tightness {tightness} outside [0, 1]")
    if max_cost < 1 or k < 1:
        raise ContractError("max_cost and k must be at least 1")
    rng = random.Random(seed)
    variables = [Variable(i, Domain(0, d - 1)) for i in range(n)]
    functions = []
    pool = KeyPool()
    for _ in range(e):
        i, j = rng.sample(range(n), 2)
        if i > j:
            i, j = j, i
        table = {}
        for vi in range(d):
            for vj in range(d):
                if rng.random() < tightness:
                    table[(vi, vj)] = min(k, rng.randint(1, max_cost))
        table = pool.share(table)
        functions.append(CostFunction(scope=(i, j), kind=ExtTable(default=0, table=table)))
    return Instance(
        name=f"random-n{n}-d{d}-e{e}-s{seed}",
        valuation=ValuationStructure(k),
        variables=variables,
        functions=functions,
        w_zero=0,
        _prechecked=True,
    )


def gen_satellite(N: int, horizon: int = 12, seed: int = 0) -> Instance:
    """Selection-and-scheduling shape: N start-time variables with an extra
    top value meaning "rejected", and one merged table per pair combining
    the disjunctive separation requirement with the rejection penalties.

    Rejection penalties are drawn as multiples of N-1, the factor by which
    merging the per-variable penalty into its N-1 pair tables scales every
    assignment's soft cost; k is a safe finite top above any soft total.
    """
    if N < 2:
        raise ContractError("gen satellite needs N >= 2")
    if horizon < 4:
        raise ContractError("gen satellite needs horizon >= 4")
    rng = random.Random(seed)
    windows: List[Tuple[int, int]] = []
    rejects: List[int] = []
    for _ in range(N):
        wlen = rng.randint(2, 4)
        start = rng.randint(0, horizon - wlen)
        windows.append((start, start + wlen))
        rejects.append(start + wlen + 1)
    revenues = [(N - 1) * rng.randint(1, 4) for _ in range(N)]
    reposition: Dict[Tuple[int, int], int] = {}
    for i in range(N):
        for j in range(N):
            if i != j:
                reposition[(i, j)] = rng.randint(1, 3)
    k = 1 + sum(
        revenues[i] + revenues[j] for i in range(N) for j in range(i + 1, N)
    )
    variables = [
        Variable(i, Domain(windows[i][0], rejects[i])) for i in range(N)
    ]
    functions = []
    pool = KeyPool()
    for i in range(N):
        for j in range(i + 1, N):
            table = {}
            for vi in range(windows[i][0], rejects[i] + 1):
                for vj in range(windows[j][0], rejects[j] + 1):
                    cost = 0
                    if vi == rejects[i]:
                        cost += revenues[i]
                    if vj == rejects[j]:
                        cost += revenues[j]
                    if vi != rejects[i] and vj != rejects[j]:
                        apart = vi + reposition[(i, j)] <= vj or vj + reposition[(j, i)] <= vi
                        if not apart:
                            cost = k
                    if cost:
                        table[(vi, vj)] = cost
            table = pool.share(table)
            functions.append(
                CostFunction(scope=(i, j), kind=ExtTable(default=0, table=table))
            )
    return Instance(
        name=f"satellite-N{N}-h{horizon}-s{seed}",
        valuation=ValuationStructure(k),
        variables=variables,
        functions=functions,
        w_zero=0,
        _prechecked=True,
    )


def gen_spacerchain(m: int, L: int, k: int = 24, seed: int = 0) -> Instance:
    """m position variables over [0, L], trapezoid gap functions between
    consecutive variables and a few sparse unary penalty tables."""
    if m < 2:
        raise ContractError("gen spacerchain needs m >= 2")
    if L < 10:
        raise ContractError("gen spacerchain needs L >= 10")
    if k < 2:
        raise ContractError("gen spacerchain needs k >= 2")
    rng = random.Random(seed)
    variables = [Variable(i, Domain(0, L)) for i in range(m)]
    functions = []
    for i in range(m - 1):
        d1 = rng.randint(5, 20)
        d2 = d1 + rng.randint(0, 10)
        d3 = d2 + rng.randint(0, 15)
        d4 = d3 + rng.randint(0, 10)
        slope = rng.randint(1, 3)
        functions.append(
            CostFunction(scope=(i, i + 1), kind=Spacer(d1, d2, d3, d4, slope))
        )
    for _ in range(max(1, m // 3)):
        xi = rng.randrange(m)
        points = sorted(rng.sample(range(L + 1), min(L + 1, rng.randint(3, 6))))
        table = {(p,): rng.randint(1, k - 1) for p in points}
        functions.append(CostFunction(scope=(xi,), kind=ExtTable(default=0, table=table)))
    return Instance(
        name=f"spacerchain-m{m}-L{L}-s{seed}",
        valuation=ValuationStructure(k),
        variables=variables,
        functions=functions,
        w_zero=0,
        _prechecked=True,
    )


# The generator of each `gen` kind by name: the CLI's choices.
GENERATORS = {"random": gen_random, "satellite": gen_satellite, "spacerchain": gen_spacerchain}
