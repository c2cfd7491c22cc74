"""Brute-force reference computations.

These oracles deliberately share no evaluation or fixpoint code with the
engines they validate: costs are recomputed from the kind definitions here,
minima come from exhaustive enumeration, and the fixpoints below rescan
every bound from scratch instead of caching contributions. Agreement with
the incremental engines is what the test-suite checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import CapError, ContractError, ValuationStructure
from .costfn import (
    AntiFunctionalNeq,
    CostFunction,
    ExtTable,
    FunctionalEq,
    LinPlus,
    MonoLeq,
    Spacer,
)
from .network import Instance


@dataclass(frozen=True)
class OracleBudget:
    """The most tuples one enumeration may visit; a larger one is refused
    with `CapError`."""

    max_tuples: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_tuples < 0:
            raise ContractError(f"budget must be at least 0 tuples, got {self.max_tuples}")


def _cost(fn: CostFunction, values: Tuple[int, ...], k: int) -> int:
    # Independent re-derivation of every kind's cost formula.
    kind = fn.kind
    if isinstance(kind, ExtTable):
        return kind.table.get(values, kind.default)
    vi, vj = values
    if isinstance(kind, FunctionalEq):
        return 0 if vj == kind.p * vi + kind.q else kind.alpha
    if isinstance(kind, AntiFunctionalNeq):
        return kind.alpha if vj == kind.p * vi + kind.q else 0
    if isinstance(kind, MonoLeq):
        return 0 if vi + kind.delta <= vj else kind.alpha
    if isinstance(kind, LinPlus):
        return min(k, max(0, kind.a * vi + kind.b * vj + kind.c))
    assert isinstance(kind, Spacer)
    g = vj - vi
    if g < kind.d1 or g > kind.d4:
        return k
    if g < kind.d2:
        return min(k, kind.slope * (kind.d2 - g))
    if g > kind.d3:
        return min(k, kind.slope * (g - kind.d3))
    return 0


def _volume(ranges: List[Tuple[int, int]], budget: OracleBudget, what: str) -> int:
    vol = 1
    for lo, hi in ranges:
        vol *= max(0, hi - lo + 1)
        if vol > budget.max_tuples:
            raise CapError(
                f"{what} needs more than {budget.max_tuples} tuples; refusing"
            )
    return vol


@dataclass(frozen=True)
class OptimumResult:
    feasible: bool
    cost: Optional[int]
    witness: Optional[Dict[int, int]]


def brute_optimum(inst: Instance, budget: OracleBudget = OracleBudget()) -> OptimumResult:
    """Exact minimum of the total cost over all complete assignments."""
    k = inst.valuation.k
    ranges = [(v.domain.lb, v.domain.ub) for v in inst.variables]
    _volume(ranges, budget, "optimum enumeration")
    ids = [v.id for v in inst.variables]
    best = k
    witness: Optional[Tuple[int, ...]] = None
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
        total = inst.w_zero
        for fn in inst.functions:
            total += _cost(fn, tuple(values[v] for v in fn.scope), k)
            if total >= k:
                total = k
                break
        if total < best:
            best = total
            witness = values
    if witness is None:
        return OptimumResult(False, None, None)
    return OptimumResult(True, best, dict(zip(ids, witness)))


def brute_min_over_box(
    fn: CostFunction,
    box: Dict[int, Tuple[int, int]],
    val: ValuationStructure,
    shift: int = 0,
    budget: OracleBudget = OracleBudget(),
) -> int:
    """Exhaustive minimum of the effective cost over the box."""
    ranges = [box[v] for v in fn.scope]
    _volume(ranges, budget, "box enumeration")
    k = val.k
    best = None
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
        c = _cost(fn, values, k)
        if best is None or c < best:
            best = c
    if shift:
        return k if best == k else best - shift
    return best


def _pinned_min(fn, boxes, pin_var, pin_val, k, shift, budget) -> int:
    ranges = []
    for v in fn.scope:
        ranges.append((pin_val, pin_val) if v == pin_var else boxes[v])
    _volume(ranges, budget, "pinned enumeration")
    best = None
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
        c = _cost(fn, values, k)
        if best is None or c < best:
            best = c
    if shift:
        return k if best == k else best - shift
    return best


def naive_bac_fixpoint(
    inst: Instance, budget: OracleBudget = OracleBudget()
) -> List[Tuple[int, int]]:
    """Definition-level bound filtering: rescan every bound until stable.

    Returns one (lb, ub) pair per variable; (0, -1) throughout when some
    domain wiped out (an inconsistent network closes to the empty one).
    """
    k = inst.valuation.k
    bounds = {v.id: [v.domain.lb, v.domain.ub] for v in inst.variables}
    incident = {v.id: [f for f in inst.functions if v.id in f.scope] for v in inst.variables}

    def pinned_sum(var: int, value: int) -> int:
        boxes = {i: (lo, hi) for i, (lo, hi) in bounds.items()}
        total = inst.w_zero
        for fn in incident[var]:
            total += _pinned_min(fn, boxes, var, value, k, 0, budget)
            if total >= k:
                return k
        return total

    changed = True
    while changed:
        changed = False
        for var in bounds:
            for side in (0, 1):
                lo, hi = bounds[var]
                if lo > hi:
                    return [(0, -1)] * len(inst.variables)
                value = lo if side == 0 else hi
                if pinned_sum(var, value) >= k:
                    if side == 0:
                        bounds[var][0] += 1
                    else:
                        bounds[var][1] -= 1
                    changed = True
                    if bounds[var][0] > bounds[var][1]:
                        return [(0, -1)] * len(inst.variables)
    return [tuple(bounds[v.id]) for v in inst.variables]


def naive_bac_zero_fixpoint(
    inst: Instance, budget: OracleBudget = OracleBudget()
) -> Tuple[List[Tuple[int, int]], int, List[int]]:
    """Definition-level joint fixpoint of bound filtering and projection.

    Returns (final bounds, final constant term, per-function shift). On a
    wipeout the closure is the empty network with everything saturated.
    """
    k = inst.valuation.k
    n = len(inst.variables)
    bounds = {v.id: [v.domain.lb, v.domain.ub] for v in inst.variables}
    shifts = [0] * len(inst.functions)
    w_zero = inst.w_zero
    incident = {v.id: [fi for fi, f in enumerate(inst.functions) if v.id in f.scope]
                for v in inst.variables}

    def wiped():
        return [(0, -1)] * n, k, [k] * len(inst.functions)

    changed = True
    while changed:
        changed = False
        boxes = {i: (lo, hi) for i, (lo, hi) in bounds.items()}
        for fi, fn in enumerate(inst.functions):
            box = {v: boxes[v] for v in fn.scope}
            alpha = brute_min_over_box(fn, box, inst.valuation, shifts[fi], budget)
            if alpha > 0:
                w_zero = min(k, w_zero + alpha)
                shifts[fi] = min(k, shifts[fi] + alpha)
                changed = True
        for var in bounds:
            for side in (0, 1):
                lo, hi = bounds[var]
                if lo > hi:
                    return wiped()
                value = lo if side == 0 else hi
                boxes = {i: (blo, bhi) for i, (blo, bhi) in bounds.items()}
                total = w_zero
                for fi in incident[var]:
                    total += _pinned_min(
                        inst.functions[fi], boxes, var, value, k, shifts[fi], budget
                    )
                    if total >= k:
                        break
                if total >= k:
                    if side == 0:
                        bounds[var][0] += 1
                    else:
                        bounds[var][1] -= 1
                    changed = True
                    if bounds[var][0] > bounds[var][1]:
                        return wiped()
    final = [tuple(bounds[v.id]) for v in inst.variables]
    return final, w_zero, shifts
