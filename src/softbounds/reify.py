"""Reification of a weighted network into a crisp one with cost variables.

Every cost function becomes a table constraint over its scope plus one
fresh cost variable holding the tuple's cost; a single linear constraint
bounds the sum of the cost variables strictly below the top. Crisp bound
filtering on that network is the comparison baseline for the interval
engines: it can never be stronger than the joint bound-and-projection
fixpoint, and is strictly weaker on some inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import CapError, ContractError, Domain
from .costfn import raw_cost
from .network import Instance
from .propagation import PropState, enforce_bac_zero

# Per-function tuple enumeration bound for reification.
REIFY_CAP = 10**6


@dataclass(frozen=True)
class ReifiedTable:
    scope: Tuple[int, ...]  # crisp variable ids, cost variable last
    rows: Tuple[Tuple[int, ...], ...]


@dataclass
class CrispNetwork:
    n_mirror: int
    bounds: List[Domain]  # mirrors first, then cost variables
    cost_var_of: List[int]  # function index -> crisp variable id
    tables: List[ReifiedTable]
    k: int
    w_zero: int

    @property
    def sum_bound(self) -> int:
        # The linear constraint: w_zero + sum of cost variables < k.
        return self.k - 1 - self.w_zero


@dataclass
class CrispReport:
    empty: bool
    bounds: List[Optional[Tuple[int, int]]]
    deletions: int


def reify(inst: Instance) -> CrispNetwork:
    """Build the crisp counterpart of the instance.

    Requires a finite top (cost variables range over [0, k-1]) and refuses
    functions whose tuple space exceeds the enumeration cap. Tuples whose
    cost saturates the top together with the constant term are excluded,
    so they are forbidden outright.
    """
    val = inst.valuation
    if not val.is_finite:
        raise ContractError("reification requires a finite top cost")
    k = val.k
    n = len(inst.variables)
    bounds = [Domain(v.domain.lb, v.domain.ub) for v in inst.variables]
    cost_var_of = []
    tables = []
    for fi, fn in enumerate(inst.functions):
        ranges = [(inst.variables[v].domain.lb, inst.variables[v].domain.ub) for v in fn.scope]
        vol = 1
        for lo, hi in ranges:
            vol *= hi - lo + 1
            if vol > REIFY_CAP:
                raise CapError(
                    f"function {fi} spans more than {REIFY_CAP} tuples; refusing to reify"
                )
        cost_var = n + len(cost_var_of)
        cost_var_of.append(cost_var)
        rows = []
        for values in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
            c = raw_cost(fn, values, val)
            if inst.w_zero + c < k:
                rows.append(values + (c,))
        tables.append(ReifiedTable(scope=tuple(fn.scope) + (cost_var,), rows=tuple(rows)))
        bounds.append(Domain(0, k - 1))
    return CrispNetwork(
        n_mirror=n,
        bounds=bounds,
        cost_var_of=cost_var_of,
        tables=tables,
        k=k,
        w_zero=inst.w_zero,
    )


def _supported(table: ReifiedTable, bounds: List[Domain], pos: int, value: int) -> bool:
    for row in table.rows:
        if row[pos] != value:
            continue
        ok = True
        for p, v in enumerate(row):
            b = bounds[table.scope[p]]
            if not b.lb <= v <= b.ub:
                ok = False
                break
        if ok:
            return True
    return False


def enforce_crisp_bc(net: CrispNetwork) -> CrispReport:
    """Crisp bound filtering to a fixpoint.

    Each domain bound needs a supporting tuple inside the current boxes on
    every incident table; the sum constraint propagates the usual upper
    bound rule onto the cost variables. Support search enumerates rows in
    order; this module exists for desk-scale comparison, not speed.
    """
    bounds = [b.copy() for b in net.bounds]
    deletions = 0

    def report(empty: bool) -> CrispReport:
        out = [None if b.is_empty else (b.lb, b.ub) for b in bounds]
        return CrispReport(empty=empty, bounds=out, deletions=deletions)

    changed = True
    while changed:
        changed = False
        for table in net.tables:
            for pos, var in enumerate(table.scope):
                b = bounds[var]
                # Once lb is supported, ub stops at lb at the latest: shrinking
                # ub keeps lb's supporting row inside the boxes.
                for bound, step in (("lb", 1), ("ub", -1)):
                    while not b.is_empty and not _supported(table, bounds, pos, getattr(b, bound)):
                        setattr(b, bound, getattr(b, bound) + step)
                        deletions += 1
                        changed = True
                if b.is_empty:
                    return report(True)
        if net.cost_var_of:
            lb_sum = sum(bounds[c].lb for c in net.cost_var_of)
            for c in net.cost_var_of:
                cap = net.sum_bound - (lb_sum - bounds[c].lb)
                if cap < bounds[c].ub:
                    deletions += bounds[c].ub - max(cap, bounds[c].lb - 1)
                    bounds[c].ub = cap
                    changed = True
                    if bounds[c].is_empty:
                        return report(True)
    return report(False)


@dataclass(frozen=True)
class StrengthReport:
    bac0_empty: bool
    crisp: CrispReport  # crisp bound filtering of the reified network

    @property
    def reified_bc_empty(self) -> bool:
        return self.crisp.empty


def compare_strength(inst: Instance, net: CrispNetwork) -> StrengthReport:
    """Run the joint interval fixpoint on the instance and crisp bound
    filtering on `net`, its reification `reify(inst)`, and check the one
    provable implication: if crisp bound filtering wipes the reified
    network, the joint interval fixpoint must wipe the original."""
    rep = enforce_bac_zero(PropState(inst))
    crisp = enforce_crisp_bc(net)
    if crisp.empty and not rep.empty:
        raise ContractError(
            "crisp bound filtering emptied the reified network but the "
            "interval fixpoint did not; this contradicts the strength ordering"
        )
    return StrengthReport(bac0_empty=rep.empty, crisp=crisp)
