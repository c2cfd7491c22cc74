"""Cost functions: representations, evaluation and box minimization.

Every binary kind other than a plain table carries enough structure to
compute its minimum over a sub-box far below full enumeration:

* equality-style functions (zero cost on exactly one partner value) need the
  first value of one variable whose partner lies in the box, found by
  division;
* inequality-style functions (a single penalised partner value) and tables
  that are semi-convex along one axis only need the two endpoint costs of
  that axis per value of the other variable;
* monotone and clamped-linear functions reach their minimum at a corner of
  the box;
* the trapezoid gap function is minimised analytically on the interval of
  reachable gaps.

Every minimizer that enumerates candidate tuples (the corners, the endpoint
probes, and every tuple of a dense table box of any arity) feeds them to
`_probe_min`, the module's one early-exit scan: it stops at the first cost
the shift absorbs and counts one lookup per tuple read. A sparse table box
reads every entry inside it instead, with no early exit. Two minimizers
reproduce the scan's stop-and-count rule without running it: the equality
kind counts its lookups analytically, and `propagation._pinned` takes the
minimum of one cost-row slice.

A plain binary table has no structure to exploit. When it is dense (its
declared box at most 4 times its entries), a searched interval state reads
it through cost rows built by `ExtTable.line`: one list of raw costs per
pinned value, so a pinned minimum is the minimum of one slice. Filled rows
hold at most 8 cells per table entry, so interval state stays independent
of domain width (see `propagation.PropState._declare_rows`).

Each kind class owns its directive `name`, its parameter checks (`check`),
its text form (`text`), its `cost` (one tuple) and `box_min` (minimum raw
cost over a box). `box_min` takes a tuple box, one (lo, hi) per scope
position in scope order, trusts it to be non-empty and adds its raw lookups
to the overlay's `eval_count`. The engines call it through
`min_over_tuple_box`; the public `min_over_box` and `min_over_box_pinned`
validate a box keyed by variable id, convert it and call the same code.

Minimization works on *effective* costs raw(t) - delta_shift, where
delta_shift records cost already moved to the network's constant term. The
shift never exceeds the raw minimum over the current box, so the subtraction
stays within the cost scale.
"""

from __future__ import annotations

import itertools
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Dict, Iterable, Mapping, Optional, Tuple, Union

from .core import (
    Box,
    CapError,
    ContractError,
    ValuationStructure,
    check_cost,
)

# Semi-convexity validation is quadratic in the interval width, so it is
# refused (never silently skipped) above this many values per variable.
VALIDATOR_CAP = 512

# One (lo, hi) sub-interval per scope position, in scope order.
TupleBox = Tuple[Tuple[int, int], ...]


def _corners(box: TupleBox) -> Tuple[Tuple[int, int], ...]:
    """The distinct corners of a binary box, low corner first."""
    (ilo, ihi), (jlo, jhi) = box
    if ilo == ihi:
        return ((ilo, jlo),) if jlo == jhi else ((ilo, jlo), (ilo, jhi))
    if jlo == jhi:
        return ((ilo, jlo), (ihi, jlo))
    return ((ilo, jlo), (ilo, jhi), (ihi, jlo), (ihi, jhi))


def _probe_min(
    cost, probes: Iterable[Tuple[int, ...]], arg, shift: int, ov: FunctionOverlay
) -> int:
    # The one early-exit scan of this module: every minimizer that enumerates
    # candidate tuples feeds it a probe sequence and `cost(t, arg)` prices
    # each. It stops at the first probe whose cost is fully absorbed by the
    # shift, since nothing in the box can cost less than the shift, and
    # counts one lookup per probe read. `FunctionalEq.box_min` and the
    # cost-row read of `propagation._pinned` reproduce this stop-and-count
    # rule without running it.
    probes = iter(probes)
    best = cost(next(probes), arg)
    n = 1
    if best > shift:
        for t in probes:
            n += 1
            c = cost(t, arg)
            if c < best:
                best = c
                if c <= shift:
                    break
    ov.eval_count += n
    return best


def _corner_min(self, scope, box: TupleBox, k: int, shift: int, ov: FunctionOverlay) -> int:
    # `box_min` of the kinds that are monotone along each axis.
    return _probe_min(self.cost, _corners(box), k, shift, ov)


class KeyPool:
    """One tuple object per distinct key across the tables of one instance.

    The parser registers each table with `start` before filling it, and
    stores each key of a table after the first as `keys.setdefault(key,
    key)`: the equal tuple an earlier table holds, or `key`, now pooled;
    `share`, which `gen_satellite` calls, does both for a filled table.
    The pool opens at the second table, seeded from the first table's keys,
    so a lone table pays nothing and the pool holds no key that no table
    holds. Drop it once the instance is built.
    """

    def __init__(self) -> None:
        self._first: Optional[dict] = None
        self._keys: Optional[dict] = None

    def start(self, table: dict) -> Optional[dict]:
        """The key dict to store `table`'s keys through, or None while
        `table` is the first table."""
        if self._keys is None:
            if self._first is None:
                self._first = table
                return None
            self._keys = dict(zip(self._first, self._first))
            self._first = None
        return self._keys

    def share(self, table: dict) -> dict:
        """A filled `table` as the next table, its keys shared."""
        keys = self.start(table)
        if keys is None:
            return table
        return dict(zip(map(keys.setdefault, table, table), table.values()))


@dataclass(frozen=True)
class ExtTable:
    """Explicit table with a default cost for unlisted tuples.

    `semiconvex` optionally tags one scope variable as the ordered axis:
    for every value of the other variable, the super-level sets of the cost
    along that axis are contiguous. The tag licenses endpoint-only
    minimization along the tagged axis and is verified at load time.
    """

    name: ClassVar[str] = "ext"

    default: int
    table: Dict[Tuple[int, ...], int]
    semiconvex: Optional[Tuple[int, str]] = None  # (variable id, "asc"|"desc")

    def check(self, scope, bounds: Box, val: ValuationStructure) -> None:
        check_cost(self.default, val)
        # The per-tuple loop runs only when the column-wise check fails, to
        # name the same first offender in table order.
        if not self._in_range(scope, bounds, val):
            for values, c in self.table.items():
                if len(values) != len(scope):
                    raise ContractError(f"tuple {values} does not match arity {len(scope)}")
                for w, v in zip(values, scope):
                    lo, hi = bounds[v]
                    if not lo <= w <= hi:
                        raise ContractError(
                            f"tuple value {w} outside [{lo}, {hi}] of variable {v}"
                        )
                check_cost(c, val)
        if self.semiconvex is not None:
            if len(scope) != 2:
                raise ContractError("semi-convex tags apply to binary tables only")
            wrt, order = self.semiconvex
            ok, witness = validate_semiconvex(CostFunction(scope, self), bounds, wrt, order, val)
            if not ok:
                raise ContractError(
                    f"table is not semi-convex w.r.t. variable {wrt}: witness {witness}"
                )

    def _in_range(self, scope, bounds: Box, val: ValuationStructure) -> bool:
        """Whether every tuple has the scope's arity, values inside the scope's
        intervals and a cost in [0, k], checked one column at a time.

        Exact for integer entries, whose min and max bound every entry; a float
        NaN, which compares false both ways, can hide from them.
        """
        table = self.table
        if not table:
            return True
        try:
            if set(map(len, table)) != {len(scope)}:
                return False
            for col, v in zip(zip(*table), scope):
                lo, hi = bounds[v]
                if min(col) < lo or max(col) > hi:
                    return False
            costs = table.values()
            return min(costs) >= 0 and max(costs) <= val.k
        except TypeError:  # a key or cost of the wrong type: let the loop name it
            return False

    def text(self, scope) -> str:
        table = self.table
        ids = " ".join(str(v) for v in scope)
        out = [f"fun ext {len(scope)} {ids} {self.default} {len(table)}"]
        # One format call per body line: the tuple's values, then its cost.
        line = " ".join(["{}"] * (len(scope) + 1)).format
        out += [line(*values, table[values]) for values in sorted(table)]
        if self.semiconvex is not None:
            wrt, order = self.semiconvex
            out.append(f"tag semiconvex {wrt} {order}")
        return "\n".join(out)

    def cost(self, values: Tuple[int, ...], k: int) -> int:
        return self.table.get(values, self.default)

    def box_min(self, scope, box: TupleBox, k: int, shift: int, ov: FunctionOverlay) -> int:
        table, default = self.table, self.default
        if self.semiconvex is not None:
            # Both endpoints of the tagged axis per partner value, partner
            # value outermost, each probe in scope order.
            axis = 0 if self.semiconvex[0] == scope[0] else 1
            plo, phi = box[1 - axis]
            olo, ohi = box[axis]
            ends = (olo,) if olo == ohi else (olo, ohi)
            partners = range(plo, phi + 1)
            if axis:  # (partner, endpoint) is already scope order
                probes = itertools.product(partners, ends)
            else:
                probes = ((o, p) for p in partners for o in ends)
            return _probe_min(table.get, probes, default, shift, ov)
        # Iterate whichever of (box tuples, stored entries) is smaller; either
        # way the number of lookups stays within the box volume. The sparse
        # path is what keeps huge sparse unary tables affordable.
        ranges = []
        vol = 1
        for lo, hi in box:
            ranges.append(range(lo, hi + 1))
            vol *= hi - lo + 1
        if len(table) < vol:
            # Some tuple of the box is unlisted, so the default is reachable;
            # at or below the shift, nothing in the box costs less.
            if default <= shift:
                ov.eval_count += 1
                return default
            inside = [
                c for values, c in table.items()
                if all(lo <= w <= hi for w, (lo, hi) in zip(values, box))
            ]
            inside.append(default)
            ov.eval_count += len(inside)
            return min(inside)
        return _probe_min(table.get, itertools.product(*ranges), default, shift, ov)

    def line(self, pos: int, value: int, lo: int, hi: int) -> list:
        """The raw costs of the binary tuples whose scope position `pos`
        holds `value`, the other position running over [lo, hi]."""
        get, default = self.table.get, self.default
        if pos:
            return [get((w, value), default) for w in range(lo, hi + 1)]
        return [get((value, w), default) for w in range(lo, hi + 1)]


class _Binary:
    """The kinds defined on two variables.

    The text form is `fun <name> <i> <j>` followed by the dataclass fields
    in order. Fields with a default (the `p q` of the map kinds) are given
    all together or not at all, and left out when all are at their default.
    """

    name: ClassVar[str]

    def check(self, scope, bounds: Box, val: ValuationStructure) -> None:
        if len(scope) != 2:
            raise ContractError(f"{type(self).__name__} requires a binary scope")
        self._check_params(val)

    def _check_params(self, val: ValuationStructure) -> None:
        pass  # every parameter value is allowed

    def text(self, scope) -> str:
        params = fields(self)
        vals = [getattr(self, f.name) for f in params]
        if all(v == f.default for v, f in zip(vals, params) if f.default is not MISSING):
            vals = [v for v, f in zip(vals, params) if f.default is MISSING]
        return f"fun {self.name} {scope[0]} {scope[1]} " + " ".join(map(str, vals))


@dataclass(frozen=True)
class _Map(_Binary):
    """The kinds that single out the partner v_j == p*v_i + q.

    They add no field, so they inherit the dataclass methods generated here
    (`__init__`, type-strict `__eq__`, `__hash__`, `__repr__`, the frozen
    `__setattr__`) instead of generating their own at every import.
    """

    alpha: int
    p: int = 1
    q: int = 0

    def _check_params(self, val: ValuationStructure) -> None:
        if not 1 <= self.alpha <= val.k:
            raise ContractError(f"alpha {self.alpha} outside [1, {val.k}]")


class FunctionalEq(_Map):
    """Cost 0 iff v_j == p*v_i + q, else alpha."""

    name: ClassVar[str] = "funceq"

    def cost(self, values: Tuple[int, int], k: int) -> int:
        vi, vj = values
        return 0 if vj == self.p * vi + self.q else self.alpha

    def box_min(self, scope, box: TupleBox, k: int, shift: int, ov: FunctionOverlay) -> int:
        # The minimum is 0 iff some v_i in the box has its partner
        # p*v_i + q in [jlo, jhi]; those v_i form an interval found by
        # division. Lookups are those of a scan of v_i from ilo that checks
        # each partner and stops after reading the first supporting pair.
        (ilo, ihi), (jlo, jhi) = box
        p, q = self.p, self.q
        if p > 0:
            first, last = -((q - jlo) // p), (jhi - q) // p
        elif p < 0:
            first, last = -((q - jhi) // p), (jlo - q) // p
        else:
            first, last = (ilo, ihi) if jlo <= q <= jhi else (ihi + 1, ihi)
        first = max(first, ilo)
        if first <= min(last, ihi):
            ov.eval_count += first - ilo + 2
            return 0
        ov.eval_count += ihi - ilo + 1
        return self.alpha


class AntiFunctionalNeq(_Map):
    """Cost alpha iff v_j == p*v_i + q, else 0."""

    name: ClassVar[str] = "antifuncneq"

    def cost(self, values: Tuple[int, int], k: int) -> int:
        vi, vj = values
        return self.alpha if vj == self.p * vi + self.q else 0

    def box_min(self, scope, box: TupleBox, k: int, shift: int, ov: FunctionOverlay) -> int:
        # Penalised pairs form an affine graph, so the function is semi-convex
        # along both axes and a degenerate side lets us probe just the two
        # endpoints of the free side.
        (ilo, ihi), (jlo, jhi) = box
        if ilo == ihi or jlo == jhi:
            probes = _corners(box)
        else:
            probes = ((vi, vj) for vi in range(ilo, ihi + 1) for vj in (jlo, jhi))
        return _probe_min(self.cost, probes, k, shift, ov)


@dataclass(frozen=True)
class MonoLeq(_Binary):
    """Cost 0 iff v_i + delta <= v_j, else alpha."""

    name: ClassVar[str] = "monoleq"

    delta: int
    alpha: int

    def _check_params(self, val: ValuationStructure) -> None:
        if not 0 <= self.alpha <= val.k:
            raise ContractError(f"alpha {self.alpha} outside [0, {val.k}]")

    def cost(self, values: Tuple[int, int], k: int) -> int:
        vi, vj = values
        return 0 if vi + self.delta <= vj else self.alpha

    box_min = _corner_min


@dataclass(frozen=True)
class LinPlus(_Binary):
    """Cost min(k, max(0, a*v_i + b*v_j + c)).

    Monotone in each argument by construction, so every a, b, c is allowed.
    """

    name: ClassVar[str] = "linplus"

    a: int
    b: int
    c: int

    def cost(self, values: Tuple[int, int], k: int) -> int:
        vi, vj = values
        c = self.a * vi + self.b * vj + self.c
        if c <= 0:
            return 0
        return c if c < k else k

    box_min = _corner_min


@dataclass(frozen=True)
class Spacer(_Binary):
    """Trapezoid on the gap g = v_j - v_i.

    Zero on [d2, d3], ramps of the given slope on [d1, d2) and (d3, d4],
    intolerable outside [d1, d4]; everything clamped at k.
    """

    name: ClassVar[str] = "spacer"

    d1: int
    d2: int
    d3: int
    d4: int
    slope: int

    def _check_params(self, val: ValuationStructure) -> None:
        if not self.d1 <= self.d2 <= self.d3 <= self.d4:
            raise ContractError(
                f"spacer breakpoints must be ordered, got "
                f"({self.d1}, {self.d2}, {self.d3}, {self.d4})"
            )
        if self.slope < 1:
            raise ContractError(f"spacer slope must be positive, got {self.slope}")

    def _gap_cost(self, g: int, k: int) -> int:
        if g < self.d1 or g > self.d4:
            return k
        if g < self.d2:
            c = self.slope * (self.d2 - g)
        elif g > self.d3:
            c = self.slope * (g - self.d3)
        else:
            return 0
        return c if c < k else k

    def cost(self, values: Tuple[int, int], k: int) -> int:
        vi, vj = values
        return self._gap_cost(vj - vi, k)

    def box_min(self, scope, box: TupleBox, k: int, shift: int, ov: FunctionOverlay) -> int:
        # The cost depends on the gap alone and is non-increasing left of the
        # zero plateau and non-decreasing right of it, so the minimum over the
        # reachable gap interval is at a single analytically chosen gap.
        (ilo, ihi), (jlo, jhi) = box
        g_lo = jlo - ihi
        g_hi = jhi - ilo
        if g_hi < self.d2:
            g = g_hi
        elif g_lo > self.d3:
            g = g_lo
        else:
            g = max(g_lo, self.d2)
        ov.eval_count += 1
        return self._gap_cost(g, k)


Kind = Union[ExtTable, FunctionalEq, AntiFunctionalNeq, MonoLeq, LinPlus, Spacer]

# Every kind by its directive name.
KINDS = {
    cls.name: cls
    for cls in (ExtTable, FunctionalEq, AntiFunctionalNeq, MonoLeq, LinPlus, Spacer)
}


@dataclass(frozen=True)
class CostFunction:
    scope: Tuple[int, ...]
    kind: Kind

    @property
    def arity(self) -> int:
        return len(self.scope)


@dataclass
class FunctionOverlay:
    """Per-solve mutable companion of a cost function.

    `delta_shift` is the amount of cost already projected to the constant
    term; `eval_count` counts raw cost lookups (including the membership
    checks of the equality kind, which inspect the function once each).
    """

    delta_shift: int = 0
    eval_count: int = 0


def raw_cost(fn: CostFunction, values: Tuple[int, ...], val: ValuationStructure) -> int:
    """Cost of one tuple before any shift, clamped to [0, k]."""
    return fn.kind.cost(values, val.k)


def evaluate(fn: CostFunction, t: Mapping[int, int], val: ValuationStructure) -> int:
    """Cost of an assignment of exactly the scope."""
    if len(t) != len(fn.scope) or any(v not in t for v in fn.scope):
        raise ContractError(f"assignment {dict(t)} does not match scope {fn.scope}")
    return raw_cost(fn, tuple(t[v] for v in fn.scope), val)


def min_over_tuple_box(fn: CostFunction, box: TupleBox, k: int, ov: FunctionOverlay) -> int:
    """Minimum effective cost over a tuple box: the engines' entry point.

    Nothing is validated: `box` must hold one non-empty (lo, hi) per scope
    position, in scope order. The shift must not exceed the raw minimum and
    must stay below k (the precondition of `ominus`); a violation raises.
    """
    shift = ov.delta_shift
    raw_min = fn.kind.box_min(fn.scope, box, k, shift, ov)
    if not shift:
        return raw_min
    return unshift(raw_min, shift, k)


def unshift(raw_min: int, shift: int, k: int) -> int:
    """The effective minimum, `ominus(raw_min, shift)`, of a function whose
    raw minimum over a box is `raw_min`; raises when the shift exceeds it or
    reaches k."""
    if shift > raw_min or shift >= k:
        raise ContractError(f"shift {shift} above the box minimum {raw_min} (k={k})")
    return k if raw_min == k else raw_min - shift


def _tuple_box(fn: CostFunction, box: Box) -> TupleBox:
    if len(box) != len(fn.scope) or any(v not in box for v in fn.scope):
        raise ContractError(f"box {dict(box)} does not cover scope {fn.scope}")
    for v in fn.scope:
        lo, hi = box[v]
        if lo > hi:
            raise ContractError(f"empty sub-interval for variable {v}")
    return tuple(box[v] for v in fn.scope)


def min_over_box(
    fn: CostFunction,
    box: Box,
    val: ValuationStructure,
    overlay: Optional[FunctionOverlay] = None,
) -> int:
    """Minimum effective cost over all tuples in the box.

    Validates the box (it must cover exactly the scope with non-empty
    intervals) and calls the kind's own minimizer, the same code the engines
    reach through `min_over_tuple_box`. The number of raw lookups stays
    within the per-kind cap (4 for corner kinds, 2*d for endpoint kinds,
    d+1 for the equality kind, and the box volume for plain tables).
    """
    ov = overlay if overlay is not None else FunctionOverlay()
    return min_over_tuple_box(fn, _tuple_box(fn, box), val.k, ov)


def min_over_box_pinned(
    fn: CostFunction,
    box: Box,
    pin_var: int,
    pin_val: int,
    val: ValuationStructure,
    overlay: Optional[FunctionOverlay] = None,
) -> int:
    """min_over_box with one variable's sub-interval collapsed to a point."""
    if pin_var not in fn.scope:
        raise ContractError(f"pin variable {pin_var} not in scope {fn.scope}")
    tbox = _tuple_box(fn, box)
    lo, hi = box[pin_var]
    if not lo <= pin_val <= hi:
        raise ContractError(f"pin value {pin_val} outside [{lo}, {hi}]")
    pos = fn.scope.index(pin_var)
    tbox = tbox[:pos] + ((pin_val, pin_val),) + tbox[pos + 1:]
    ov = overlay if overlay is not None else FunctionOverlay()
    return min_over_tuple_box(fn, tbox, val.k, ov)


SemiconvexWitness = Tuple[int, int, int]  # (partner value, beta, gap value)


def validate_semiconvex(
    fn: CostFunction,
    bounds: Box,
    wrt: int,
    order: str,
    val: ValuationStructure,
) -> Tuple[bool, Optional[SemiconvexWitness]]:
    """Check contiguity of super-level sets along the `wrt` axis.

    For every value of the partner variable and every observed cost beta,
    the set of `wrt` values with cost >= beta must be contiguous under the
    declared order. Returns a witness (partner value, beta, gap value) on
    failure. Refused above VALIDATOR_CAP values per variable.
    """
    if fn.arity != 2:
        raise ContractError("semi-convexity is defined for binary scopes")
    if wrt not in fn.scope:
        raise ContractError(f"variable {wrt} not in scope {fn.scope}")
    if order not in ("asc", "desc"):
        raise ContractError(f"order must be 'asc' or 'desc', got {order!r}")
    xi, xj = fn.scope
    partner = xj if wrt == xi else xi
    for v in fn.scope:
        lo, hi = bounds[v]
        if hi - lo + 1 > VALIDATOR_CAP:
            raise CapError(
                f"variable {v} has {hi - lo + 1} values, above the validation cap {VALIDATOR_CAP}"
            )
    axis = list(range(bounds[wrt][0], bounds[wrt][1] + 1))
    if order == "desc":
        axis.reverse()
    plo, phi = bounds[partner]
    for p in range(plo, phi + 1):
        row = []
        for o in axis:
            values = (p, o) if partner == xi else (o, p)
            row.append(raw_cost(fn, values, val))
        m = len(row)
        if m < 3:
            continue
        prefix = [row[0]] * m
        for idx in range(1, m):
            prefix[idx] = max(prefix[idx - 1], row[idx])
        suffix = [row[-1]] * m
        for idx in range(m - 2, -1, -1):
            suffix[idx] = max(suffix[idx + 1], row[idx])
        for idx in range(1, m - 1):
            left, right = prefix[idx - 1], suffix[idx + 1]
            if left > row[idx] < right:
                beta = min(left, right)
                return False, (p, beta, axis[idx])
    return True, None


def check_function(fn: CostFunction, bounds: Box, val: ValuationStructure) -> None:
    """Structural validation used at construction and load time."""
    if fn.arity == 0:
        raise ContractError("cost functions must have a non-empty scope")
    if len(set(fn.scope)) != fn.arity:
        raise ContractError(f"scope {fn.scope} repeats a variable")
    if type(fn.kind) not in KINDS.values():
        raise ContractError(f"unknown cost kind {type(fn.kind).__name__}")
    fn.kind.check(fn.scope, bounds, val)
