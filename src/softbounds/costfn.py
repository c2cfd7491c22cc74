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

Each kind carries its own `cost` (one tuple) and `box_min` (minimum raw cost
over a box). `box_min` takes a tuple box, one (lo, hi) per scope position in
scope order, trusts it to be non-empty and adds its raw lookups to the
overlay's `eval_count`. The engines call it through `min_over_tuple_box`;
the public `min_over_box` and `min_over_box_pinned` validate a box keyed by
variable id, convert it and call the same code.

Minimization works on *effective* costs raw(t) - delta_shift, where
delta_shift records cost already moved to the network's constant term. The
shift never exceeds the raw minimum over the current box, so the subtraction
stays within the cost scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .core import (
    Box,
    CapError,
    ContractError,
    ValuationStructure,
    check_cost,
    ominus,
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
    cost, probes: Iterable[Tuple[int, int]], k: int, shift: int, ov: FunctionOverlay
) -> int:
    # Stops at the first probe whose cost is fully absorbed by the shift:
    # nothing in the box can cost less than the shift.
    best = None
    for t in probes:
        ov.eval_count += 1
        c = cost(t, k)
        if best is None or c < best:
            best = c
            if best <= shift:
                break
    return best


def _corner_min(self, scope, box: TupleBox, k: int, shift: int, ov: FunctionOverlay) -> int:
    # `box_min` of the kinds that are monotone along each axis.
    return _probe_min(self.cost, _corners(box), k, shift, ov)


@dataclass(frozen=True)
class ExtTable:
    """Explicit table with a default cost for unlisted tuples.

    `semiconvex` optionally tags one scope variable as the ordered axis:
    for every value of the other variable, the super-level sets of the cost
    along that axis are contiguous. The tag licenses endpoint-only
    minimization along the tagged axis and is verified at load time.
    """

    default: int
    table: Dict[Tuple[int, ...], int]
    semiconvex: Optional[Tuple[int, str]] = None  # (variable id, "asc"|"desc")

    def cost(self, values: Tuple[int, ...], k: int) -> int:
        return self.table.get(values, self.default)

    def box_min(self, scope, box: TupleBox, k: int, shift: int, ov: FunctionOverlay) -> int:
        if self.semiconvex is not None:
            return self._semiconvex_min(scope, box, shift, ov)
        # Iterate whichever of (box tuples, stored entries) is smaller; either
        # way the number of lookups stays within the box volume. The sparse
        # path is what keeps huge sparse unary tables affordable.
        table, default = self.table, self.default
        ranges = [range(lo, hi + 1) for lo, hi in box]
        vol = 1
        for r in ranges:
            vol *= len(r)
        if len(table) < vol:
            if len(box) == 2:
                ri, rj = ranges
                inside = [c for (vi, vj), c in table.items() if vi in ri and vj in rj]
            else:
                inside = [
                    c for values, c in table.items()
                    if all(w in r for w, r in zip(values, ranges))
                ]
            ov.eval_count += len(inside)
            best = min(inside) if inside else None
            if len(inside) < vol:
                ov.eval_count += 1  # the default cost is reachable inside the box
                if best is None or default < best:
                    best = default
            return best
        get = table.get
        best = None
        n = 0
        for values in itertools.product(*ranges):
            n += 1
            c = get(values, default)
            if best is None or c < best:
                best = c
                if best <= shift:
                    break
        ov.eval_count += n
        return best

    def _semiconvex_min(self, scope, box, shift, ov) -> int:
        axis = 0 if self.semiconvex[0] == scope[0] else 1
        plo, phi = box[1 - axis]
        olo, ohi = box[axis]
        endpoints = (olo,) if olo == ohi else (olo, ohi)
        table, default = self.table, self.default
        best = None
        for p in range(plo, phi + 1):
            for o in endpoints:
                ov.eval_count += 1
                c = table.get((o, p) if axis == 0 else (p, o), default)
                if best is None or c < best:
                    best = c
                    if best <= shift:
                        return best
        return best


@dataclass(frozen=True)
class FunctionalEq:
    """Cost 0 iff v_j == p*v_i + q, else alpha."""

    alpha: int
    p: int = 1
    q: int = 0

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


@dataclass(frozen=True)
class AntiFunctionalNeq:
    """Cost alpha iff v_j == p*v_i + q, else 0."""

    alpha: int
    p: int = 1
    q: int = 0

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
class MonoLeq:
    """Cost 0 iff v_i + delta <= v_j, else alpha."""

    delta: int
    alpha: int

    def cost(self, values: Tuple[int, int], k: int) -> int:
        vi, vj = values
        return 0 if vi + self.delta <= vj else self.alpha

    box_min = _corner_min


@dataclass(frozen=True)
class LinPlus:
    """Cost min(k, max(0, a*v_i + b*v_j + c))."""

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
class Spacer:
    """Trapezoid on the gap g = v_j - v_i.

    Zero on [d2, d3], ramps of the given slope on [d1, d2) and (d3, d4],
    intolerable outside [d1, d4]; everything clamped at k.
    """

    d1: int
    d2: int
    d3: int
    d4: int
    slope: int

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


def evaluate(
    fn: CostFunction,
    t: Mapping[int, int],
    val: ValuationStructure,
    overlay: Optional[FunctionOverlay] = None,
) -> int:
    """Effective cost of an assignment of exactly the scope."""
    if len(t) != len(fn.scope) or any(v not in t for v in fn.scope):
        raise ContractError(f"assignment {dict(t)} does not match scope {fn.scope}")
    values = tuple(t[v] for v in fn.scope)
    raw = raw_cost(fn, values, val)
    if overlay is None:
        return raw
    overlay.eval_count += 1
    if overlay.delta_shift:
        return ominus(raw, overlay.delta_shift, val)
    return raw


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


MonotonicWitness = Tuple[Tuple[int, int], Tuple[int, int], int, int]


def validate_monotonic(
    fn: CostFunction,
    bounds: Box,
    val: ValuationStructure,
    order_i: str = "asc",
    order_j: str = "asc",
) -> Tuple[bool, Optional[MonotonicWitness]]:
    """Check dominance: moving down the i-order or up the j-order never
    raises the cost. Verified through adjacent steps, which is equivalent
    by transitivity. Returns the violating adjacent pair on failure.
    """
    if fn.arity != 2:
        raise ContractError("monotonicity is defined for binary scopes")
    for v in fn.scope:
        lo, hi = bounds[v]
        if hi - lo + 1 > VALIDATOR_CAP:
            raise CapError(
                f"variable {v} has {hi - lo + 1} values, above the validation cap {VALIDATOR_CAP}"
            )
    xi, xj = fn.scope
    i_axis = list(range(bounds[xi][0], bounds[xi][1] + 1))
    j_axis = list(range(bounds[xj][0], bounds[xj][1] + 1))
    if order_i == "desc":
        i_axis.reverse()
    if order_j == "desc":
        j_axis.reverse()
    rows = [[raw_cost(fn, (vi, vj), val) for vj in j_axis] for vi in i_axis]
    # Non-decreasing along the i-order.
    for a in range(len(i_axis) - 1):
        for b in range(len(j_axis)):
            if rows[a][b] > rows[a + 1][b]:
                return False, (
                    (i_axis[a], j_axis[b]),
                    (i_axis[a + 1], j_axis[b]),
                    rows[a][b],
                    rows[a + 1][b],
                )
    # Non-increasing along the j-order.
    for a in range(len(i_axis)):
        for b in range(len(j_axis) - 1):
            if rows[a][b] < rows[a][b + 1]:
                return False, (
                    (i_axis[a], j_axis[b]),
                    (i_axis[a], j_axis[b + 1]),
                    rows[a][b],
                    rows[a][b + 1],
                )
    return True, None


def validate_convex(
    fn: CostFunction,
    bounds: Box,
    val: ValuationStructure,
) -> bool:
    """Semi-convex along each axis (under the natural order of either
    axis or its reverse), which is what licences corner minimization."""
    xi, xj = fn.scope
    for wrt in (xi, xj):
        ok = any(
            validate_semiconvex(fn, bounds, wrt, order, val)[0]
            for order in ("asc", "desc")
        )
        if not ok:
            return False
    return True


def check_function(fn: CostFunction, bounds: Box, val: ValuationStructure) -> None:
    """Structural validation used at construction and load time."""
    if fn.arity == 0:
        raise ContractError("cost functions must have a non-empty scope")
    if len(set(fn.scope)) != fn.arity:
        raise ContractError(f"scope {fn.scope} repeats a variable")
    kind = fn.kind
    if isinstance(kind, ExtTable):
        check_cost(kind.default, val)
        for values, c in kind.table.items():
            if len(values) != fn.arity:
                raise ContractError(f"tuple {values} does not match arity {fn.arity}")
            for w, v in zip(values, fn.scope):
                lo, hi = bounds[v]
                if not lo <= w <= hi:
                    raise ContractError(
                        f"tuple value {w} outside [{lo}, {hi}] of variable {v}"
                    )
            check_cost(c, val)
        if kind.semiconvex is not None:
            if fn.arity != 2:
                raise ContractError("semi-convex tags apply to binary tables only")
            wrt, order = kind.semiconvex
            ok, witness = validate_semiconvex(fn, bounds, wrt, order, val)
            if not ok:
                raise ContractError(
                    f"table is not semi-convex w.r.t. variable {wrt}: witness {witness}"
                )
        return
    if fn.arity != 2:
        raise ContractError(f"{type(kind).__name__} requires a binary scope")
    if isinstance(kind, (FunctionalEq, AntiFunctionalNeq)):
        if not 1 <= kind.alpha <= val.k:
            raise ContractError(f"alpha {kind.alpha} outside [1, {val.k}]")
    elif isinstance(kind, MonoLeq):
        check_cost(kind.alpha, val)
    elif isinstance(kind, Spacer):
        if not kind.d1 <= kind.d2 <= kind.d3 <= kind.d4:
            raise ContractError(
                f"spacer breakpoints must be ordered, got "
                f"({kind.d1}, {kind.d2}, {kind.d3}, {kind.d4})"
            )
        if kind.slope < 1:
            raise ContractError(f"spacer slope must be positive, got {kind.slope}")
    elif isinstance(kind, LinPlus):
        pass  # a clamped linear form is monotone in each argument by construction
    else:
        raise ContractError(f"unknown cost kind {type(kind).__name__}")

