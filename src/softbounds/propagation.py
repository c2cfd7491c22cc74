"""Local-consistency engines over shared immutable instances.

Two families share one state object:

* interval mode: bound filtering (optionally combined with projection of
  whole-function minima onto the constant term). State is proportional to
  the number of variables plus the sum of arities, never to domain width.
* value mode: the small-domain reference engines (node consistency and
  per-value arc consistency), which materialize one unary cost per live
  value and per-value projection offsets for binary functions. Creation is
  refused above AC_VALUE_CAP values per domain.

Bound caches hold exact integer sums of the per-function contributions;
pruning compares w_zero + cache against the current top. This is equivalent
to the saturating update-and-test formulation (a saturated cache always
fires the prune that resets it) and stays well-defined when search tightens
the top mid-run.

On a wipeout the interval engines normalize the state to the closure of an
inconsistent network: every domain empty, and for the projecting engine the
constant term and every shift saturated. This is what makes the enforcement
outcome independent of the queue schedule even on inconsistent inputs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from operator import setitem
from typing import Dict, List, Optional, Tuple

from .core import (
    REMOVED_CAP,
    CapError,
    ContractError,
    Domain,
)
from .costfn import FunctionOverlay, min_over_tuple_box, raw_cost

# The engines call `min_over_tuple_box`. The dict-box API stays importable
# from this module because perfbench/tracer.py wraps it under these names.
from .costfn import min_over_box, min_over_box_pinned  # noqa: F401
from .network import Instance

# Value mode allocates per-value arrays, so it is refused on wide domains.
AC_VALUE_CAP = 65536

# The two bounds of a domain, as the `side` argument of `prune`; code that
# picks a bound by side tests `if side` for SUP.
INF, SUP = 0, 1


def _set_member(items: set, v: int, member: bool) -> None:
    if member:
        items.add(v)
    else:
        items.discard(v)


@dataclass
class PropStats:
    deletions: int = 0
    projections: int = 0
    queue_pops: int = 0


@dataclass
class ConsistencyReport:
    empty: bool
    w_zero: int
    domains: List[Domain]
    deletions: int
    projections: int
    queue_pops: int
    eval_counts: List[int]


class PropState:
    """Mutable propagation state owned by a single enforcement or search.

    With `record_trail=True` every mutation is journalled so search can
    restore the state bit-exactly; retained entries are proportional to the
    number of changes. Every trail entry has one shape, `(write, target,
    key, old)`, and `undo_to` pops entries and calls `write(target, key,
    old)`: `setitem` for a list cell, `setattr` for an attribute (a bound,
    `w_zero`, a shift) and `_set_member` for an interior removal.
    """

    def __init__(
        self,
        inst: Instance,
        mode: str = "interval",
        record_trail: bool = False,
        pop_rng: Optional[random.Random] = None,
        trace: Optional[list] = None,
    ):
        if mode not in ("interval", "values"):
            raise ContractError(f"unknown mode {mode!r}")
        self.instance = inst
        self.val = inst.valuation
        self.k = inst.valuation.k  # search may tighten this below val.k
        self.mode = mode
        n = len(inst.variables)
        self.domains: List[Domain] = [v.domain.copy() for v in inst.variables]
        self.w_zero = inst.w_zero
        self.incident: List[List[int]] = [[] for _ in range(n)]
        for fi, fn in enumerate(inst.functions):
            for v in fn.scope:
                self.incident[v].append(fi)
        self.slot_of: List[Dict[int, int]] = [
            {fi: pos for pos, fi in enumerate(fis)} for fis in self.incident
        ]
        self.w_inf = [0] * n
        self.w_sup = [0] * n
        self.delta_inf: List[List[int]] = [[0] * len(fis) for fis in self.incident]
        self.delta_sup: List[List[int]] = [[0] * len(fis) for fis in self.incident]
        # The bound caches of each side, indexed by INF and SUP.
        self._caches = ((self.w_inf, self.delta_inf), (self.w_sup, self.delta_sup))
        self.overlays = [FunctionOverlay() for _ in inst.functions]
        self.queue: deque = deque()
        self.in_queue = [False] * n
        self.pop_rng = pop_rng
        self.trail: Optional[list] = [] if record_trail else None
        self.trace = trace
        self.stats = PropStats()
        self.unary: Optional[List[List[int]]] = None
        self.base_lb: Optional[List[int]] = None
        self.pair_proj: Optional[Dict[int, Tuple[List[int], List[int]]]] = None
        if mode == "values":
            self._materialize_values()

    # -- value-mode materialization -------------------------------------

    def _materialize_values(self) -> None:
        inst = self.instance
        for var in inst.variables:
            size = var.domain.size()
            if size > AC_VALUE_CAP:
                raise CapError(
                    f"domain of variable {var.id} has {size} values; "
                    f"value mode is capped at {AC_VALUE_CAP}"
                )
        self.base_lb = [v.domain.lb for v in inst.variables]
        self.unary = [[0] * v.domain.size() for v in inst.variables]
        for d in self.domains:
            d.removed = set()
        valk = self.val.k
        for fi, fn in enumerate(inst.functions):
            if fn.arity != 1:
                continue
            xi = fn.scope[0]
            ov = self.overlays[fi]
            arr = self.unary[xi]
            base = self.base_lb[xi]
            for v in range(inst.variables[xi].domain.lb, inst.variables[xi].domain.ub + 1):
                ov.eval_count += 1
                c = raw_cost(fn, (v,), self.val)
                arr[v - base] = min(valk, arr[v - base] + c)
        self.pair_proj = {}
        for fi, fn in enumerate(inst.functions):
            if fn.arity == 2:
                s0, s1 = fn.scope
                self.pair_proj[fi] = (
                    [0] * inst.variables[s0].domain.size(),
                    [0] * inst.variables[s1].domain.size(),
                )

    # -- mode guards -----------------------------------------------------

    def _require_interval(self) -> None:
        if self.mode != "interval":
            raise ContractError("this operation runs on interval-mode state")

    def _require_values(self) -> None:
        if self.mode != "values":
            raise ContractError("this operation runs on value-mode state")

    # -- trailed writes ------------------------------------------------------

    def _set_cell(self, row: list, i: int, new: int) -> None:
        old = row[i]
        if old != new:
            if self.trail is not None:
                self.trail.append((setitem, row, i, old))
            row[i] = new

    def _set_attr(self, obj, name: str, new: int) -> None:
        old = getattr(obj, name)
        if old != new:
            if self.trail is not None:
                self.trail.append((setattr, obj, name, old))
            setattr(obj, name, new)

    def _rm_add(self, xi: int, v: int) -> None:
        removed = self.domains[xi].removed
        if len(removed) >= REMOVED_CAP:
            raise CapError(f"interior removals capped at {REMOVED_CAP}")
        removed.add(v)
        if self.trail is not None:
            self.trail.append((_set_member, removed, v, False))

    def _rm_discard(self, xi: int, v: int) -> None:
        removed = self.domains[xi].removed
        removed.discard(v)
        if self.trail is not None:
            self.trail.append((_set_member, removed, v, True))

    def mark(self) -> int:
        if self.trail is None:
            raise ContractError("state was created without a trail")
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            write, target, key, old = trail.pop()
            write(target, key, old)

    # -- queue -------------------------------------------------------------

    def _push(self, xi: int) -> None:
        if not self.in_queue[xi]:
            self.in_queue[xi] = True
            self.queue.append(xi)

    def _pop(self) -> int:
        if self.pop_rng is not None and len(self.queue) > 1:
            self.queue.rotate(-self.pop_rng.randrange(len(self.queue)))
        xi = self.queue.popleft()
        self.in_queue[xi] = False
        return xi

    def _queue_all(self) -> None:
        for xi in range(len(self.domains)):
            self._push(xi)

    def _clear_queue(self) -> None:
        while self.queue:
            self.in_queue[self.queue.popleft()] = False

    # -- observation helpers ------------------------------------------------

    def any_empty(self) -> bool:
        return any(d.is_empty for d in self.domains)

    def fingerprint(self) -> tuple:
        doms = tuple(
            (d.lb, d.ub, tuple(sorted(d.removed)) if d.removed else ())
            for d in self.domains
        )
        return (doms, self.w_zero, tuple(ov.delta_shift for ov in self.overlays))

    def allocation_cells(self) -> int:
        """Count of allocated state cells; domain-width independent in
        interval mode, which is the space guarantee the tests pin down."""
        cells = 2 * len(self.domains)  # bounds
        cells += len(self.w_inf) + len(self.w_sup)
        cells += sum(len(row) for row in self.delta_inf)
        cells += sum(len(row) for row in self.delta_sup)
        cells += len(self.overlays)
        cells += len(self.in_queue)
        if self.unary is not None:
            cells += sum(len(a) for a in self.unary)
        if self.pair_proj is not None:
            cells += sum(len(a) + len(b) for a, b in self.pair_proj.values())
        for d in self.domains:
            if d.removed:
                cells += len(d.removed)
        return cells

    def effective_total(self, t: Dict[int, int]) -> int:
        """Cost of a complete assignment under the current reformulation."""
        valk = self.val.k
        total = self.w_zero
        if self.mode == "values":
            for xi, arr in enumerate(self.unary):
                total += arr[t[xi] - self.base_lb[xi]]
                if total >= valk:
                    return valk
            for fi, fn in enumerate(self.instance.functions):
                if fn.arity == 1:
                    continue  # absorbed into the unary arrays
                values = tuple(t[v] for v in fn.scope)
                if fn.arity == 2 and fi in self.pair_proj:
                    total += self._eff_pair(fi, values)
                else:
                    total += raw_cost(fn, values, self.val)
                if total >= valk:
                    return valk
            return total
        for fi, fn in enumerate(self.instance.functions):
            raw = raw_cost(fn, tuple(t[v] for v in fn.scope), self.val)
            shift = self.overlays[fi].delta_shift
            total += valk if raw == valk else raw - min(shift, raw)
            if total >= valk:
                return valk
        return total

    def _eff_pair(self, fi: int, values: Tuple[int, int]) -> int:
        fn = self.instance.functions[fi]
        ov = self.overlays[fi]
        ov.eval_count += 1
        raw = raw_cost(fn, values, self.val)
        if raw >= self.val.k:
            return self.val.k
        p0, p1 = self.pair_proj[fi]
        b0 = self.base_lb[fn.scope[0]]
        b1 = self.base_lb[fn.scope[1]]
        return raw - p0[values[0] - b0] - p1[values[1] - b1]

    def _trace(self, **event) -> None:
        if self.trace is not None:
            self.trace.append(event)


# ----------------------------------------------------------------------
# Interval engines
# ----------------------------------------------------------------------


def _pinned(st: PropState, fi: int, xi: int, value: int) -> int:
    fn = st.instance.functions[fi]
    doms = st.domains
    scope = fn.scope
    if len(scope) == 2:  # the common case, built without a generator
        a, b = scope
        if a == xi:
            d = doms[b]
            box = ((value, value), (d.lb, d.ub))
        else:
            d = doms[a]
            box = ((d.lb, d.ub), (value, value))
    else:
        box = tuple(
            (value, value) if v == xi else (doms[v].lb, doms[v].ub) for v in scope
        )
    return min_over_tuple_box(fn, box, st.val.k, st.overlays[fi])


def _slide(st: PropState, xi: int, side: int, new: int) -> None:
    """Move the bound of xi on `side` to `new`, then on inward past interior
    removals, which the bound absorbs."""
    d = st.domains[xi]
    if d.removed:
        step = -1 if side else 1
        while d.lb <= new <= d.ub and new in d.removed:
            st._rm_discard(xi, new)
            new += step
    st._set_attr(d, "ub" if side else "lb", new)


def _zero_caches(st: PropState, xi: int, side: int) -> None:
    w, delta = st._caches[side]
    st._set_cell(w, xi, 0)
    row = delta[xi]
    for pos in range(len(row)):
        st._set_cell(row, pos, 0)


def prune(st: PropState, xi: int, side: int) -> bool:
    """Delete the bound of xi on `side` (INF or SUP) if its combined pinned
    cost reaches the top.

    Resets the variable's caches on that side, which are recomputed when it
    is popped again.
    """
    d = st.domains[xi]
    if d.is_empty:
        return False
    w = st._caches[side][0]
    if st.w_zero + w[xi] < st.k:
        return False
    v = d.ub if side else d.lb
    st._trace(event="delete", var=xi, bound="sup" if side else "inf", value=v, amount=1)
    st.stats.deletions += 1
    _slide(st, xi, side, v - 1 if side else v + 1)
    _zero_caches(st, xi, side)
    return True


def _prune_all(st: PropState) -> bool:
    """Prune both bounds of every variable, queueing those that moved;
    returns True on wipeout."""
    for xi in range(len(st.domains)):
        for side in (INF, SUP):
            if prune(st, xi, side):
                st._push(xi)
                if st.domains[xi].is_empty:
                    st._clear_queue()
                    return True
    return False


def narrow(st: PropState, xi: int, lo: int, hi: int) -> None:
    """Intersect the domain of xi with [lo, hi], as a search branch does.

    In interval mode the variable's own bound caches refer to the old bounds
    and would be unsound to prune with; they are zeroed, and resuming with xi
    touched recomputes them.
    """
    d = st.domains[xi]
    lo = max(d.lb, lo)
    hi = min(d.ub, hi)
    if d.removed:
        for v in [w for w in d.removed if w < lo or w > hi]:
            st._rm_discard(xi, v)
    _slide(st, xi, INF, lo)
    _slide(st, xi, SUP, hi)
    if st.mode == "interval":
        _zero_caches(st, xi, INF)
        _zero_caches(st, xi, SUP)


def project_to_zero(st: PropState, fi: int) -> bool:
    """Move the function's minimum over the current box onto w_zero.

    The amount is recorded in the function's shift so stored costs stay
    untouched; afterwards the function has a zero-effective-cost tuple.
    """
    fn = st.instance.functions[fi]
    doms = st.domains
    box = tuple((doms[v].lb, doms[v].ub) for v in fn.scope)
    alpha = min_over_tuple_box(fn, box, st.val.k, st.overlays[fi])
    if alpha == 0:
        return False
    st.stats.projections += 1
    st._trace(event="project", fn=fi, amount=alpha)
    ov = st.overlays[fi]
    st._set_attr(st, "w_zero", min(st.k, st.w_zero + alpha))
    st._set_attr(ov, "delta_shift", min(st.val.k, ov.delta_shift + alpha))
    return True


def _bound_loop(st: PropState, project: bool) -> bool:
    """Queue-driven fixpoint; returns True when the network wiped out."""
    functions = st.instance.functions
    while st.queue:
        xj = st._pop()
        st.stats.queue_pops += 1
        flag = False
        for fi in st.incident[xj]:
            if project:
                if project_to_zero(st, fi):
                    flag = True
                    if st.w_zero >= st.k:
                        st._clear_queue()
                        return True
            for xi in functions[fi].scope:
                slot = st.slot_of[xi][fi]
                d = st.domains[xi]
                for side in (INF, SUP):
                    w, delta = st._caches[side]
                    row = delta[xi]
                    alpha = _pinned(st, fi, xi, d.ub if side else d.lb)
                    st._set_cell(w, xi, w[xi] - row[slot] + alpha)
                    st._set_cell(row, slot, alpha)
                    if prune(st, xi, side):
                        st._push(xi)
                        if d.is_empty:
                            st._clear_queue()
                            return True
        # The constant term grew: every bound must be re-checked.
        if project and flag and _prune_all(st):
            return True
    return False


def _normalize_wipeout(st: PropState, project: bool) -> None:
    # The closure of an inconsistent network: all domains empty, and with
    # projection everything saturated. Keeps the outcome schedule-free.
    for xi, d in enumerate(st.domains):
        if d.removed:
            for v in sorted(d.removed):
                st._rm_discard(xi, v)
        st._set_attr(d, "lb", 0)
        st._set_attr(d, "ub", -1)
    if project:
        st._set_attr(st, "w_zero", st.k)
        for ov in st.overlays:
            st._set_attr(ov, "delta_shift", st.val.k)
    st._clear_queue()


def _report(st: PropState, empty: bool) -> ConsistencyReport:
    return ConsistencyReport(
        empty=empty,
        w_zero=st.w_zero,
        domains=[d.copy() for d in st.domains],
        deletions=st.stats.deletions,
        projections=st.stats.projections,
        queue_pops=st.stats.queue_pops,
        eval_counts=[ov.eval_count for ov in st.overlays],
    )


def _enforce_bounds(st: PropState, project: bool) -> ConsistencyReport:
    st._require_interval()
    if st.any_empty():
        return _report(st, True)
    for xi in range(len(st.domains)):
        _zero_caches(st, xi, INF)
        _zero_caches(st, xi, SUP)
    st._queue_all()
    empty = _bound_loop(st, project)
    if empty:
        _normalize_wipeout(st, project)
    return _report(st, empty)


def enforce_bac(st: PropState) -> ConsistencyReport:
    """Bound filtering alone: deletes bound values whose combined pinned
    minima reach the top. Never moves cost to the constant term."""
    return _enforce_bounds(st, project=False)


def enforce_bac_zero(st: PropState) -> ConsistencyReport:
    """Joint fixpoint of bound filtering and whole-function projection."""
    return _enforce_bounds(st, project=True)


def _backward_check(st: PropState, project_assigned) -> bool:
    """Backward checking: move the cost of every fully assigned function
    onto w_zero with `project_assigned(st, fi)`. Returns whether anything
    moved; stops early once w_zero reaches the top."""
    moved = False
    for fi, fn in enumerate(st.instance.functions):
        if all(st.domains[v].lb == st.domains[v].ub for v in fn.scope):
            if project_assigned(st, fi):
                moved = True
                if st.w_zero >= st.k:
                    break
    return moved


def _project_assigned_bounds(st: PropState, fi: int) -> bool:
    if not project_to_zero(st, fi):
        return False
    # The cached contributions of this function predate the shift and would
    # double count it; the singleton tuple now costs exactly zero.
    for v in st.instance.functions[fi].scope:
        slot = st.slot_of[v][fi]
        for w, delta in st._caches:
            row = delta[v]
            st._set_cell(w, v, w[v] - row[slot])
            st._set_cell(row, slot, 0)
    return True


def resume_bounds(st: PropState, project: bool, touched: List[int]) -> bool:
    """Re-establish the fixpoint after search narrowed some domains.

    Caches of untouched variables are still valid lower bounds (boxes only
    shrank), so a global prune sweep with cached sums is sound; touched
    variables must have had their caches reset, as `narrow` does. Without
    projection, fully assigned functions contribute their cost to the
    constant term (backward checking) until nothing moves. Returns True on
    wipeout, leaving the state un-normalized for the trail to undo.
    """
    st._require_interval()
    for xi in touched:
        st._push(xi)
    while True:
        if st.w_zero >= st.k:
            st._clear_queue()
            return True
        if _prune_all(st) or _bound_loop(st, project):
            return True
        if project or not _backward_check(st, _project_assigned_bounds):
            return False


# ----------------------------------------------------------------------
# Value-mode engines
# ----------------------------------------------------------------------


def project_unary(st: PropState, xi: int) -> bool:
    """Move the variable's minimum unary cost to w_zero, creating a
    zero-cost value. Returns whether anything moved."""
    st._require_values()
    d = st.domains[xi]
    if d.is_empty:
        raise ContractError(f"variable {xi} has no live values")
    arr = st.unary[xi]
    base = st.base_lb[xi]
    m = min(arr[v - base] for v in d.iter_values())
    if m == 0:
        return False
    valk = st.val.k
    st.stats.projections += 1
    st._trace(event="project_unary", var=xi, amount=m)
    if m >= valk:
        # Every live value is intolerable; deletions will wipe the domain.
        st._set_attr(st, "w_zero", st.k)
        return True
    for v in d.iter_values():
        c = arr[v - base]
        st._set_cell(arr, v - base, valk if c >= valk else c - m)
    st._set_attr(st, "w_zero", min(st.k, st.w_zero + m))
    return True


def _delete_value(st: PropState, xi: int, v: int) -> None:
    d = st.domains[xi]
    st.stats.deletions += 1
    st._trace(event="delete", var=xi, bound="value", value=v, amount=1)
    if v == d.lb:
        _slide(st, xi, INF, v + 1)
    elif v == d.ub:
        _slide(st, xi, SUP, v - 1)
    else:
        st._rm_add(xi, v)


def _nc_prune(st: PropState, xi: int) -> bool:
    d = st.domains[xi]
    if d.is_empty:
        return False
    base = st.base_lb[xi]
    arr = st.unary[xi]
    changed = False
    for v in list(d.iter_values()):
        if st.w_zero + arr[v - base] >= st.k:
            _delete_value(st, xi, v)
            changed = True
            if d.is_empty:
                break
    return changed


def _nc_fixpoint(st: PropState) -> bool:
    """Node-consistency fixpoint; returns True on wipeout."""
    n = len(st.domains)
    changed = True
    while changed:
        changed = False
        for xi in range(n):
            if not st.domains[xi].is_empty and project_unary(st, xi):
                changed = True
        for xi in range(n):
            if _nc_prune(st, xi):
                changed = True
                if st.domains[xi].is_empty:
                    return True
    return False


def enforce_nc(st: PropState) -> ConsistencyReport:
    """Every live value tolerable, every variable with a zero-cost value."""
    st._require_values()
    if st.any_empty():
        return _report(st, True)
    empty = _nc_fixpoint(st)
    return _report(st, empty)


def _project_binary_one(st: PropState, fi: int, xi: int, vi: int) -> bool:
    fn = st.instance.functions[fi]
    side = 0 if fn.scope[0] == xi else 1
    xj = fn.scope[1 - side]
    dj = st.domains[xj]
    if dj.is_empty:
        return False
    valk = st.val.k
    m = None
    for vj in dj.iter_values():
        values = (vi, vj) if side == 0 else (vj, vi)
        c = st._eff_pair(fi, values)
        if m is None or c < m:
            m = c
            if m == 0:
                return False
    st.stats.projections += 1
    st._trace(event="project_binary", fn=fi, var=xi, value=vi, amount=m)
    i = vi - st.base_lb[xi]
    arr = st.unary[xi]
    if m >= valk:
        # All pairs through this value are intolerable; the value is doomed
        # and the offsets stay untouched.
        st._set_cell(arr, i, valk)
        return True
    proj = st.pair_proj[fi][side]
    st._set_cell(proj, i, proj[i] + m)
    st._set_cell(arr, i, min(valk, arr[i] + m))
    return True


def project_binary(st: PropState, xi: int, vi: int, xj: int) -> bool:
    """Create a support for value vi of xi on every binary function that
    links xi and xj, moving the pair minimum onto vi's unary cost."""
    st._require_values()
    if not st.domains[xi].contains(vi):
        raise ContractError(f"value {vi} is not live in variable {xi}")
    fis = [
        fi
        for fi in st.incident[xi]
        if st.instance.functions[fi].arity == 2 and xj in st.instance.functions[fi].scope
    ]
    if not fis:
        raise ContractError(f"no binary function links variables {xi} and {xj}")
    moved = False
    for fi in fis:
        if _project_binary_one(st, fi, xi, vi):
            moved = True
    return moved


def _ac_loop(st: PropState) -> bool:
    """One queue-driven revision wave; True on wipeout."""
    n = len(st.domains)
    functions = st.instance.functions
    while st.queue:
        xj = st._pop()
        st.stats.queue_pops += 1
        w0_before = st.w_zero
        for fi in st.incident[xj]:
            fn = functions[fi]
            if fn.arity != 2:
                continue
            xo = fn.scope[0] if fn.scope[1] == xj else fn.scope[1]
            if st.domains[xo].is_empty:
                st._clear_queue()
                return True
            for vo in list(st.domains[xo].iter_values()):
                _project_binary_one(st, fi, xo, vo)
            project_unary(st, xo)
            if _nc_prune(st, xo):
                st._push(xo)
                if st.domains[xo].is_empty:
                    st._clear_queue()
                    return True
        if st.w_zero > w0_before:
            for xi in range(n):
                if _nc_prune(st, xi):
                    st._push(xi)
                    if st.domains[xi].is_empty:
                        st._clear_queue()
                        return True
    return False


def _ac_rounds(st: PropState) -> bool:
    """Alternate revision waves with full NC restoration until neither
    changes anything. NC deletions can strip a variable's zero-cost value,
    so a wave alone is not a fixpoint; each extra round costs at least one
    deletion or a constant-term increase, so this terminates."""
    while True:
        if _ac_loop(st):
            return True
        deletions = st.stats.deletions
        w0 = st.w_zero
        if _nc_fixpoint(st):
            st._clear_queue()
            return True
        if st.stats.deletions == deletions and st.w_zero == w0:
            return False
        st._queue_all()


def enforce_ac_star(st: PropState) -> ConsistencyReport:
    """Per-value arc + node consistency, the small-domain reference mode.

    Handles unary (absorbed at materialization) and binary functions only.
    """
    st._require_values()
    for fn in st.instance.functions:
        if fn.arity > 2:
            raise ContractError(
                "per-value arc enforcement is defined for unary and binary functions only"
            )
    if st.any_empty():
        return _report(st, True)
    if _nc_fixpoint(st):
        return _report(st, True)
    st._queue_all()
    return _report(st, _ac_rounds(st))


def _project_assigned_values(st: PropState, fi: int) -> bool:
    """Move a fully assigned function's effective cost to the constant term
    via its shift."""
    fn = st.instance.functions[fi]
    if fn.arity == 1:
        return False  # absorbed into the unary arrays
    values = tuple(st.domains[v].lb for v in fn.scope)
    ov = st.overlays[fi]
    ov.eval_count += 1
    raw = raw_cost(fn, values, st.val)
    valk = st.val.k
    eff = valk if raw == valk else raw - min(ov.delta_shift, raw)
    if eff == 0:
        return False
    st.stats.projections += 1
    st._trace(event="project", fn=fi, amount=eff)
    st._set_attr(st, "w_zero", min(st.k, st.w_zero + eff))
    st._set_attr(ov, "delta_shift", min(valk, ov.delta_shift + eff))
    return True


def resume_values(st: PropState, arc: bool, touched: List[int]) -> bool:
    """Re-establish NC (and arc consistency when `arc`) after narrowing.

    Without arc consistency, fully assigned functions contribute their cost
    to the constant term (backward checking) until nothing moves. Returns
    True on wipeout.
    """
    st._require_values()
    while True:
        if st.w_zero >= st.k or _nc_fixpoint(st):
            st._clear_queue()
            return True
        if arc:
            for xi in touched:
                st._push(xi)
            return _ac_rounds(st)
        if not _backward_check(st, _project_assigned_values):
            return False
