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
    number of changes.
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

    # -- trailed primitive mutations --------------------------------------

    def _set_lb(self, xi: int, new: int) -> None:
        d = self.domains[xi]
        if d.lb == new:
            return
        if self.trail is not None:
            self.trail.append(("lb", xi, d.lb))
        d.lb = new

    def _set_ub(self, xi: int, new: int) -> None:
        d = self.domains[xi]
        if d.ub == new:
            return
        if self.trail is not None:
            self.trail.append(("ub", xi, d.ub))
        d.ub = new

    def _rm_add(self, xi: int, v: int) -> None:
        d = self.domains[xi]
        if len(d.removed) >= REMOVED_CAP:
            raise CapError(f"interior removals capped at {REMOVED_CAP}")
        d.removed.add(v)
        if self.trail is not None:
            self.trail.append(("rm+", xi, v))

    def _rm_discard(self, xi: int, v: int) -> None:
        self.domains[xi].removed.discard(v)
        if self.trail is not None:
            self.trail.append(("rm-", xi, v))

    def _set_w_zero(self, new: int) -> None:
        if new == self.w_zero:
            return
        if self.trail is not None:
            self.trail.append(("w0", self.w_zero))
        self.w_zero = new

    def _set_w_inf(self, xi: int, new: int) -> None:
        if new == self.w_inf[xi]:
            return
        if self.trail is not None:
            self.trail.append(("wi", xi, self.w_inf[xi]))
        self.w_inf[xi] = new

    def _set_w_sup(self, xi: int, new: int) -> None:
        if new == self.w_sup[xi]:
            return
        if self.trail is not None:
            self.trail.append(("ws", xi, self.w_sup[xi]))
        self.w_sup[xi] = new

    def _set_delta_inf(self, xi: int, pos: int, new: int) -> None:
        row = self.delta_inf[xi]
        if row[pos] == new:
            return
        if self.trail is not None:
            self.trail.append(("di", xi, pos, row[pos]))
        row[pos] = new

    def _set_delta_sup(self, xi: int, pos: int, new: int) -> None:
        row = self.delta_sup[xi]
        if row[pos] == new:
            return
        if self.trail is not None:
            self.trail.append(("ds", xi, pos, row[pos]))
        row[pos] = new

    def _set_shift(self, fi: int, new: int) -> None:
        ov = self.overlays[fi]
        if ov.delta_shift == new:
            return
        if self.trail is not None:
            self.trail.append(("sh", fi, ov.delta_shift))
        ov.delta_shift = new

    def _set_unary(self, xi: int, idx: int, new: int) -> None:
        arr = self.unary[xi]
        if arr[idx] == new:
            return
        if self.trail is not None:
            self.trail.append(("un", xi, idx, arr[idx]))
        arr[idx] = new

    def _set_pair_proj(self, fi: int, side: int, idx: int, new: int) -> None:
        arr = self.pair_proj[fi][side]
        if arr[idx] == new:
            return
        if self.trail is not None:
            self.trail.append(("pp", fi, side, idx, arr[idx]))
        arr[idx] = new

    def mark(self) -> int:
        if self.trail is None:
            raise ContractError("state was created without a trail")
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            entry = trail.pop()
            tag = entry[0]
            if tag == "lb":
                self.domains[entry[1]].lb = entry[2]
            elif tag == "ub":
                self.domains[entry[1]].ub = entry[2]
            elif tag == "wi":
                self.w_inf[entry[1]] = entry[2]
            elif tag == "ws":
                self.w_sup[entry[1]] = entry[2]
            elif tag == "di":
                self.delta_inf[entry[1]][entry[2]] = entry[3]
            elif tag == "ds":
                self.delta_sup[entry[1]][entry[2]] = entry[3]
            elif tag == "w0":
                self.w_zero = entry[1]
            elif tag == "sh":
                self.overlays[entry[1]].delta_shift = entry[2]
            elif tag == "un":
                self.unary[entry[1]][entry[2]] = entry[3]
            elif tag == "pp":
                self.pair_proj[entry[1]][entry[2]][entry[3]] = entry[4]
            elif tag == "rm+":
                self.domains[entry[1]].removed.discard(entry[2])
            elif tag == "rm-":
                self.domains[entry[1]].removed.add(entry[2])
            else:
                raise ContractError(f"corrupt trail entry {entry!r}")

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


def _delete_inf(st: PropState, xi: int) -> None:
    d = st.domains[xi]
    st._trace(event="delete", var=xi, bound="inf", value=d.lb, amount=1)
    st.stats.deletions += 1
    new = d.lb + 1
    if d.removed:
        while new <= d.ub and new in d.removed:
            st._rm_discard(xi, new)
            new += 1
    st._set_lb(xi, new)


def _delete_sup(st: PropState, xi: int) -> None:
    d = st.domains[xi]
    st._trace(event="delete", var=xi, bound="sup", value=d.ub, amount=1)
    st.stats.deletions += 1
    new = d.ub - 1
    if d.removed:
        while new >= d.lb and new in d.removed:
            st._rm_discard(xi, new)
            new -= 1
    st._set_ub(xi, new)


def prune_inf(st: PropState, xi: int) -> bool:
    """Delete the lower bound if its combined pinned cost reaches the top.

    Resets the variable's inf-side caches, which are recomputed when it is
    popped again.
    """
    if st.domains[xi].is_empty:
        return False
    if st.w_zero + st.w_inf[xi] >= st.k:
        _delete_inf(st, xi)
        st._set_w_inf(xi, 0)
        row = st.delta_inf[xi]
        for pos in range(len(row)):
            st._set_delta_inf(xi, pos, 0)
        return True
    return False


def prune_sup(st: PropState, xi: int) -> bool:
    if st.domains[xi].is_empty:
        return False
    if st.w_zero + st.w_sup[xi] >= st.k:
        _delete_sup(st, xi)
        st._set_w_sup(xi, 0)
        row = st.delta_sup[xi]
        for pos in range(len(row)):
            st._set_delta_sup(xi, pos, 0)
        return True
    return False


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
    st._set_w_zero(min(st.k, st.w_zero + alpha))
    st._set_shift(fi, min(st.val.k, st.overlays[fi].delta_shift + alpha))
    return True


def _bound_loop(st: PropState, project: bool) -> bool:
    """Queue-driven fixpoint; returns True when the network wiped out."""
    functions = st.instance.functions
    n = len(st.domains)
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
            fn = functions[fi]
            for xi in fn.scope:
                slot = st.slot_of[xi][fi]
                alpha = _pinned(st, fi, xi, st.domains[xi].lb)
                st._set_w_inf(xi, st.w_inf[xi] - st.delta_inf[xi][slot] + alpha)
                st._set_delta_inf(xi, slot, alpha)
                if prune_inf(st, xi):
                    st._push(xi)
                    if st.domains[xi].is_empty:
                        st._clear_queue()
                        return True
                alpha = _pinned(st, fi, xi, st.domains[xi].ub)
                st._set_w_sup(xi, st.w_sup[xi] - st.delta_sup[xi][slot] + alpha)
                st._set_delta_sup(xi, slot, alpha)
                if prune_sup(st, xi):
                    st._push(xi)
                    if st.domains[xi].is_empty:
                        st._clear_queue()
                        return True
        if project and flag:
            # The constant term grew: every bound must be re-checked.
            for xi in range(n):
                if prune_inf(st, xi):
                    st._push(xi)
                    if st.domains[xi].is_empty:
                        st._clear_queue()
                        return True
                if prune_sup(st, xi):
                    st._push(xi)
                    if st.domains[xi].is_empty:
                        st._clear_queue()
                        return True
    return False


def _reset_bound_caches(st: PropState) -> None:
    for xi in range(len(st.domains)):
        st._set_w_inf(xi, 0)
        st._set_w_sup(xi, 0)
        for pos in range(len(st.delta_inf[xi])):
            st._set_delta_inf(xi, pos, 0)
            st._set_delta_sup(xi, pos, 0)


def _normalize_wipeout(st: PropState, project: bool) -> None:
    # The closure of an inconsistent network: all domains empty, and with
    # projection everything saturated. Keeps the outcome schedule-free.
    for xi, d in enumerate(st.domains):
        if d.removed:
            for v in sorted(d.removed):
                st._rm_discard(xi, v)
        st._set_lb(xi, 0)
        st._set_ub(xi, -1)
    if project:
        st._set_w_zero(st.k)
        for fi in range(len(st.overlays)):
            st._set_shift(fi, st.val.k)
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


def enforce_bac(st: PropState) -> ConsistencyReport:
    """Bound filtering alone: deletes bound values whose combined pinned
    minima reach the top. Never moves cost to the constant term."""
    st._require_interval()
    if st.any_empty():
        return _report(st, True)
    _reset_bound_caches(st)
    st._queue_all()
    empty = _bound_loop(st, project=False)
    if empty:
        _normalize_wipeout(st, project=False)
    return _report(st, empty)


def enforce_bac_zero(st: PropState) -> ConsistencyReport:
    """Joint fixpoint of bound filtering and whole-function projection."""
    st._require_interval()
    if st.any_empty():
        return _report(st, True)
    _reset_bound_caches(st)
    st._queue_all()
    empty = _bound_loop(st, project=True)
    if empty:
        _normalize_wipeout(st, project=True)
    return _report(st, empty)


def resume_bounds(st: PropState, project: bool, touched: List[int]) -> bool:
    """Re-establish the fixpoint after search narrowed some domains.

    Caches of untouched variables are still valid lower bounds (boxes only
    shrank), so a global prune sweep with cached sums is sound; touched
    variables must have had their caches reset by the caller. Returns True
    on wipeout, leaving the state un-normalized for the trail to undo.
    """
    st._require_interval()
    for xi in touched:
        st._push(xi)
    if st.w_zero >= st.k:
        st._clear_queue()
        return True
    for xi in range(len(st.domains)):
        if prune_inf(st, xi):
            st._push(xi)
            if st.domains[xi].is_empty:
                st._clear_queue()
                return True
        if prune_sup(st, xi):
            st._push(xi)
            if st.domains[xi].is_empty:
                st._clear_queue()
                return True
    return _bound_loop(st, project)


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
        st._set_w_zero(st.k)
        return True
    for v in d.iter_values():
        c = arr[v - base]
        st._set_unary(xi, v - base, valk if c >= valk else c - m)
    st._set_w_zero(min(st.k, st.w_zero + m))
    return True


def _delete_value(st: PropState, xi: int, v: int) -> None:
    d = st.domains[xi]
    st.stats.deletions += 1
    st._trace(event="delete", var=xi, bound="value", value=v, amount=1)
    if v == d.lb:
        new = v + 1
        while new <= d.ub and new in d.removed:
            st._rm_discard(xi, new)
            new += 1
        st._set_lb(xi, new)
    elif v == d.ub:
        new = v - 1
        while new >= d.lb and new in d.removed:
            st._rm_discard(xi, new)
            new -= 1
        st._set_ub(xi, new)
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
    base = st.base_lb[xi]
    if m >= valk:
        # All pairs through this value are intolerable; the value is doomed
        # and the offsets stay untouched.
        st._set_unary(xi, vi - base, valk)
        return True
    proj = st.pair_proj[fi][side]
    st._set_pair_proj(fi, side, vi - base, proj[vi - base] + m)
    u = st.unary[xi][vi - base]
    st._set_unary(xi, vi - base, min(valk, u + m))
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


def resume_values(st: PropState, arc: bool, touched: List[int]) -> bool:
    """Re-establish NC (and arc consistency when `arc`) after narrowing."""
    st._require_values()
    if st.w_zero >= st.k:
        st._clear_queue()
        return True
    if _nc_fixpoint(st):
        st._clear_queue()
        return True
    if not arc:
        return False
    for xi in touched:
        st._push(xi)
    return _ac_rounds(st)
