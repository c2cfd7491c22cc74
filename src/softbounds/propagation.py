"""Local-consistency engines over shared immutable instances.

Two families share one state object:

* interval mode: bound filtering (optionally combined with projection of
  whole-function minima onto the constant term). State is proportional to
  the number of variables plus the sum of arities, plus, once marked, the
  trail and the cost rows of dense binary tables (bounded by their entries,
  below), never to domain width.
* value mode: the small-domain reference engines (node consistency and
  per-value arc consistency), which materialize one unary cost per live
  value and per-value projection offsets for binary functions. Creation is
  refused above AC_VALUE_CAP values per domain.

In interval mode, the bound cache of a variable's side is its row of
per-function contributions, one exact integer per incident function and
nothing else (value mode reads no bound and keeps no cache): pruning
compares w_zero plus the sum of the row against the current top.
This is equivalent to the saturating update-and-test formulation (a
saturated sum always fires the prune that moves the bound) and stays
well-defined when search tightens the top mid-run.

The interval queue carries side events: a queued variable holds the mask
of its bounds that moved. `narrow` queues the sides it moved, touched
variables not queued yet get both, and `prune`, whose walk leaves the row
exact, queues NEIGHBOURS alone. Popping a variable recomputes the other
scope variables of its functions on both sides, and its own entries only
on the sides that moved, or on both sides when the function's shift was
just raised (every entry is then too high). An entry that is not
recomputed was taken over boxes that have only shrunk since, so it is
still a lower bound; whatever shrank them is queued, and its pop
recomputes the entry. So every row is exact at a fixpoint. The domains,
w_zero and shifts reached, and the deletions of a consistent outcome, do
not depend on the schedule; queue pops, lookups, the order of trace events
and the deletions made before a wipeout follow the revision order.

`prune` has one rule: a bound whose row reaches the top walks inward,
re-tested at once, until the first value whose full row is below the top.
That row is exact, so the variable is queued with the NEIGHBOURS event,
which revises only the other scope variables of its functions. The walk
writes its bound once, at its end: one trail entry, one `deletions`
increase by its width and one trace event, however many values it removed.

`project_to_zero` skips the box minimization of a function whose box and
shift are those at which its minimum was last found 0 (`zero_at`): the
projecting engine and backward checking minimize a function once per box.
A point, a box whose every interval holds one value, costs one lookup of
its tuple, and the same memo, whose key then names the point and the
shift, keeps it from being looked up again.

The bound fixpoint runs in one function, `resume_bounds`; enforcement resets
every row, queues every variable and resumes. A resume sweeps every bound only
when k - w_zero fell below its value at the last completed resume, kept in the
trailed `fixpoint_slack`; otherwise no row outside the queue can fire.
`backward_check`, run by the search after a bac or nc resume, projects with
`project_to_zero`, in both modes, the functions whose scope has just become
fully assigned (trailed `assigned` flags), each a point priced by one
lookup. It scans every domain for new singletons, which at the sizes the
benchmark runs costs less than keeping a list of them on every bound move
(see `scripts/scale_search.py` for where the scan grows). A `deadline` on
the state is checked every DEADLINE_POPS units of work (queue pops, walk
steps, and values projected or materialized in value mode), so a time
limit holds inside one long fixpoint, walk, projection or value-mode
set-up.

A binary table without a semi-convex tag whose declared box holds at most
ROW_FILL_RATIO times its entries gets cost rows at the state's first
`mark`: per scope position and pinned value, the raw costs over the
partner's declared interval, filled on first use. A pinned minimum is then
the least entry of a slice of one row, with the lookups the table scan
would have counted. Filled rows hold at most twice the declared box, so at
most 2 * ROW_FILL_RATIO cells per table entry, whatever the domain widths;
`allocation_cells` counts them and `PropStats.row_fills` counts the table
reads that filled them.

The value engines keep NC*: every live value has w_zero plus its unary cost
below k, and every non-empty domain has a value of zero unary cost. One
pass of projections then prunes reaches it, because pruning never lowers
w_zero and removes a zero-cost value only once w_zero reaches k, which
wipes the domain. The arc loop keeps it: each unary increase on a variable
is followed at once by that variable's projection and prune, and each rise
of w_zero by a prune sweep over every variable, so when the queue empties
NC* holds and no further round is needed. `resume_values` keeps the same
`fixpoint_slack` as `resume_bounds`: it projects and prunes only the
touched variables, and prunes every variable only when the slack fell.

On a wipeout the interval engines normalize the state to the closure of an
inconsistent network: every domain empty, and for the projecting engine the
constant term and every shift saturated. This is what makes the enforcement
outcome independent of the queue schedule even on inconsistent inputs.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass
from operator import setitem
from typing import Dict, List, Optional, Tuple

from .core import CapError, ContractError, Domain
from .costfn import ExtTable, FunctionOverlay, min_over_tuple_box, raw_cost, unshift

# The engines call `min_over_tuple_box`. The dict-box API stays importable
# from this module because perfbench/tracer.py wraps it under these names.
from .costfn import min_over_box, min_over_box_pinned  # noqa: F401
from .network import Instance

# Value mode allocates per-value arrays, so it is refused on wide domains.
AC_VALUE_CAP = 65536

# The two bounds of a domain, as the `side` argument of `prune`; code that
# picks a bound by side tests `if side` for SUP.
INF, SUP = 0, 1

# A queued variable's events: bit `1 << side` is set when that bound moved
# and its row on that side must be recomputed; NEIGHBOURS alone says that
# its bounds moved but its rows are exact, so only its neighbours are revised.
BOTH = 1 << INF | 1 << SUP
NEIGHBOURS = 4
# The sides named by each event mask.
_SIDES = ((), (INF,), (SUP,), (INF, SUP))

# Rows are kept for a binary table whose declared box holds at most this
# many times its entries (see `PropState._declare_rows`).
ROW_FILL_RATIO = 4

# A state's deadline is compared with the clock once every this many units
# of work: queue pops, the steps of a walking prune, and in value mode the
# values projected by `_project_pairs` or materialized at set-up.
DEADLINE_POPS = 64


class LimitReached(Exception):
    """A search limit was reached. Raised inside a fixpoint when the state's
    deadline has passed, which leaves the state mid-fixpoint for the
    caller's trail to undo; the search also raises it between nodes."""


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
    row_fills: int = 0  # table reads made to fill cost rows; not lookups


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

    From the first `mark()` on, every mutation is journalled so search can
    restore the state bit-exactly; retained entries are proportional to the
    number of changes. Every trail entry has one shape, `(write, target,
    key, old)`, and `undo_to` pops entries and calls `write(target, key,
    old)`: `setitem` for a list cell, `setattr` for an attribute (a bound,
    `w_zero`, a shift) and `_set_member` for an interior removal.

    `trace`, a list or any object with an `append` method, receives one
    event dict per deletion or projection as it happens; the deletions of
    one walk of a bound are one event, whose `amount` is the number of
    values.
    `deadline`, a `time.perf_counter()` value or None, makes the fixpoint
    loops, the walks of `prune`, value-mode projections and the value-mode
    set-up in this constructor raise `LimitReached` once it has passed.
    """

    def __init__(
        self,
        inst: Instance,
        mode: str = "interval",
        pop_rng: Optional[random.Random] = None,
        trace: Optional[list] = None,
        deadline: Optional[float] = None,
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
        # Per function, its slot in each scope variable's rows, in scope order.
        self.slots: List[Tuple[int, ...]] = []
        for fi, fn in enumerate(inst.functions):
            self.slots.append(tuple(len(self.incident[v]) for v in fn.scope))
            for v in fn.scope:
                self.incident[v].append(fi)
        # The bound caches of each side, indexed by INF and SUP. Value mode
        # reads no bound cache and keeps none.
        self.delta_inf: List[List[int]] = []
        self.delta_sup: List[List[int]] = []
        self._caches: tuple = ()
        self.overlays = [FunctionOverlay() for _ in inst.functions]
        # Per function, the (box, shift) of its last zero minimum; see
        # `project_to_zero`.
        self.zero_at: List[Optional[tuple]] = [None] * len(inst.functions)
        # Per function, the cost rows of a dense binary table, or None.
        self.table_rows: List[Optional[tuple]] = [None] * len(inst.functions)
        self.queue: deque = deque()
        self.in_queue = [0] * n  # event mask of each variable; 0 when not queued
        self.pop_rng = pop_rng
        self.trail: Optional[list] = None  # started by the first `mark`
        self.trace = trace
        self.deadline = deadline
        self.ticks = 0  # units of work, for the deadline
        # Backward checking: variables already seen assigned on this branch.
        self.assigned = [False] * n
        # k - w_zero when the last resume completed: no untouched row reaches
        # it. The all-zero rows of a new state reach nothing below k - w_zero.
        self.fixpoint_slack = self.k - self.w_zero
        self.stats = PropStats()
        self.unary: Optional[List[List[int]]] = None
        self.base_lb: Optional[List[int]] = None
        self.pair_proj: Optional[Dict[int, Tuple[List[int], List[int]]]] = None
        if mode == "values":
            self._materialize_values()
        else:
            self.delta_inf = [[0] * len(fis) for fis in self.incident]
            self.delta_sup = [[0] * len(fis) for fis in self.incident]
            self._caches = (self.delta_inf, self.delta_sup)

    def _declare_rows(self) -> None:
        """Give cost rows (see the module docstring) to the dense binary
        tables, at the first `mark`. Rows hold raw costs only, so they need
        no trail and stay valid across `undo_to`."""
        spans = [(v.domain.lb, v.domain.ub) for v in self.instance.variables]
        for fi, fn in enumerate(self.instance.functions):
            kind = fn.kind
            if fn.arity != 2 or not isinstance(kind, ExtTable) or kind.semiconvex is not None:
                continue
            box = (alo, ahi), (blo, bhi) = spans[fn.scope[0]], spans[fn.scope[1]]
            if (ahi - alo + 1) * (bhi - blo + 1) <= ROW_FILL_RATIO * len(kind.table):
                # (entries, declared box, per scope position: value -> row)
                self.table_rows[fi] = (len(kind.table), box, ({}, {}))

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
                self._tick()
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

    def _set_removed(self, xi: int, v: int, member: bool) -> None:
        removed = self.domains[xi].removed
        _set_member(removed, v, member)
        if self.trail is not None:
            self.trail.append((_set_member, removed, v, not member))

    def mark(self) -> int:
        if self.trail is None:
            self.trail = []
            if self.mode == "interval":
                self._declare_rows()
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        trail = self.trail
        if trail is None:
            raise ContractError("undo_to needs a mark: call mark() first")
        while len(trail) > mark:
            write, target, key, old = trail.pop()
            write(target, key, old)

    # -- queue -------------------------------------------------------------

    def _push(self, xi: int, events: int = BOTH) -> None:
        queued = self.in_queue[xi]
        if not queued:
            self.queue.append(xi)
        self.in_queue[xi] = queued | events

    def _pop(self) -> Tuple[int, int]:
        """The next variable and its event mask."""
        if self.pop_rng is not None and len(self.queue) > 1:
            self.queue.rotate(-self.pop_rng.randrange(len(self.queue)))
        xi = self.queue.popleft()
        events = self.in_queue[xi]
        self.in_queue[xi] = 0
        return xi, events

    def _queue_all(self) -> None:
        for xi in range(len(self.domains)):
            self._push(xi)

    def _clear_queue(self) -> None:
        while self.queue:
            self.in_queue[self.queue.popleft()] = 0

    def _tick(self) -> None:
        """Count one unit of work (a queue pop, a walk step, or one value
        projected or materialized in value mode) and compare the deadline
        with the clock every DEADLINE_POPS units."""
        self.ticks += 1
        if (
            self.deadline is not None
            and not self.ticks % DEADLINE_POPS
            and time.perf_counter() > self.deadline
        ):
            raise LimitReached

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
        cells += sum(len(row) for rows in self._caches for row in rows)
        cells += len(self.overlays)
        cells += len(self.in_queue)
        cells += len(self.assigned)
        if self.unary is not None:
            cells += sum(len(a) for a in self.unary)
        if self.pair_proj is not None:
            cells += sum(len(a) + len(b) for a, b in self.pair_proj.values())
        cells += sum(len(d.removed) for d in self.domains if d.removed)
        for rows in self.table_rows:
            if rows is not None:
                cells += sum(len(line) for lines in rows[2] for line in lines.values())
        return cells


# ----------------------------------------------------------------------
# Interval engines
# ----------------------------------------------------------------------


def _pinned(st: PropState, fi: int, xi: int, value: int) -> int:
    """The minimum effective cost of function fi over the box with xi at
    `value`. A table with cost rows reads one slice of the row of `value`
    when it lists at least as many entries as the partner's box is wide,
    the case in which `box_min` would scan that line densely, and counts
    that scan's lookups: up to the first minimum when the shift absorbs
    it, else the whole slice."""
    fn = st.instance.functions[fi]
    doms = st.domains
    scope = fn.scope
    rows = st.table_rows[fi]
    if rows is not None:
        entries, box, lines = rows
        pos = 0 if scope[0] == xi else 1
        d = doms[scope[1 - pos]]
        if entries > d.ub - d.lb:
            lo = box[1 - pos][0]
            line = lines[pos].get(value)
            if line is None:
                line = lines[pos][value] = fn.kind.line(pos, value, lo, box[1 - pos][1])
                st.stats.row_fills += len(line)
            part = line[d.lb - lo:d.ub - lo + 1]
            m = min(part)
            ov = st.overlays[fi]
            shift = ov.delta_shift
            ov.eval_count += part.index(m) + 1 if m <= shift else len(part)
            return unshift(m, shift, st.val.k) if shift else m
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
            st._set_removed(xi, new, False)
            new += step
    st._set_attr(d, "ub" if side else "lb", new)


def _zero_caches(st: PropState, xi: int, side: int) -> None:
    row = st._caches[side][xi]
    for pos in range(len(row)):
        st._set_cell(row, pos, 0)


def prune(st: PropState, xi: int, side: int) -> bool:
    """Delete the bound of xi on `side` (INF or SUP) while its combined
    pinned cost reaches the top; returns whether anything was deleted.

    The bound walks: it is deleted for as long as its row, recomputed at
    the new bound, reaches the top. Each step evaluates the functions one
    at a time, from the one that ended the previous step, until the partial
    sum reaches the top; the others count 0, a lower bound. The walk stops
    at the first bound whose full row stays below the top. That row is
    exact, so the variable is queued with the NEIGHBOURS event alone. No
    pinned minimum reads the walking bound itself, so the walk keeps it in
    a local and writes it once at the end: one trailed move, one
    `deletions` increase and one `delete` trace event whose `value` is the
    first value removed and whose `amount` is the number removed. A
    deadline that passes mid-walk writes nothing.
    """
    d = st.domains[xi]
    if d.is_empty:
        return False
    row = st._caches[side][xi]
    top = st.k - st.w_zero
    if sum(row) < top:
        return False
    first, step, end = (d.ub, -1, d.lb - 1) if side else (d.lb, 1, d.ub + 1)
    v = first + step  # the next bound; `end` is one past the last value
    fis = st.incident[xi]
    n = len(fis)
    # A step starts at the entry that ended the previous one, the first at
    # the largest cached entry. The empty row of a variable without
    # functions reaches only a top at or below 0, and every value goes.
    pos = row.index(max(row)) if n else 0
    while v != end:
        st._tick()
        start = pos
        alphas = [0] * n
        total = 0
        for i in range(n):
            pos = (start + i) % n
            alphas[pos] = alpha = _pinned(st, fis[pos], xi, v)
            total += alpha
            if total >= top:
                break
        if total < top:
            # The full row is below the top: v is supported, its row exact.
            for pos in range(n):
                st._set_cell(row, pos, alphas[pos])
            break
        v += step
    width = abs(v - first)
    if st.trace is not None:
        bound = "sup" if side else "inf"
        st.trace.append(
            {"event": "delete", "var": xi, "bound": bound, "value": first, "amount": width}
        )
    st.stats.deletions += width
    _slide(st, xi, side, v)
    st._push(xi, NEIGHBOURS)
    return True


def _prune_all(st: PropState) -> bool:
    """Prune both bounds of every variable whose row reaches the top;
    returns True on wipeout."""
    top = st.k - st.w_zero  # pruning moves neither k nor w_zero
    for xi in range(len(st.domains)):
        for side in (INF, SUP):
            if sum(st._caches[side][xi]) < top:
                continue
            if prune(st, xi, side) and st.domains[xi].is_empty:
                st._clear_queue()
                return True
    return False


def narrow(st: PropState, xi: int, lo: int, hi: int) -> None:
    """Intersect the domain of xi with [lo, hi], as a search branch does.

    In interval mode the variable's caches on each side that moved refer to
    the old bound and would be unsound to prune with; they are zeroed, and
    the variable is queued with those sides' events. A side that did not
    move keeps its row, whose entries are still lower bounds. Nothing is
    queued when no bound moved.
    """
    d = st.domains[xi]
    lo = max(d.lb, lo)
    hi = min(d.ub, hi)
    moved = (lo > d.lb) | (hi < d.ub) << 1
    if d.removed:
        for v in [w for w in d.removed if w < lo or w > hi]:
            st._set_removed(xi, v, False)
    if moved & 1:
        _slide(st, xi, INF, lo)
    if moved & 2:
        _slide(st, xi, SUP, hi)
    if st.mode == "interval" and moved:
        for side in _SIDES[moved]:
            _zero_caches(st, xi, side)
        st._push(xi, moved)


def upper_half_first(st: PropState, xi: int, mid: int) -> bool:
    """Whether a dichotomic branch on xi should try [mid + 1, ub] before
    [lb, mid]: in interval mode when the row of the upper bound, exact at a
    fixpoint, sums below that of the lower bound; in value mode when the
    lowest live value of least unary cost lies above `mid`. Ties go to the
    lower half."""
    if st.mode == "interval":
        return sum(st.delta_sup[xi]) < sum(st.delta_inf[xi])
    arr, base = st.unary[xi], st.base_lb[xi]
    return min(st.domains[xi].iter_values(), key=lambda v: arr[v - base]) > mid


def project_to_zero(st: PropState, fi: int) -> bool:
    """Move the function's minimum over the current box onto w_zero.

    The amount is recorded in the function's shift so stored costs stay
    untouched; afterwards the function has a zero-effective-cost tuple.

    The minimum depends on the box and the shift alone, so the state
    remembers in `zero_at` the (box, shift) at which the function's
    minimum was last 0, after a raise or when nothing moved, and returns
    False at once while both are unchanged. The key holds all the result
    depends on, so the memo needs no trail and stays valid across `undo_to`.
    """
    fn = st.instance.functions[fi]
    doms = st.domains
    ov = st.overlays[fi]
    box = tuple([(doms[v].lb, doms[v].ub) for v in fn.scope])
    key = (box, ov.delta_shift)
    if st.zero_at[fi] == key:
        return False
    point, highs = zip(*box)
    if point == highs:
        ov.eval_count += 1
        alpha = raw_cost(fn, point, st.val)
        if ov.delta_shift:
            alpha = unshift(alpha, ov.delta_shift, st.val.k)
    else:
        alpha = min_over_tuple_box(fn, box, st.val.k, ov)
    if alpha == 0:
        st.zero_at[fi] = key
        return False
    st.stats.projections += 1
    if st.trace is not None:
        st.trace.append({"event": "project", "fn": fi, "amount": alpha})
    st._set_attr(st, "w_zero", min(st.k, st.w_zero + alpha))
    st._set_attr(ov, "delta_shift", min(st.val.k, ov.delta_shift + alpha))
    st.zero_at[fi] = (box, ov.delta_shift)
    return True


def _bound_loop(st: PropState, project: bool) -> bool:
    """Queue-driven fixpoint; returns True when the network wiped out.

    Popping xj revises every incident function: the other scope variables
    on both sides, and xj's own entries on the sides that moved, or on both
    sides when the function's shift was just raised.
    An entry left alone is still a lower bound, and the pop of whatever
    shrank its box recomputes it.
    """
    functions = st.instance.functions
    caches = st._caches
    stats = st.stats
    while st.queue:
        xj, moved = st._pop()
        stats.queue_pops += 1
        st._tick()
        flag = False
        for fi in st.incident[xj]:
            # Every entry of a function whose shift was raised is too high.
            raised = project and project_to_zero(st, fi)
            if raised:
                flag = True
                if st.w_zero >= st.k:
                    st._clear_queue()
                    return True
            for xi, slot in zip(functions[fi].scope, st.slots[fi]):
                d = st.domains[xi]
                sides = BOTH if raised or xi != xj else moved & BOTH
                for side in _SIDES[sides]:
                    row = caches[side][xi]
                    st._set_cell(row, slot, _pinned(st, fi, xi, d.ub if side else d.lb))
                    if sum(row) >= st.k - st.w_zero and prune(st, xi, side) and d.is_empty:
                        st._clear_queue()
                        return True
        # The constant term grew: every bound must be re-checked.
        if project and flag and _prune_all(st):
            return True
    return False


def _normalize_wipeout(st: PropState, project: bool) -> None:
    # The closure of an inconsistent network: all domains empty, and with
    # projection everything saturated. Keeps the outcome schedule-free.
    # Interval state has no interior removals to clear.
    for d in st.domains:
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
    """Enforcement is a resume from the root: every row is reset and every
    variable queued on both sides, so it is sound even on a state that a
    deadline left in the middle of a pop."""
    st._require_interval()
    if st.any_empty():
        return _report(st, True)
    for xi in range(len(st.domains)):
        _zero_caches(st, xi, INF)
        _zero_caches(st, xi, SUP)
    st._queue_all()
    empty = resume_bounds(st, project, ())
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


def backward_check(st: PropState) -> bool:
    """Backward checking: move the cost of every function whose scope has
    just become fully assigned onto w_zero with `project_to_zero`, in
    function order, and zero its row entries, which predate the shift. The
    search resumes after each move until nothing moves.

    Variables are flagged in the trailed `assigned` list the first time a
    pass sees them assigned, so only the functions of newly flagged
    variables are tested; those fully assigned earlier on the branch were
    projected then. Value mode skips the unary functions its set-up
    absorbed. Returns whether anything moved; stops once w_zero is at k.
    """
    skip_unary = st.mode == "values"
    assigned = st.assigned
    fresh = set()
    for xi, d in enumerate(st.domains):
        if d.lb == d.ub and not assigned[xi]:
            st._set_cell(assigned, xi, True)
            fresh.update(st.incident[xi])
    moved = False
    functions = st.instance.functions
    for fi in sorted(fresh):
        scope = functions[fi].scope
        if (skip_unary and len(scope) == 1) or not all(assigned[v] for v in scope):
            continue
        if project_to_zero(st, fi):
            moved = True
            for rows in st._caches:
                for v, slot in zip(scope, st.slots[fi]):
                    st._set_cell(rows[v], slot, 0)
            if st.w_zero >= st.k:
                break
    return moved


def _emptied(st: PropState, touched: List[int]) -> bool:
    """Whether a touched or queued variable has an empty domain, as after a
    `narrow` to a range outside it; the resume is then a wipeout. The search
    touches one variable per node, so this costs O(1) there."""
    doms = st.domains
    for xi in touched:
        if doms[xi].is_empty:
            return True
    for xi in st.queue:
        if doms[xi].is_empty:
            return True
    return False


def resume_bounds(st: PropState, project: bool, touched: List[int]) -> bool:
    """Re-establish the bound fixpoint once after search narrowed some
    domains, or after backward checking raised w_zero.

    `narrow` queues what it changed. Touched variables it did not queue must
    have had their caches reset and are revised on both sides. Caches of
    untouched variables are still valid lower bounds (boxes only shrank),
    and none of them fired at the last completed fixpoint, against a slack
    k - w_zero kept in the trailed `fixpoint_slack`; so the prune sweep over
    every bound runs only when the slack has fallen below that value, as
    after a new incumbent or a backward check. The slack reached is recorded
    anew. Returns True on wipeout, leaving the state un-normalized for the
    trail to undo.
    """
    st._require_interval()
    for xi in touched:
        if not st.in_queue[xi]:
            st._push(xi)
    slack = st.k - st.w_zero
    # A slack at or below 0 is a wipeout even over variables no function touches.
    if slack <= 0 or _emptied(st, touched):
        st._clear_queue()
        return True
    if (slack < st.fixpoint_slack and _prune_all(st)) or _bound_loop(st, project):
        return True
    st._set_attr(st, "fixpoint_slack", st.k - st.w_zero)
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
    if d.removed:
        m = min(arr[v - base] for v in d.iter_values())
    else:
        m = min(arr[d.lb - base:d.ub - base + 1])
    if m == 0:
        return False
    valk = st.val.k
    st.stats.projections += 1
    if st.trace is not None:
        st.trace.append({"event": "project_unary", "var": xi, "amount": m})
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
    if st.trace is not None:
        st.trace.append({"event": "delete", "var": xi, "bound": "value", "value": v, "amount": 1})
    if v == d.lb:
        _slide(st, xi, INF, v + 1)
    elif v == d.ub:
        _slide(st, xi, SUP, v - 1)
    else:
        st._set_removed(xi, v, True)


def _nc_prune(st: PropState, xi: int) -> bool:
    d = st.domains[xi]
    base = st.base_lb[xi]
    arr = st.unary[xi]
    if not d.removed and (d.is_empty or max(arr[d.lb - base:d.ub - base + 1]) < st.k - st.w_zero):
        return False  # no live value reaches the top
    changed = False
    for v in list(d.iter_values()):
        if st.w_zero + arr[v - base] >= st.k:
            _delete_value(st, xi, v)
            changed = True
            if d.is_empty:
                break
    return changed


def _nc_fixpoint(st: PropState, touched: List[int]) -> bool:
    """Node-consistency (NC*) fixpoint; returns True on wipeout.

    One pass suffices: after every variable is projected, each non-empty
    domain holds a zero-cost value, and pruning, which leaves w_zero alone,
    deletes that value only when w_zero has reached k and the domain wipes
    out. With no variable to wipe, w_zero at k is the wipeout.

    Enforcement touches every variable. A resume touches those changed
    since the last completed resume, at whose slack `fixpoint_slack` NC*
    held: the others still hold a zero-cost value and no value at or above
    that slack, so only the touched variables are projected, and every
    variable is pruned only when k - w_zero has fallen below it.
    """
    for xi in touched:
        if not st.domains[xi].is_empty:
            project_unary(st, xi)
    variables = touched
    if st.k - st.w_zero < st.fixpoint_slack:
        variables = range(len(st.domains))
    for xi in variables:
        if _nc_prune(st, xi) and st.domains[xi].is_empty:
            return True
    return st.w_zero >= st.k


def enforce_nc(st: PropState) -> ConsistencyReport:
    """Every live value tolerable, every variable with a zero-cost value."""
    st._require_values()
    if st.any_empty():
        return _report(st, True)
    return _report(st, _nc_fixpoint(st, list(range(len(st.domains)))))


def _project_pairs(st: PropState, fi: int, xo: int) -> None:
    """For each live value of xo, move the least effective cost of binary
    function fi over the pairs through that value onto its unary cost. The
    partner's values and offsets, which this leaves alone, are read once."""
    fn = st.instance.functions[fi]
    side = 0 if fn.scope[0] == xo else 1
    xp = fn.scope[1 - side]
    val, valk = st.val, st.val.k
    ov = st.overlays[fi]
    proj, other = st.pair_proj[fi][side], st.pair_proj[fi][1 - side]
    base, pbase = st.base_lb[xo], st.base_lb[xp]
    partner = [(vp, other[vp - pbase]) for vp in st.domains[xp].iter_values()]
    arr = st.unary[xo]
    timed = st.deadline is not None  # ticks serve the deadline alone
    for vo in list(st.domains[xo].iter_values()):
        if timed:
            st._tick()
        i = vo - base
        own = proj[i]
        m = None
        for vp, offset in partner:
            ov.eval_count += 1
            raw = raw_cost(fn, (vo, vp) if side == 0 else (vp, vo), val)
            c = valk if raw >= valk else raw - own - offset
            if m is None or c < m:
                m = c
                if m == 0:
                    break
        if m == 0:
            continue
        st.stats.projections += 1
        if st.trace is not None:
            st.trace.append({"event": "project_binary", "fn": fi, "var": xo, "value": vo, "amount": m})
        if m >= valk:
            # All pairs through this value are intolerable; the value is
            # doomed and the offsets stay untouched.
            st._set_cell(arr, i, valk)
        else:
            st._set_cell(proj, i, own + m)
            st._set_cell(arr, i, min(valk, arr[i] + m))


def _ac_loop(st: PropState) -> bool:
    """Queue-driven arc-consistency fixpoint; True on wipeout.

    Expects NC* on entry and keeps it: a variable whose unary costs rose is
    projected and pruned at once, and a rise of w_zero is followed by a
    prune sweep over every variable. So the queue emptying is the AC*
    fixpoint, and no node-consistency round is needed after it.
    """
    n = len(st.domains)
    functions = st.instance.functions
    stats = st.stats
    while st.queue:
        xj, _ = st._pop()
        stats.queue_pops += 1
        st._tick()
        w0_before = st.w_zero
        for fi in st.incident[xj]:
            fn = functions[fi]
            if fn.arity != 2:
                continue
            xo = fn.scope[0] if fn.scope[1] == xj else fn.scope[1]
            _project_pairs(st, fi, xo)
            project_unary(st, xo)
            if _nc_prune(st, xo):
                st._push(xo)
                if st.domains[xo].is_empty:
                    st._clear_queue()
                    return True
        if st.w_zero > w0_before:
            # w_zero is still below k (a rise to k wipes xo above), so every
            # variable keeps its zero-cost value and no domain wipes here.
            for xi in range(n):
                if _nc_prune(st, xi):
                    st._push(xi)
    return False


def require_binary_scopes(inst: Instance, action: str) -> None:
    """Refuse functions of arity above 2, which the arc loop never revises;
    `action` opens the error message."""
    if any(fn.arity > 2 for fn in inst.functions):
        raise ContractError(f"{action} unary and binary functions only")


def enforce_ac_star(st: PropState) -> ConsistencyReport:
    """Per-value arc + node consistency, the small-domain reference mode.

    Handles unary (absorbed at materialization) and binary functions only.
    """
    st._require_values()
    require_binary_scopes(st.instance, "per-value arc enforcement is defined for")
    if st.any_empty():
        return _report(st, True)
    if _nc_fixpoint(st, list(range(len(st.domains)))):
        return _report(st, True)
    st._queue_all()
    return _report(st, _ac_loop(st))


def resume_values(st: PropState, arc: bool, touched: List[int]) -> bool:
    """Re-establish NC (and arc consistency when `arc`) once after
    narrowing, or after backward checking raised w_zero.

    As in `resume_bounds`, only the touched variables are projected and
    pruned unless k - w_zero has fallen below the trailed `fixpoint_slack`
    of the last completed resume, which is then recorded anew. Returns True
    on wipeout.
    """
    st._require_values()
    if st.w_zero >= st.k or _emptied(st, touched) or _nc_fixpoint(st, touched):
        st._clear_queue()
        return True
    if arc:
        for xi in touched:
            st._push(xi)
        if _ac_loop(st):
            return True
    st._set_attr(st, "fixpoint_slack", st.k - st.w_zero)
    return False


# The enforcer of each consistency by name: the CLI's choices and the names
# `search.solve` accepts.
ENFORCERS = {"nc": enforce_nc, "ac": enforce_ac_star, "bac": enforce_bac, "bac0": enforce_bac_zero}


def state_mode(consistency: str) -> str:
    """The `PropState` mode that a consistency runs on."""
    return "values" if consistency in ("nc", "ac") else "interval"
