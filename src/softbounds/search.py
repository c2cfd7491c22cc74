"""Depth-first branch-and-bound with trailed state restoration.

Each node re-establishes the selected consistency incrementally; the
incumbent bound is global (tightening it is the point of the search) while
domains, the constant term and all shift structures are restored bit-exactly
on backtrack. Retained per-node state is the trail segment of the node's own
changes, never a copy of anything domain-sized. The depth-first walk keeps
its open nodes on an explicit stack, so branch depth is not bounded by the
interpreter's recursion limit, which the search leaves alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .core import CapError, ContractError

# The search calls no cost function itself. `raw_cost` stays importable from
# this module because perfbench/tracer.py wraps it under this name.
from .costfn import raw_cost  # noqa: F401
from .network import Instance, total_cost
from .propagation import (
    AC_VALUE_CAP,
    ENFORCERS,
    LimitReached,
    PropState,
    backward_check,
    narrow,
    require_binary_scopes,
    resume_bounds,
    resume_values,
    state_mode,
    upper_half_first,
)

# The names `solve` accepts for `branching` and `var_order`; the first is the default.
BRANCHINGS = ("dichotomic", "enumerate")
VAR_ORDERS = ("min_domain", "lex")


@dataclass
class SearchOptions:
    """How `solve` searches.

    `var_order="min_domain"` branches on a variable with fewest live values,
    ties going to the most incident functions (dom/deg style) and then to
    the lowest index; `"lex"` takes the first unassigned variable.
    `branching="dichotomic"` splits the domain at its midpoint and tries
    the cheaper-looking half first, as `propagation.upper_half_first`
    prices it from the fixpoint's own costs. `"enumerate"` tries single values in
    ascending order. These orders find good incumbents early; optima never
    depend on them, but nodes, backtracks and, among tied optima, the
    witness do, so they may differ from versions with other orders.
    `node_limit` and `time_limit` (seconds, `inf` allowed) must be at
    least 0.
    """

    consistency: str = "bac0"
    initial_ub: Optional[int] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    branching: str = BRANCHINGS[0]
    var_order: str = VAR_ORDERS[0]


@dataclass
class SearchResult:
    status: str  # "optimal" | "infeasible" | "limit"
    best_cost: Optional[int]
    best_assignment: Optional[Dict[int, int]]
    nodes: int
    backtracks: int
    incumbents: List[int] = field(default_factory=list)


def resume_node(st: PropState, consistency: str, touched: List[int]) -> bool:
    """Resume `consistency` at a search node after `touched` narrowed;
    returns True on wipeout. Under bac and nc, whose fixpoints do not
    project assigned functions themselves, backward checking follows, and
    each move is resumed with nothing touched until nothing moves."""
    project = consistency in ("bac0", "ac")
    while True:
        if st.mode == "interval":
            empty = resume_bounds(st, project=project, touched=touched)
        else:
            empty = resume_values(st, arc=project, touched=touched)
        if empty or project or not backward_check(st):
            return empty
        touched = []


class _Searcher:
    def __init__(self, inst: Instance, opts: SearchOptions, st: PropState):
        self.inst = inst
        self.opts = opts
        self.st = st
        self.degree = [len(fis) for fis in st.incident]
        self.nodes = 0
        self.backtracks = 0
        self.best_cost: Optional[int] = None
        self.best_assignment: Optional[Dict[int, int]] = None
        self.incumbents: List[int] = []

    def run(self) -> str:
        status = "optimal"
        mark = self.st.mark()
        try:
            self._dfs()
        except LimitReached:
            status = "limit"
        finally:
            self.st.undo_to(mark)
        if status != "limit" and self.best_cost is None:
            status = "infeasible"
        return status

    def _check_limits(self) -> None:
        if self.opts.node_limit is not None and self.nodes >= self.opts.node_limit:
            raise LimitReached
        deadline = self.st.deadline
        if deadline is not None and time.perf_counter() > deadline:
            raise LimitReached

    def _dfs(self) -> None:
        """Depth-first search over an explicit stack with one entry per open
        node: the trail mark taken after its enforcement, its branching
        variable and an iterator over the branches it has not tried yet.
        Each branch starts by undoing the previous one back to that mark."""
        st = self.st
        stack: List[Tuple[int, int, Iterator[Tuple[int, int]]]] = []
        self._visit(list(range(len(st.domains))), stack)
        while stack:
            mark, var, branches = stack[-1]
            st.undo_to(mark)
            branch = next(branches, None)
            if branch is None:
                stack.pop()
                continue
            narrow(st, var, *branch)
            self._visit([var], stack)

    def _visit(self, touched: List[int], stack: list) -> None:
        """Enforce at a new node; a leaf may record an incumbent, and any
        other consistent node is pushed open onto `stack`."""
        self._check_limits()
        self.nodes += 1
        st = self.st
        if resume_node(st, self.opts.consistency, touched):
            if stack:  # below the root
                self.backtracks += 1
            return
        var = self._pick_variable()
        if var is None:
            t = {i: st.domains[i].lb for i in range(len(st.domains))}
            c = total_cost(self.inst, t)
            if c < st.k:
                self.best_cost = c
                self.best_assignment = t
                self.incumbents.append(c)
                st.k = c  # strictly-better search from here on
            return
        stack.append((st.mark(), var, iter(self._branches(var))))

    def _branches(self, var: int) -> List[Tuple[int, int]]:
        """The `(lo, hi)` narrowings of a node in the order they are tried
        (see `SearchOptions`)."""
        d = self.st.domains[var]
        if self.opts.branching == "enumerate":
            return [(v, v) for v in d.iter_values()]
        mid = (d.lb + d.ub) // 2
        halves = [(d.lb, mid), (mid + 1, d.ub)]
        if upper_half_first(self.st, var, mid):
            halves.reverse()
        return halves

    def _pick_variable(self) -> Optional[int]:
        """The branching variable under `var_order` (see `SearchOptions`),
        or None when every variable is assigned."""
        degree = self.degree
        best = None
        best_key = None
        for i, d in enumerate(self.st.domains):
            if d.lb == d.ub:
                continue
            if self.opts.var_order == "lex":
                return i
            key = (d.size(), -degree[i])
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best


def solve(inst: Instance, opts: SearchOptions) -> SearchResult:
    """Exact optimum (with witness) or proof of infeasibility below k."""
    if opts.consistency not in ENFORCERS:
        raise ContractError(f"unknown consistency {opts.consistency!r}")
    if opts.branching not in BRANCHINGS:
        raise ContractError(f"unknown branching {opts.branching!r}")
    if opts.var_order not in VAR_ORDERS:
        raise ContractError(f"unknown variable order {opts.var_order!r}")
    # `not >= 0` also refuses NaN, which no clock reading would ever exceed.
    if opts.time_limit is not None and not opts.time_limit >= 0:
        raise ContractError(f"time limit must be at least 0 seconds, got {opts.time_limit}")
    if opts.node_limit is not None and opts.node_limit < 0:
        raise ContractError(f"node limit must be at least 0, got {opts.node_limit}")
    if opts.branching == "enumerate":
        widest = max((v.domain.size() for v in inst.variables), default=0)
        if widest > AC_VALUE_CAP:
            raise CapError(
                f"enumeration branching is capped at {AC_VALUE_CAP} values "
                f"per domain, got {widest}"
            )
    if opts.consistency == "ac":
        require_binary_scopes(inst, "arc consistency search requires")
    if opts.initial_ub is not None and opts.initial_ub < 1:
        raise ContractError("initial upper bound must be at least 1")
    # The state checks the deadline too, from its value-mode set-up on, so
    # one long fixpoint or materialization stops.
    deadline = None if opts.time_limit is None else time.perf_counter() + opts.time_limit
    mode = state_mode(opts.consistency)
    try:
        st = PropState(inst, mode=mode, deadline=deadline)
    except LimitReached:
        return SearchResult(status="limit", best_cost=None, best_assignment=None,
                            nodes=0, backtracks=0)
    if opts.initial_ub is not None:
        st.k = min(st.k, opts.initial_ub)

    searcher = _Searcher(inst, opts, st)
    status = searcher.run()
    return SearchResult(
        status=status,
        best_cost=searcher.best_cost,
        best_assignment=searcher.best_assignment,
        nodes=searcher.nodes,
        backtracks=searcher.backtracks,
        incumbents=searcher.incumbents,
    )
