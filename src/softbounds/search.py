"""Depth-first branch-and-bound with trailed state restoration.

Each node re-establishes the selected consistency incrementally; the
incumbent bound is global (tightening it is the point of the search) while
domains, the constant term and all shift structures are restored bit-exactly
on backtrack. Retained per-node state is the trail segment of the node's own
changes, never a copy of anything domain-sized.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .core import CapError, ContractError

# The search calls no cost function itself. `raw_cost` stays importable from
# this module because perfbench/tracer.py wraps it under this name.
from .costfn import raw_cost  # noqa: F401
from .network import Instance, total_cost
from .propagation import (
    AC_VALUE_CAP,
    LimitReached,
    PropState,
    narrow,
    resume_bounds,
    resume_values,
    state_mode,
)

CONSISTENCIES = ("nc", "ac", "bac", "bac0")


@dataclass
class SearchOptions:
    consistency: str = "bac0"
    initial_ub: Optional[int] = None
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None
    branching: str = "dichotomic"  # or "enumerate"
    var_order: str = "min_domain"  # or "lex"


@dataclass
class SearchResult:
    status: str  # "optimal" | "infeasible" | "limit"
    best_cost: Optional[int]
    best_assignment: Optional[Dict[int, int]]
    nodes: int
    backtracks: int
    incumbents: List[int] = field(default_factory=list)


class _Searcher:
    def __init__(self, inst: Instance, opts: SearchOptions, st: PropState):
        self.inst = inst
        self.opts = opts
        self.st = st
        self.nodes = 0
        self.backtracks = 0
        self.best_cost: Optional[int] = None
        self.best_assignment: Optional[Dict[int, int]] = None
        self.incumbents: List[int] = []
        if opts.time_limit is not None:
            # The fixpoint loops check it too, so one long fixpoint stops.
            st.deadline = time.perf_counter() + opts.time_limit

    def run(self) -> str:
        status = "optimal"
        mark = self.st.mark()
        try:
            self._node(0, touched=list(range(len(self.st.domains))))
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

    def _enforce(self, touched: List[int]) -> bool:
        c = self.opts.consistency
        if c in ("bac", "bac0"):
            return resume_bounds(self.st, project=c == "bac0", touched=touched)
        return resume_values(self.st, arc=c == "ac", touched=touched)

    def _node(self, depth: int, touched: List[int]) -> None:
        self._check_limits()
        self.nodes += 1
        if self._enforce(touched):
            if depth > 0:
                self.backtracks += 1
            return
        st = self.st
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
        d = st.domains[var]
        if self.opts.branching == "enumerate":
            for v in list(d.iter_values()):
                mark = st.mark()
                narrow(st, var, v, v)
                self._node(depth + 1, touched=[var])
                st.undo_to(mark)
        else:
            mid = (d.lb + d.ub) // 2
            for lo, hi in ((d.lb, mid), (mid + 1, d.ub)):
                mark = st.mark()
                narrow(st, var, lo, hi)
                if st.domains[var].is_empty:
                    st.undo_to(mark)
                    continue
                self._node(depth + 1, touched=[var])
                st.undo_to(mark)

    def _pick_variable(self) -> Optional[int]:
        st = self.st
        best = None
        best_size = None
        for i, d in enumerate(st.domains):
            if d.lb == d.ub:
                continue
            if self.opts.var_order == "lex":
                return i
            size = d.size()
            if best_size is None or size < best_size:
                best, best_size = i, size
        return best


def solve(inst: Instance, opts: SearchOptions) -> SearchResult:
    """Exact optimum (with witness) or proof of infeasibility below k."""
    if opts.consistency not in CONSISTENCIES:
        raise ContractError(f"unknown consistency {opts.consistency!r}")
    if opts.branching not in ("dichotomic", "enumerate"):
        raise ContractError(f"unknown branching {opts.branching!r}")
    if opts.var_order not in ("min_domain", "lex"):
        raise ContractError(f"unknown variable order {opts.var_order!r}")
    if opts.branching == "enumerate":
        widest = max((v.domain.size() for v in inst.variables), default=0)
        if widest > AC_VALUE_CAP:
            raise CapError(
                f"enumeration branching is capped at {AC_VALUE_CAP} values "
                f"per domain, got {widest}"
            )
    if opts.consistency == "ac":
        for fn in inst.functions:
            if fn.arity > 2:
                raise ContractError(
                    "arc consistency search requires unary and binary functions only"
                )
    st = PropState(inst, mode=state_mode(opts.consistency), record_trail=True)
    if opts.initial_ub is not None:
        if opts.initial_ub < 1:
            raise ContractError("initial upper bound must be at least 1")
        st.k = min(st.k, opts.initial_ub)

    depth_bound = 100 + 3 * len(inst.variables) + sum(
        max(1, v.domain.size()).bit_length() for v in inst.variables
    )
    if sys.getrecursionlimit() < depth_bound + 100:
        sys.setrecursionlimit(depth_bound + 100)

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
