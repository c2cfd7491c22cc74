"""Weighted constraint network instances and whole-assignment evaluation."""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import List, Mapping

from .core import (
    ContractError,
    ValuationStructure,
    Variable,
    check_cost,
    oplus,
)
from .costfn import CostFunction, check_function, evaluate


@dataclass
class Instance:
    """An immutable network: variables, cost functions and the constant term.

    Treated as read-only after construction; all mutation during solving
    happens on separately owned propagation state.
    """

    name: str
    valuation: ValuationStructure
    variables: List[Variable]
    functions: List[CostFunction]
    w_zero: int = 0
    # Set by the parser, which has made every check below on the line it
    # read, and by the generators, whose output tests/test_generators.py
    # checks in full; it is not stored.
    _prechecked: InitVar[bool] = False

    def __post_init__(self, _prechecked: bool) -> None:
        if _prechecked:
            return
        check_cost(self.w_zero, self.valuation)
        for idx, var in enumerate(self.variables):
            if var.id != idx:
                raise ContractError(
                    f"variable ids must be dense and ordered; position {idx} holds id {var.id}"
                )
            if var.domain.is_empty:
                raise ContractError(f"variable {var.id} declared with an empty domain")
            if var.domain.removed:
                raise ContractError("instances are declared over plain intervals")
        bounds = {v.id: (v.domain.lb, v.domain.ub) for v in self.variables}
        for fn in self.functions:
            for v in fn.scope:
                if not 0 <= v < len(self.variables):
                    raise ContractError(f"scope {fn.scope} references unknown variable {v}")
            check_function(fn, bounds, self.valuation)


def total_cost(inst: Instance, t: Mapping[int, int]) -> int:
    """Cost of a complete assignment: w_zero combined with every function.

    The combination order is immaterial because saturating addition is
    commutative and associative.
    """
    for var in inst.variables:
        if var.id not in t:
            raise ContractError(f"assignment misses variable {var.id}")
        v = t[var.id]
        if not var.domain.lb <= v <= var.domain.ub:
            raise ContractError(
                f"value {v} outside the declared interval of variable {var.id}"
            )
    total = inst.w_zero
    val = inst.valuation
    for fn in inst.functions:
        total = oplus(total, evaluate(fn, {v: t[v] for v in fn.scope}, val), val)
        if total == val.k:
            return val.k
    return total


def is_solution(inst: Instance, t: Mapping[int, int]) -> bool:
    return total_cost(inst, t) < inst.valuation.k
