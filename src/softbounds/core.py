"""Cost arithmetic and interval domains for weighted constraint networks.

Costs are plain non-negative integers in [0, k], where k is the intolerable
cost of the network. Addition saturates at k; subtraction is the partial
inverse used to move cost between scopes without changing the cost of any
complete assignment. k may be the INFINITY sentinel, which acts as an
absorbing top strictly above every representable finite cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Tuple

# Sentinel for an unbounded top cost. Finite costs must stay strictly below
# it, which keeps every stored cost within 64-bit range.
INFINITY = 2**63 - 1


class SolverError(Exception):
    """Base class for every error this package raises on purpose."""


class ContractError(SolverError):
    """A caller violated a documented precondition."""


class CapError(SolverError):
    """The input exceeds a size cap or enumeration budget and was refused."""


class ParseError(SolverError):
    """Instance text is malformed; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message


@dataclass(frozen=True)
class ValuationStructure:
    """The cost scale [0, k]. k == INFINITY means no finite ceiling."""

    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= INFINITY:
            raise ContractError(f"k must lie in [1, INFINITY], got {self.k}")

    @property
    def is_finite(self) -> bool:
        return self.k != INFINITY


def check_cost(c: int, val: ValuationStructure) -> int:
    if not 0 <= c <= val.k:
        raise ContractError(f"cost {c} outside [0, {val.k}]")
    return c


def oplus(a: int, b: int, val: ValuationStructure) -> int:
    """Saturating addition: min(k, a + b)."""
    check_cost(a, val)
    check_cost(b, val)
    s = a + b
    return val.k if s >= val.k else s


def ominus(a: int, b: int, val: ValuationStructure) -> int:
    """Partial inverse of oplus: a - b when a != k, and k otherwise.

    Requires b <= a and b != k. Violations are caller bugs and are
    rejected, never clamped.
    """
    check_cost(a, val)
    check_cost(b, val)
    if b > a or b == val.k:
        raise ContractError(f"ominus precondition violated: a={a}, b={b}, k={val.k}")
    return val.k if a == val.k else a - b


@dataclass
class Domain:
    """Integer interval [lb, ub], optionally with interior removals.

    Interior removals exist only in value mode (the per-value engines); the
    interval engines prune bounds exclusively, so `removed` stays None there.
    Both bounds are always live values: code that deletes a bound must slide
    it inward past removed values. A domain is empty when lb > ub, whatever
    the two bounds are: interval enforcement leaves every domain of a
    wipeout at (0, -1), but a value-mode wipeout or a `narrow` to a range
    outside the domain leaves bounds such as (5, 4) or (7, 4).
    """

    lb: int
    ub: int
    removed: set | None = None

    @property
    def is_empty(self) -> bool:
        return self.lb > self.ub

    def size(self) -> int:
        if self.is_empty:
            return 0
        width = self.ub - self.lb + 1
        return width - len(self.removed) if self.removed else width

    def contains(self, v: int) -> bool:
        if not self.lb <= v <= self.ub:
            return False
        return not (self.removed and v in self.removed)

    def iter_values(self) -> Iterator[int]:
        rem = self.removed
        for v in range(self.lb, self.ub + 1):
            if rem and v in rem:
                continue
            yield v

    def copy(self) -> "Domain":
        return Domain(self.lb, self.ub, set(self.removed) if self.removed else None)


@dataclass(frozen=True)
class Variable:
    id: int
    domain: Domain


# A box maps the variables of one scope to integer sub-intervals of their
# current domains.
Box = Mapping[int, Tuple[int, int]]
