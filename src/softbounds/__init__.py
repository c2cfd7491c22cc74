"""Weighted constraint network solving with interval-bounds propagation."""

from .core import (
    INFINITY,
    CapError,
    ContractError,
    Domain,
    ParseError,
    SolverError,
    ValuationStructure,
    Variable,
    ominus,
    oplus,
)
from .costfn import (
    AntiFunctionalNeq,
    CostFunction,
    ExtTable,
    FunctionalEq,
    FunctionOverlay,
    LinPlus,
    MonoLeq,
    Spacer,
    evaluate,
    min_over_box,
    min_over_box_pinned,
    validate_semiconvex,
)
from .fileformat import emit, parse_path, parse_text
from .generators import gen_random, gen_satellite, gen_spacerchain
from .network import Instance, is_solution, total_cost
from .oracle import (
    OracleBudget,
    brute_min_over_box,
    brute_optimum,
    naive_bac_fixpoint,
    naive_bac_zero_fixpoint,
)
from .propagation import (
    AC_VALUE_CAP,
    INF,
    SUP,
    ConsistencyReport,
    PropState,
    enforce_ac_star,
    enforce_bac,
    enforce_bac_zero,
    enforce_nc,
    narrow,
    project_to_zero,
    project_unary,
    prune,
)
from .reify import CrispNetwork, compare_strength, enforce_crisp_bc, reify
from .search import SearchOptions, SearchResult, solve

__version__ = "0.1.0"
