"""Weighted constraint network solving with interval-bounds propagation.

`import softbounds` loads none of the package's modules: each exported name
loads its module on first use (PEP 562), and so does `softbounds.<module>`.
A CLI process therefore loads only the modules its command runs.
"""

import importlib
import sys
import types

# module -> the names the package exports from it
_EXPORTS = {
    "core": (
        "INFINITY",
        "CapError",
        "ContractError",
        "Domain",
        "ParseError",
        "SolverError",
        "ValuationStructure",
        "Variable",
        "ominus",
        "oplus",
    ),
    "costfn": (
        "AntiFunctionalNeq",
        "CostFunction",
        "ExtTable",
        "FunctionalEq",
        "FunctionOverlay",
        "LinPlus",
        "MonoLeq",
        "Spacer",
        "evaluate",
        "min_over_box",
        "min_over_box_pinned",
        "validate_semiconvex",
    ),
    "fileformat": ("emit", "parse_path", "parse_text"),
    "generators": ("gen_random", "gen_satellite", "gen_spacerchain"),
    "network": ("Instance", "is_solution", "total_cost"),
    "oracle": (
        "OracleBudget",
        "brute_min_over_box",
        "brute_optimum",
        "naive_bac_fixpoint",
        "naive_bac_zero_fixpoint",
    ),
    "propagation": (
        "AC_VALUE_CAP",
        "INF",
        "SUP",
        "ConsistencyReport",
        "PropState",
        "enforce_ac_star",
        "enforce_bac",
        "enforce_bac_zero",
        "enforce_nc",
        "narrow",
        "project_to_zero",
        "project_unary",
        "prune",
    ),
    "reify": ("CrispNetwork", "compare_strength", "enforce_crisp_bc", "reify"),
    "search": ("SearchOptions", "SearchResult", "solve"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package. The function `reify`
        # keeps the name of its module, as when the package loaded eagerly.
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
