"""Micro-probe of `costfn`: box minimisation per kind on seeded boxes.

Each kind gets one function over two variables and a list of seeded boxes.
Every box is minimised once whole (`min_over_box`) and once with a seeded
variable pinned to a seeded value (`min_over_box_pinned`). The lookups of
every call are read from a fresh `FunctionOverlay` and checked against the
cap that `min_over_box`'s docstring states: 4 for corner kinds (and the
spacer's single analytic lookup), 2*d for endpoint kinds, d+1 for the
equality kind and the box volume for plain tables, where d is the widest
side of the box actually minimised.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

from softbounds import (
    AntiFunctionalNeq,
    CostFunction,
    Domain,
    ExtTable,
    FunctionalEq,
    FunctionOverlay,
    Instance,
    LinPlus,
    MonoLeq,
    Spacer,
    ValuationStructure,
    Variable,
    min_over_box,
    min_over_box_pinned,
)

K = 50
BOXES_PER_KIND = 200
REPEATS = 5


def _functions(rng: random.Random) -> Dict[str, Tuple[CostFunction, int]]:
    """kind name -> (function over variables (0, 1), domain width)."""
    sparse = {(rng.randrange(1000), rng.randrange(1000)): rng.randint(1, K) for _ in range(24)}
    dense = {(a, b): rng.randint(0, K) for a in range(8) for b in range(8)}
    peak = {}
    for p in range(32):
        top = rng.randrange(32)
        for o in range(32):
            c = max(0, 20 - abs(o - top))
            if c:
                peak[(p, o)] = c
    kinds = {
        "spacer": (Spacer(5, 20, 40, 60, 2), 1_000_000),
        "table_sparse": (ExtTable(default=1, table=sparse), 1000),
        "table_dense": (ExtTable(default=0, table=dense), 8),
        "semiconvex": (ExtTable(default=0, table=peak, semiconvex=(1, "asc")), 32),
        "funceq": (FunctionalEq(7, 1, 3), 64),
        "antifuncneq": (AntiFunctionalNeq(7, 1, -2), 64),
        "monoleq": (MonoLeq(3, 9), 1_000_000),
        "linplus": (LinPlus(2, -1, 5), 1_000_000),
    }
    out = {}
    for name, (kind, width) in kinds.items():
        fn = CostFunction(scope=(0, 1), kind=kind)
        # Load through the public constructor so tags and tables are validated.
        Instance(
            name=f"probe-{name}",
            valuation=ValuationStructure(K),
            variables=[Variable(0, Domain(0, width - 1)), Variable(1, Domain(0, width - 1))],
            functions=[fn],
        )
        out[name] = (fn, width)
    return out


def _interval(rng: random.Random, width: int) -> Tuple[int, int]:
    a, b = rng.randrange(width), rng.randrange(width)
    return (a, b) if a <= b else (b, a)


def _cap(name: str, box) -> int:
    d = max(hi - lo + 1 for lo, hi in box.values())
    if name in ("spacer", "monoleq", "linplus"):
        return 4
    if name in ("antifuncneq", "semiconvex"):
        return 2 * d
    if name == "funceq":
        return d + 1
    vol = 1
    for lo, hi in box.values():
        vol *= hi - lo + 1
    return vol


class Probe:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.cases = {}
        for name, (fn, width) in _functions(rng).items():
            calls = []
            for _ in range(BOXES_PER_KIND):
                box = {0: _interval(rng, width), 1: _interval(rng, width)}
                pin_var = rng.randrange(2)
                lo, hi = box[pin_var]
                calls.append((box, pin_var, rng.randint(lo, hi)))
            self.cases[name] = (fn, calls)

    def check_caps(self) -> Tuple[Dict[str, float], List[str]]:
        """Mean lookups per call for each kind, and one message per breach."""
        val = ValuationStructure(K)
        lookups: Dict[str, float] = {}
        breaches = []
        for name, (fn, calls) in self.cases.items():
            total = 0
            for box, pin_var, pin_val in calls:
                ov = FunctionOverlay()
                min_over_box(fn, box, val, ov)
                if ov.eval_count > _cap(name, box):
                    breaches.append(f"{name}: {ov.eval_count} lookups on box {box}")
                total += ov.eval_count
                ov = FunctionOverlay()
                min_over_box_pinned(fn, box, pin_var, pin_val, val, ov)
                pinned = dict(box)
                pinned[pin_var] = (pin_val, pin_val)
                if ov.eval_count > _cap(name, pinned):
                    breaches.append(f"{name}: {ov.eval_count} lookups on pinned box {pinned}")
                total += ov.eval_count
            lookups[name] = total / (2 * len(calls))
        return lookups, breaches

    def time_calls(self) -> Dict[str, float]:
        """Median over REPEATS of the mean ns per call, per kind."""
        val = ValuationStructure(K)
        out = {}
        for name, (fn, calls) in self.cases.items():
            per_call = []
            for _ in range(REPEATS):
                t0 = time.perf_counter_ns()
                for box, pin_var, pin_val in calls:
                    min_over_box(fn, box, val)
                    min_over_box_pinned(fn, box, pin_var, pin_val, val)
                per_call.append((time.perf_counter_ns() - t0) / (2 * len(calls)))
            out[name] = statistics.median(per_call)
        return out
