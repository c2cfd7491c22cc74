"""Differential checks of the engines' tuple-box minimizer.

`min_over_tuple_box` is what the interval engines call on every revision.
On seeded random boxes it must agree with the exhaustive oracle, and it must
spend exactly as many lookups as the public dict-box functions, which
validate, convert and then run the same per-kind code.
"""

import itertools
import random

import pytest

from softbounds.core import INFINITY, ContractError, ValuationStructure
from softbounds.costfn import (
    CostFunction,
    ExtTable,
    FunctionOverlay,
    min_over_box,
    min_over_box_pinned,
    min_over_tuple_box,
)
from softbounds.oracle import brute_min_over_box

from helpers import _hill_row, make_kind

KINDS = (
    "table_sparse",  # binary, far fewer entries than the unpinned box holds
    "table_sparse3",  # ternary, same
    "table_dense",  # binary, every tuple listed
    "table_dense3",  # ternary, same
    "semiconvex",
    "funceq",
    "antifuncneq",
    "monoleq",
    "linplus",
    "spacer",
)

# Lookups spent over each kind's seeded cases below. They pin which tuples
# each kind's scan reads and where it stops, a count the shared code of the
# engine and public paths could not catch drifting on its own.
LOOKUP_TOTALS = {
    "table_sparse": 394,
    "table_sparse3": 615,
    "table_dense": 579,
    "table_dense3": 766,
    "semiconvex": 847,
    "funceq": 921,
    "antifuncneq": 228,
    "monoleq": 385,
    "linplus": 404,
    "spacer": 296,
}


def _intervals(rng, scope, sizes):
    out = {}
    for v in scope:
        lo = rng.randint(-40, 40)
        out[v] = (lo, lo + rng.choice(sizes) - 1)
    return out


def _sparse_table(rng, scope, intervals, k):
    table = {}
    for _ in range(rng.randint(0, 6)):
        values = tuple(rng.randint(*intervals[v]) for v in scope)
        table[values] = rng.choice((1, 2, 5, k))
    return ExtTable(default=rng.choice((0, 1, 3)), table=table)


def _dense_table(rng, scope, intervals, k):
    ranges = [range(lo, hi + 1) for lo, hi in (intervals[v] for v in scope)]
    table = {
        values: rng.choice((0, 1, 2, 4, k)) for values in itertools.product(*ranges)
    }
    return ExtTable(default=0, table=table)


def _semiconvex_table(rng, scope, intervals, k):
    wrt = rng.choice(scope)
    partner = scope[1] if wrt == scope[0] else scope[0]
    (plo, phi), (olo, ohi) = intervals[partner], intervals[wrt]
    table = {}
    for p in range(plo, phi + 1):
        for idx, cost in enumerate(_hill_row(rng, ohi - olo + 1, min(k, 9))):
            if cost:
                table[(olo + idx, p) if wrt == scope[0] else (p, olo + idx)] = cost
    return ExtTable(default=0, table=table, semiconvex=(wrt, rng.choice(("asc", "desc"))))


def _random_function(kind_name, rng, k):
    if kind_name.endswith("3"):
        scope = (0, 1, 2)
        intervals = _intervals(rng, scope, (1, 2, 3, 4))
    elif kind_name == "table_sparse":
        scope = (0, 1)
        intervals = _intervals(rng, scope, (5, 9, 17, 64))
    else:
        scope = (0, 1)
        intervals = _intervals(rng, scope, (1, 2, 3, 5, 9, 17, 33))
    if kind_name.startswith("table_sparse"):
        kind = _sparse_table(rng, scope, intervals, k)
    elif kind_name.startswith("table_dense"):
        kind = _dense_table(rng, scope, intervals, k)
    elif kind_name == "semiconvex":
        kind = _semiconvex_table(rng, scope, intervals, k)
    else:
        kind = make_kind(kind_name, rng, scope, intervals, min(k, 40))
    return CostFunction(scope=scope, kind=kind), intervals


def _cases(kind_name, count):
    """Yield (fn, val, dict box, pin or None, tuple box, shift) tuples: every
    scope position pinned and no pin, each with shift 0 and, where the raw
    minimum allows it, a positive shift."""
    for seed in range(count):
        rng = random.Random(f"{kind_name}-{seed}")
        k = rng.choice((5, 9, 33, INFINITY))
        val = ValuationStructure(k)
        fn, intervals = _random_function(kind_name, rng, k)
        box = {}
        for v, (lo, hi) in intervals.items():
            a, b = rng.randint(lo, hi), rng.randint(lo, hi)
            box[v] = (min(a, b), max(a, b))
        for pin_var in (None,) + fn.scope:
            pin = None
            tbox = tuple(box[v] for v in fn.scope)
            pinned_box = dict(box)
            if pin_var is not None:
                pin = (pin_var, rng.randint(*box[pin_var]))
                pinned_box[pin_var] = (pin[1], pin[1])
                tbox = tuple(pinned_box[v] for v in fn.scope)
            raw = brute_min_over_box(fn, pinned_box, val)
            shifts = [0]
            if raw > 0:
                shifts.append(rng.randint(1, min(raw, k - 1)))
            for shift in shifts:
                yield fn, val, box, pin, pinned_box, tbox, shift


@pytest.mark.parametrize("kind_name", KINDS)
def test_tuple_box_matches_oracle_and_public_lookups(kind_name):
    seen = {"pinned": 0, "free": 0, "shifted": 0, "infinite": 0}
    lookups = 0
    axes = set()  # scope positions of the tagged axis of semi-convex tables
    for fn, val, box, pin, pinned_box, tbox, shift in _cases(kind_name, 60):
        engine = FunctionOverlay(delta_shift=shift)
        got = min_over_tuple_box(fn, tbox, val.k, engine)
        assert got == brute_min_over_box(fn, pinned_box, val, shift), (fn, tbox, shift)
        public = FunctionOverlay(delta_shift=shift)
        if pin is None:
            assert min_over_box(fn, box, val, public) == got
        else:
            assert min_over_box_pinned(fn, box, pin[0], pin[1], val, public) == got
        assert engine.eval_count == public.eval_count, (fn, tbox, shift)
        lookups += engine.eval_count
        seen["pinned" if pin else "free"] += 1
        seen["shifted"] += shift > 0
        seen["infinite"] += val.k == INFINITY
        if kind_name == "semiconvex":
            axes.add(fn.scope.index(fn.kind.semiconvex[0]))
    assert all(seen.values()), seen
    if kind_name == "semiconvex":
        # Both probe orders run, so the lookup total pins each of them.
        assert axes == {0, 1}, axes
    assert lookups == LOOKUP_TOTALS[kind_name]


def test_sparse_and_dense_table_paths_are_both_taken():
    # A sparse box reaches the default: at or below the shift it is the
    # minimum at once, above it the entries inside the box are scanned.
    def volume(box):
        vol = 1
        for lo, hi in box:
            vol *= hi - lo + 1
        return vol

    for kind_name in ("table_sparse", "table_sparse3", "table_dense", "table_dense3"):
        paths = set()
        for fn, _val, _box, _pin, _pb, tbox, shift in _cases(kind_name, 60):
            if len(fn.kind.table) >= volume(tbox):
                paths.add("dense")
            else:
                paths.add("sparse scan" if fn.kind.default > shift else "sparse default")
        want = {"dense"}
        if kind_name.startswith("table_sparse"):
            want |= {"sparse scan", "sparse default"}
        assert paths == want, (kind_name, paths)


def test_shift_above_box_minimum_is_rejected():
    val = ValuationStructure(9)
    fn = CostFunction(scope=(0, 1), kind=ExtTable(default=3, table={(0, 0): 1}))
    with pytest.raises(ContractError):
        min_over_tuple_box(fn, ((0, 1), (0, 1)), val.k, FunctionOverlay(delta_shift=2))
    assert min_over_tuple_box(fn, ((1, 1), (0, 1)), val.k, FunctionOverlay(delta_shift=2)) == 1


def test_shift_at_top_is_rejected():
    val = ValuationStructure(9)
    fn = CostFunction(scope=(0,), kind=ExtTable(default=9, table={}))
    with pytest.raises(ContractError):
        min_over_tuple_box(fn, ((0, 4),), val.k, FunctionOverlay(delta_shift=9))
