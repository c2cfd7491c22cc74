import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from softbounds.core import CapError, ContractError, INFINITY, ValuationStructure, ominus
from softbounds.costfn import (
    AntiFunctionalNeq,
    CostFunction,
    ExtTable,
    FunctionOverlay,
    FunctionalEq,
    KeyPool,
    LinPlus,
    MonoLeq,
    Spacer,
    check_function,
    evaluate,
    min_over_box,
    min_over_box_pinned,
    unshift,
    validate_semiconvex,
)
from softbounds.oracle import brute_min_over_box

from helpers import _hill_row, make_kind


def spacer_fn(d=(2, 4, 6, 8), slope=1):
    return CostFunction(scope=(0, 1), kind=Spacer(*d, slope))


class TestEvaluate:
    def test_spacer_piecewise(self):
        val = ValuationStructure(10)
        fn = spacer_fn()
        # Cross-checked against a direct scalar sweep of the piecewise
        # formula over gaps 0..12.
        expected_by_gap = {0: 10, 1: 10, 2: 2, 3: 1, 4: 0, 5: 0, 6: 0,
                           7: 1, 8: 2, 9: 10, 10: 10, 11: 10, 12: 10}
        for gap, want in expected_by_gap.items():
            assert evaluate(fn, {0: 0, 1: gap}, val) == want

    def test_linear_clamped(self):
        val = ValuationStructure(12)
        fn = CostFunction(scope=(0, 1), kind=LinPlus(1, 1, 0))
        assert evaluate(fn, {0: 1, 1: 1}, val) == 2
        assert evaluate(fn, {0: -5, 1: 2}, val) == 0
        assert evaluate(fn, {0: 10, 1: 10}, val) == 12

    def test_equality_kind(self):
        val = ValuationStructure(5)
        fn = CostFunction(scope=(0, 1), kind=FunctionalEq(alpha=1))
        assert evaluate(fn, {0: 5, 1: 5}, val) == 0
        assert evaluate(fn, {0: 5, 1: 6}, val) == 1

    def test_wrong_scope_rejected(self):
        val = ValuationStructure(9)
        fn = CostFunction(scope=(0, 1), kind=MonoLeq(0, 1))
        with pytest.raises(ContractError):
            evaluate(fn, {0: 1}, val)
        with pytest.raises(ContractError):
            evaluate(fn, {0: 1, 2: 1}, val)


class TestMinOverBox:
    def test_linplus_min_at_low_corner(self):
        val = ValuationStructure(12)
        fn = CostFunction(scope=(0, 1), kind=LinPlus(1, 1, 0))
        assert min_over_box(fn, {0: (1, 10), 1: (1, 10)}, val) == 2

    def test_equality_disjoint_boxes(self):
        val = ValuationStructure(9)
        fn = CostFunction(scope=(0, 1), kind=FunctionalEq(alpha=3))
        assert min_over_box(fn, {0: (0, 4), 1: (6, 9)}, val) == 3

    def test_spacer_plateau_inside_box(self):
        val = ValuationStructure(10)
        fn = spacer_fn()
        # Corners of this box cost 10 and 10; the true minimum sits on the
        # zero plateau in the interior of the gap range.
        assert min_over_box(fn, {0: (0, 0), 1: (0, 12)}, val) == 0

    def test_spacer_small_box(self):
        val = ValuationStructure(10)
        assert min_over_box(spacer_fn(), {0: (0, 3), 1: (5, 6)}, val) == 0

    def test_table_min(self, inst_pair_tables):
        fn = inst_pair_tables.functions[0]
        val = inst_pair_tables.valuation
        assert min_over_box(fn, {0: (0, 3), 1: (0, 2)}, val) == 0

    def test_empty_interval_rejected(self):
        val = ValuationStructure(9)
        fn = CostFunction(scope=(0, 1), kind=MonoLeq(0, 1))
        with pytest.raises(ContractError):
            min_over_box(fn, {0: (3, 2), 1: (0, 1)}, val)


class TestPinned:
    def test_pair_tables_pinned(self, inst_pair_tables):
        val = inst_pair_tables.valuation
        box = {0: (0, 3), 1: (0, 2)}
        assert min_over_box_pinned(inst_pair_tables.functions[0], box, 0, 0, val) == 1
        box2 = {0: (0, 3), 2: (0, 2)}
        assert min_over_box_pinned(inst_pair_tables.functions[1], box2, 0, 0, val) == 1

    def test_singleton_box_is_evaluation(self):
        val = ValuationStructure(10)
        fn = spacer_fn()
        got = min_over_box_pinned(fn, {0: (3, 3), 1: (6, 6)}, 0, 3, val)
        assert got == evaluate(fn, {0: 3, 1: 6}, val)

    def test_pin_outside_box_rejected(self):
        val = ValuationStructure(10)
        fn = spacer_fn()
        with pytest.raises(ContractError):
            min_over_box_pinned(fn, {0: (0, 3), 1: (0, 3)}, 0, 5, val)


def _random_case(kind_name, seed):
    rng = random.Random(seed)
    k = rng.choice((5, 9, 17, 33, INFINITY))
    val = ValuationStructure(k)
    intervals = {}
    for v in (0, 1):
        lo = rng.randint(-40, 40)
        size = rng.choice((1, 2, 3, 5, 9, 17, 33, 64))
        intervals[v] = (lo, lo + size - 1)
    if kind_name == "semiconvex":
        wrt = rng.choice((0, 1))
        order = rng.choice(("asc", "desc"))
        partner = 1 - wrt
        plo, phi = intervals[partner]
        olo, ohi = intervals[wrt]
        top = min(k, 9)
        table = {}
        for p in range(plo, phi + 1):
            row = _hill_row(rng, ohi - olo + 1, top)
            for idx, cost in enumerate(row):
                if cost:
                    key = (p, olo + idx) if partner == 0 else (olo + idx, p)
                    table[key] = cost
        kind = ExtTable(default=0, table=table, semiconvex=(wrt, order))
    else:
        kind = make_kind(kind_name, rng, (0, 1), intervals, min(k, 40))
    fn = CostFunction(scope=(0, 1), kind=kind)
    box = {}
    for v in (0, 1):
        lo, hi = intervals[v]
        a = rng.randint(lo, hi)
        b = rng.randint(lo, hi)
        box[v] = (min(a, b), max(a, b))
    raw_min = brute_min_over_box(fn, box, val)
    shift = 0
    if raw_min > 0:
        shift = rng.randint(0, min(raw_min, k - 1))
    return fn, box, val, shift


CAPS = {
    "monoleq": lambda box: 4,
    "linplus": lambda box: 4,
    "spacer": lambda box: 4,
    "funceq": lambda box: (box[0][1] - box[0][0] + 1) + 1,
    "antifuncneq": lambda box: 2 * (box[0][1] - box[0][0] + 1),
    "ext2": lambda box: (box[0][1] - box[0][0] + 1) * (box[1][1] - box[1][0] + 1),
}


@pytest.mark.parametrize(
    "kind_name", ["monoleq", "linplus", "spacer", "funceq", "antifuncneq", "ext2", "semiconvex"]
)
def test_min_matches_brute_force_with_capped_lookups(kind_name):
    for seed in range(200):
        fn, box, val, shift = _random_case(kind_name, seed * 7 + 1)
        ov = FunctionOverlay(delta_shift=shift)
        before = ov.eval_count
        got = min_over_box(fn, box, val, ov)
        spent = ov.eval_count - before
        want = brute_min_over_box(fn, box, val, shift)
        assert got == want, (kind_name, seed, fn, box, shift)
        if kind_name == "semiconvex":
            wrt = fn.kind.semiconvex[0]
            partner = fn.scope[0] if wrt == fn.scope[1] else fn.scope[1]
            cap = 2 * (box[partner][1] - box[partner][0] + 1)
        else:
            cap = CAPS[kind_name](box)
        assert spent <= cap, (kind_name, seed, spent, cap)


@pytest.mark.parametrize("kind_name", ["monoleq", "linplus", "spacer", "funceq", "antifuncneq"])
def test_pinned_matches_brute_force(kind_name):
    for seed in range(150):
        fn, box, val, shift = _random_case(kind_name, seed * 13 + 5)
        rng = random.Random(seed)
        pin_var = rng.choice(fn.scope)
        lo, hi = box[pin_var]
        pin_val = rng.randint(lo, hi)
        pinned_box = dict(box)
        pinned_box[pin_var] = (pin_val, pin_val)
        raw = brute_min_over_box(fn, pinned_box, val)
        shift = min(shift, raw) if raw > 0 else 0
        ov = FunctionOverlay(delta_shift=shift)
        got = min_over_box_pinned(fn, box, pin_var, pin_val, val, ov)
        assert got == brute_min_over_box(fn, pinned_box, val, shift)
        if kind_name in ("monoleq", "linplus", "spacer"):
            assert ov.eval_count <= 2
        elif kind_name == "antifuncneq":
            assert ov.eval_count <= 2


def test_shift_never_exceeds_raw_minimum():
    # The shift invariant: every tuple in the box keeps a non-negative
    # effective cost, so the shifted minimum equals the raw minimum minus
    # the shift (saturated entries stay saturated).
    for seed in range(80):
        fn, box, val, shift = _random_case("ext2", seed)
        if shift == 0:
            continue
        raw = brute_min_over_box(fn, box, val)
        assert shift <= raw


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9, INFINITY])
def test_unshift_is_ominus(k):
    # The engines' unchecked subtraction against the checked one, on every
    # pair of costs in [0, k]; for INFINITY, on costs near both ends.
    val = ValuationStructure(k)
    costs = range(k + 1) if k < INFINITY else (0, 1, 2, 7, k - 2, k - 1, k)
    refused = set()
    for a in costs:
        for b in costs:
            try:
                want = ominus(a, b, val)
            except ContractError:
                with pytest.raises(ContractError):
                    unshift(a, b, k)
                refused.add("above" if b > a else "top")
            else:
                assert unshift(a, b, k) == want, (a, b, k)
    assert refused == {"top", "above"}


class TestValidators:
    def test_inequality_kind_is_semiconvex(self):
        val = ValuationStructure(9)
        fn = CostFunction(scope=(0, 1), kind=AntiFunctionalNeq(alpha=2))
        bounds = {0: (0, 9), 1: (0, 9)}
        for wrt in (0, 1):
            ok, witness = validate_semiconvex(fn, bounds, wrt, "asc", val)
            assert ok and witness is None

    def test_valley_table_is_not_semiconvex(self):
        # Costs 5,0,5 along the axis: the >=1 level set {first, last} has a
        # gap in the middle.
        val = ValuationStructure(9)
        table = {(0, 0): 5, (0, 2): 5}
        fn = CostFunction(scope=(0, 1), kind=ExtTable(default=0, table=table))
        ok, witness = validate_semiconvex(fn, {0: (0, 0), 1: (0, 2)}, 1, "asc", val)
        assert not ok
        assert witness == (0, 5, 1)

    def test_trapezoid_valley_is_not_semiconvex(self):
        # The gap trapezoid dips to zero between two intolerable flanks, so
        # its super-level sets split; the endpoint shortcut never applies
        # to it and its minimum comes from the analytic gap argument.
        val = ValuationStructure(10)
        ok, witness = validate_semiconvex(
            spacer_fn(), {0: (0, 9), 1: (0, 9)}, 1, "asc", val
        )
        assert not ok and witness is not None

    def test_linplus_is_semiconvex_both_axes(self):
        val = ValuationStructure(20)
        bounds = {0: (0, 9), 1: (0, 9)}
        for a, b in ((1, 1), (-1, -1), (2, 1), (-2, -1)):
            fn = CostFunction(scope=(0, 1), kind=LinPlus(a, b, 3))
            for wrt in (0, 1):
                assert any(
                    validate_semiconvex(fn, bounds, wrt, order, val)[0]
                    for order in ("asc", "desc")
                )

    def test_cap_refuses_wide_domains(self):
        val = ValuationStructure(9)
        fn = CostFunction(scope=(0, 1), kind=AntiFunctionalNeq(alpha=2))
        with pytest.raises(CapError):
            validate_semiconvex(fn, {0: (0, 1000), 1: (0, 3)}, 0, "asc", val)


_VAL = ValuationStructure(9)
_PAIR = CostFunction(scope=(0, 1), kind=MonoLeq(0, 1))
_TRIPLE = CostFunction(scope=(0, 1, 2), kind=ExtTable(default=0, table={}))
_BOX = {0: (0, 3), 1: (0, 3)}


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: MonoLeq(0, 1).check((0,), {0: (0, 3)}, _VAL),
                     "requires a binary scope", id="binary-kind-on-unary-scope"),
        pytest.param(lambda: min_over_box(_PAIR, {0: (0, 3)}, _VAL),
                     "does not cover scope", id="box-short-of-scope"),
        pytest.param(lambda: min_over_box_pinned(_PAIR, _BOX, 2, 0, _VAL),
                     "pin variable 2 not in scope", id="pin-outside-scope"),
        pytest.param(lambda: validate_semiconvex(_TRIPLE, _BOX, 0, "asc", _VAL),
                     "binary scopes", id="semiconvex-ternary"),
        pytest.param(lambda: validate_semiconvex(_PAIR, _BOX, 0, "up", _VAL),
                     "order must be", id="semiconvex-bad-order"),
        pytest.param(lambda: check_function(CostFunction((), ExtTable(default=0, table={})), {}, _VAL),
                     "non-empty scope", id="empty-scope"),
        pytest.param(lambda: check_function(CostFunction((0, 0), MonoLeq(0, 1)), _BOX, _VAL),
                     "repeats a variable", id="repeated-variable"),
    ],
)
def test_malformed_calls_are_refused(call, message):
    with pytest.raises(ContractError, match=message):
        call()


def test_key_pool_opens_at_the_second_table():
    pool = KeyPool()
    first = {(0, 1): 1, (2, 3): 2}
    assert pool.share(first) is first  # a lone table is kept as it is
    assert pool._keys is None
    second = pool.share({(0, 1): 5, (4, 4): 1})
    third = pool.share({(4, 4): 2, (2, 3): 3})
    assert second == {(0, 1): 5, (4, 4): 1} and third == {(4, 4): 2, (2, 3): 3}
    held = {key: key for key in first}
    for key in second:
        held.setdefault(key, key)
    for table in (second, third):
        assert all(held[key] is key for key in table)
    # The pool holds only keys some table holds.
    assert set(pool._keys) == set(first) | set(second) | set(third)


@pytest.mark.parametrize("cls, other", [(FunctionalEq, AntiFunctionalNeq), (AntiFunctionalNeq, FunctionalEq)])
def test_map_kinds_keep_their_dataclass_behaviour(cls, other):
    # Both map kinds take every dataclass method from `_Map`.
    kind = cls(3, 2, -1)
    assert [f.name for f in fields(kind)] == ["alpha", "p", "q"]
    assert (kind.alpha, kind.p, kind.q) == (3, 2, -1)
    assert cls(3) == cls(3, 1, 0) and hash(cls(3)) == hash(cls(3, 1, 0))
    assert cls(3) != cls(4) and cls(3) != other(3)
    moved = replace(kind, q=5)
    assert type(moved) is cls and moved == cls(3, 2, 5)
    assert repr(kind) == f"{cls.__name__}(alpha=3, p=2, q=-1)"
    with pytest.raises(FrozenInstanceError):
        kind.alpha = 4
