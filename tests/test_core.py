import pytest
from hypothesis import given
from hypothesis import strategies as st

from softbounds.core import (
    INFINITY,
    ContractError,
    Domain,
    ValuationStructure,
    ominus,
    oplus,
)


def scales():
    return st.one_of(st.integers(1, 50), st.just(INFINITY)).map(ValuationStructure)


@st.composite
def cost_pairs(draw):
    val = draw(scales())
    hi = min(val.k, 10**6)
    a = draw(st.integers(0, hi))
    b = draw(st.integers(0, hi))
    return val, a, b


class TestSaturatingOps:
    def test_saturation(self):
        val = ValuationStructure(4)
        assert oplus(2, 3, val) == 4

    def test_identity_and_absorbing(self):
        val = ValuationStructure(9)
        assert oplus(0, 7, val) == 7
        assert oplus(9, 0, val) == 9

    def test_subtraction(self):
        val = ValuationStructure(10)
        assert ominus(4, 1, val) == 3
        assert ominus(10, 3, val) == 10  # the top absorbs subtraction
        assert ominus(5, 5, val) == 0

    def test_rejects_bad_subtraction(self):
        val = ValuationStructure(10)
        with pytest.raises(ContractError):
            ominus(3, 4, val)
        with pytest.raises(ContractError):
            ominus(10, 10, val)

    def test_rejects_out_of_range(self):
        val = ValuationStructure(5)
        with pytest.raises(ContractError):
            oplus(6, 0, val)
        with pytest.raises(ContractError):
            oplus(-1, 0, val)

    @given(cost_pairs())
    def test_commutative(self, arg):
        val, a, b = arg
        assert oplus(a, b, val) == oplus(b, a, val)

    @given(cost_pairs(), st.integers(0, 10**6))
    def test_associative(self, arg, c):
        val, a, b = arg
        c = min(c, val.k)
        assert oplus(oplus(a, b, val), c, val) == oplus(a, oplus(b, c, val), val)

    @given(cost_pairs())
    def test_cancellation(self, arg):
        val, a, b = arg
        if a == val.k or b > a:
            return
        assert oplus(ominus(a, b, val), b, val) == a

    def test_exhaustive_small_scale(self):
        val = ValuationStructure(6)
        for a in range(7):
            for b in range(7):
                assert oplus(a, b, val) == min(6, a + b)
                if b <= a and b != 6:
                    assert ominus(a, b, val) == (6 if a == 6 else a - b)


class TestValuation:
    def test_requires_positive_top(self):
        with pytest.raises(ContractError):
            ValuationStructure(0)

    def test_infinity_is_valid(self):
        assert not ValuationStructure(INFINITY).is_finite
        assert ValuationStructure(3).is_finite


class TestDomain:
    def test_size_and_contains(self):
        d = Domain(2, 6)
        assert d.size() == 5
        assert d.contains(2) and d.contains(6)
        assert not d.contains(7)

    def test_removed_values(self):
        d = Domain(0, 4, removed={2})
        assert d.size() == 4
        assert not d.contains(2)
        assert list(d.iter_values()) == [0, 1, 3, 4]

    def test_empty_state(self):
        assert not Domain(3, 5).is_empty
        d = Domain(0, -1)
        assert d.is_empty
        assert d.size() == 0
        assert list(d.iter_values()) == []

    def test_copy_is_independent(self):
        d = Domain(0, 3, removed={1})
        c = d.copy()
        c.removed.add(2)
        assert d.removed == {1}
