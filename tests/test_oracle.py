import pytest

from softbounds.core import CapError, ContractError, Domain, ValuationStructure, Variable
from softbounds.costfn import CostFunction, Spacer
from softbounds.network import Instance, total_cost
from softbounds.oracle import (
    OracleBudget,
    brute_min_over_box,
    brute_optimum,
    naive_bac_fixpoint,
    naive_bac_zero_fixpoint,
)


def test_pair_tables_infeasible(inst_pair_tables):
    # All 4*3*3 assignments reach the top through the two tables.
    opt = brute_optimum(inst_pair_tables)
    assert not opt.feasible


def test_sum_instance_optimum(inst_linplus_sum):
    opt = brute_optimum(inst_linplus_sum)
    assert opt.feasible and opt.cost == 2
    assert opt.witness == {0: 1, 1: 1}
    assert total_cost(inst_linplus_sum, opt.witness) == 2


def test_no_function_instance():
    inst = Instance(
        "empty",
        ValuationStructure(9),
        [Variable(0, Domain(0, 2))],
        [],
    )
    opt = brute_optimum(inst)
    assert opt.feasible and opt.cost == 0


def test_min_over_box_enumeration():
    val = ValuationStructure(10)
    fn = CostFunction(scope=(0, 1), kind=Spacer(2, 4, 6, 8, 1))
    # Gaps reachable from [0,3] x [5,6] are 2..6, which hit the plateau.
    assert brute_min_over_box(fn, {0: (0, 3), 1: (5, 6)}, val) == 0


def test_min_over_box_pins(inst_pair_tables):
    fn = inst_pair_tables.functions[1]
    val = inst_pair_tables.valuation
    assert brute_min_over_box(fn, {0: (2, 2), 2: (0, 2)}, val) == 0


def test_singleton_box(inst_linplus_sum):
    fn = inst_linplus_sum.functions[0]
    assert brute_min_over_box(fn, {0: (3, 3), 1: (4, 4)}, inst_linplus_sum.valuation) == 7


def test_naive_rescan_on_examples(inst_pair_tables, inst_linplus_sum):
    assert naive_bac_fixpoint(inst_pair_tables) == [(0, -1)] * 3
    assert naive_bac_fixpoint(inst_linplus_sum) == [(1, 10), (1, 10)]
    doms, w0, shifts = naive_bac_zero_fixpoint(inst_linplus_sum)
    assert doms == [(1, 10), (1, 10)]
    assert w0 == 2 and shifts == [2]


def test_consistent_input_not_reprojected(inst_linplus_sum):
    doms, w0, shifts = naive_bac_zero_fixpoint(inst_linplus_sum)
    # Feeding the already-shifted network through again changes nothing:
    # the second pass sees a zero minimum everywhere.
    assert w0 == 2
    doms2, w02, shifts2 = naive_bac_zero_fixpoint(inst_linplus_sum)
    assert (doms2, w02, shifts2) == (doms, w0, shifts)


def test_budget_refusal():
    inst = Instance(
        "big",
        ValuationStructure(9),
        [Variable(0, Domain(0, 10**7))],
        [],
    )
    with pytest.raises(CapError):
        brute_optimum(inst, OracleBudget(max_tuples=1000))


def test_negative_budget_is_rejected_and_zero_refuses(inst_linplus_sum):
    with pytest.raises(ContractError, match="budget must be at least 0 tuples, got -1"):
        OracleBudget(max_tuples=-1)
    with pytest.raises(CapError):
        brute_optimum(inst_linplus_sum, OracleBudget(max_tuples=0))


def test_purity(inst_pair_tables):
    first = naive_bac_fixpoint(inst_pair_tables)
    second = naive_bac_fixpoint(inst_pair_tables)
    assert first == second
    assert brute_optimum(inst_pair_tables) == brute_optimum(inst_pair_tables)
