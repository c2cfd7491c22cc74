import random

import pytest

from softbounds.core import ContractError, Domain, ValuationStructure, Variable
from softbounds.costfn import CostFunction, ExtTable, FunctionalEq
from softbounds.network import Instance, is_solution, total_cost

from helpers import suite_instance


def test_pair_tables_totals(inst_pair_tables):
    assert total_cost(inst_pair_tables, {0: 1, 1: 0, 2: 0}) == 2
    assert total_cost(inst_pair_tables, {0: 0, 1: 0, 2: 0}) == 2
    assert not is_solution(inst_pair_tables, {0: 0, 1: 0, 2: 0})


def test_constant_only_instance():
    inst = Instance(
        name="constant",
        valuation=ValuationStructure(9),
        variables=[Variable(0, Domain(0, 3))],
        functions=[],
        w_zero=5,
    )
    assert total_cost(inst, {0: 2}) == 5


def test_total_cost_permutation_invariant():
    rng = random.Random(11)
    inst = suite_instance(23)
    shuffled = list(inst.functions)
    rng.shuffle(shuffled)
    permuted = Instance(
        name=inst.name,
        valuation=inst.valuation,
        variables=inst.variables,
        functions=shuffled,
        w_zero=inst.w_zero,
    )
    for _ in range(50):
        t = {v.id: rng.randint(v.domain.lb, v.domain.ub) for v in inst.variables}
        assert total_cost(inst, t) == total_cost(permuted, t)


def test_missing_variable_rejected(inst_pair_tables):
    with pytest.raises(ContractError):
        total_cost(inst_pair_tables, {0: 0, 1: 0})


def test_value_outside_interval_rejected(inst_pair_tables):
    with pytest.raises(ContractError):
        total_cost(inst_pair_tables, {0: 9, 1: 0, 2: 0})


def test_instance_validation():
    val = ValuationStructure(4)
    with pytest.raises(ContractError):  # sparse ids
        Instance("bad", val, [Variable(1, Domain(0, 1))], [])
    with pytest.raises(ContractError):  # w0 above the top
        Instance("bad", val, [Variable(0, Domain(0, 1))], [], w_zero=5)
    with pytest.raises(ContractError):  # scope references unknown variable
        Instance(
            "bad",
            val,
            [Variable(0, Domain(0, 1))],
            [CostFunction(scope=(0, 1), kind=FunctionalEq(alpha=1))],
        )
    with pytest.raises(ContractError):  # table tuple outside the interval
        Instance(
            "bad",
            val,
            [Variable(0, Domain(0, 1))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={(7,): 1}))],
        )
    with pytest.raises(ContractError):  # cost above the top
        Instance(
            "bad",
            val,
            [Variable(0, Domain(0, 1))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={(0,): 9}))],
        )
    with pytest.raises(ContractError):  # not one of the cost kinds
        Instance(
            "bad",
            val,
            [Variable(0, Domain(0, 1)), Variable(1, Domain(0, 1))],
            [CostFunction(scope=(0, 1), kind=object())],
        )
