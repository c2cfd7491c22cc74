import pytest

from softbounds.core import CapError, ContractError, Domain, INFINITY, ValuationStructure, Variable
from softbounds.costfn import CostFunction, ExtTable
from softbounds.network import Instance
from softbounds.oracle import brute_optimum
from softbounds.propagation import PropState, enforce_bac, enforce_bac_zero
from softbounds.reify import compare_strength, enforce_crisp_bc, reify

from helpers import (
    assignments,
    binary_only,
    crisp_solution_map,
    fast_total,
    hard_instance,
    suite,
)


class TestReify:
    def test_pair_tables_shape(self, inst_pair_tables):
        net = reify(inst_pair_tables)
        assert net.n_mirror == 3
        assert len(net.cost_var_of) == 2
        assert len(net.tables) == 2
        # Top 2 puts every cost variable on [0, 1].
        for c in net.cost_var_of:
            assert (net.bounds[c].lb, net.bounds[c].ub) == (0, 1)
        # Saturating tuples are excluded outright.
        for table in net.tables:
            assert all(row[-1] < 2 for row in table.rows)

    def test_two_variable_instance_shape(self):
        inst = Instance(
            "two",
            ValuationStructure(3),
            [Variable(0, Domain(0, 1)), Variable(1, Domain(0, 1))],
            [
                CostFunction(scope=(0,), kind=ExtTable(default=0, table={(1,): 1})),
                CostFunction(scope=(1,), kind=ExtTable(default=0, table={(0,): 2})),
                CostFunction(scope=(0, 1), kind=ExtTable(default=0, table={(1, 1): 1})),
            ],
        )
        net = reify(inst)
        assert net.n_mirror == 2
        assert len(net.cost_var_of) == 3  # one cost variable per function
        assert [t.scope for t in net.tables] == [(0, 2), (1, 3), (0, 1, 4)]

    def test_no_functions(self):
        inst = Instance(
            "plain",
            ValuationStructure(4),
            [Variable(0, Domain(0, 2))],
            [],
            w_zero=1,
        )
        net = reify(inst)
        assert net.cost_var_of == []
        assert not enforce_crisp_bc(net).empty

    def test_infinite_top_refused(self):
        inst = Instance(
            "inf",
            ValuationStructure(INFINITY),
            [Variable(0, Domain(0, 2))],
            [],
        )
        with pytest.raises(ContractError):
            reify(inst)

    def test_cap_refused(self):
        inst = Instance(
            "big",
            ValuationStructure(4),
            [Variable(0, Domain(0, 2 * 10**6))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={}))],
        )
        with pytest.raises(CapError):
            reify(inst)


class TestCrispFiltering:
    def test_pair_tables_stays_consistent(self, inst_pair_tables):
        # Each single table supports every bound, so crisp filtering leaves
        # the reified network intact even though joint filtering wipes it.
        rep = enforce_crisp_bc(reify(inst_pair_tables))
        assert not rep.empty
        assert rep.bounds[:3] == [(0, 3), (0, 2), (0, 2)]

    def test_cost_domains_shrink_to_max_tolerable(self):
        for inst in suite(10):
            st = PropState(inst)
            rep0 = enforce_bac_zero(st)
            if rep0.empty:
                continue
            if any(
                st.overlays[fi].delta_shift and not isinstance(fn.kind, ExtTable)
                for fi, fn in enumerate(inst.functions)
            ):
                continue  # shifts are only re-materializable for tables here
            # Reify the already-consistent network: filtering only trims
            # cost variables down to their largest tolerable cost.
            shifted = _apply_shifts(inst, st)
            net = reify(shifted)
            rep = enforce_crisp_bc(net)
            assert not rep.empty
            for fi, c in enumerate(net.cost_var_of):
                ceiling = max(row[-1] for row in net.tables[fi].rows)
                assert rep.bounds[c] == (0, ceiling)

    def test_empty_mirror_propagates(self):
        inst = Instance(
            "dead",
            ValuationStructure(2),
            [Variable(0, Domain(0, 1))],
            [CostFunction(scope=(0,), kind=ExtTable(default=2, table={}))],
        )
        rep = enforce_crisp_bc(reify(inst))
        assert rep.empty


def _apply_shifts(inst, st):
    k = inst.valuation.k

    def inside(fn, t):
        return all(
            st.domains[v].lb <= w <= st.domains[v].ub for v, w in zip(fn.scope, t)
        )

    functions = []
    for fi, fn in enumerate(inst.functions):
        shift = st.overlays[fi].delta_shift
        if isinstance(fn.kind, ExtTable):
            table = {
                t: (k if c == k else c - min(shift, c))
                for t, c in fn.kind.table.items()
                if inside(fn, t)
            }
            default = k if fn.kind.default == k else fn.kind.default - min(shift, fn.kind.default)
            functions.append(
                CostFunction(scope=fn.scope, kind=ExtTable(default=default, table=table))
            )
        else:
            functions.append(fn)
    return Instance(
        name=inst.name + "-shifted",
        valuation=inst.valuation,
        variables=[
            Variable(i, Domain(d.lb, d.ub)) for i, d in enumerate(st.domains)
        ],
        functions=functions,
        w_zero=st.w_zero,
    )


class TestStrength:
    def test_pair_tables_witnesses_strictness(self, inst_pair_tables):
        report = compare_strength(inst_pair_tables, reify(inst_pair_tables))
        assert report.bac0_empty and not report.reified_bc_empty

    def test_sum_instance_both_consistent(self, inst_linplus_sum):
        report = compare_strength(inst_linplus_sum, reify(inst_linplus_sum))
        assert not report.bac0_empty and not report.reified_bc_empty

    def test_all_hard_unary(self):
        inst = Instance(
            "dead",
            ValuationStructure(2),
            [Variable(0, Domain(0, 1))],
            [CostFunction(scope=(0,), kind=ExtTable(default=2, table={}))],
        )
        report = compare_strength(inst, reify(inst))
        assert report.bac0_empty and report.reified_bc_empty

    def test_implication_on_suite(self):
        for inst in suite(20):
            if not inst.valuation.is_finite or not binary_only(inst):
                continue
            report = compare_strength(inst, reify(inst))
            if report.reified_bc_empty:
                assert report.bac0_empty, inst.name


class TestSolutionCorrespondence:
    def test_crisp_solutions_match(self):
        checked = 0
        for inst in suite(12, max_volume=2000):
            k = inst.valuation.k
            net = reify(inst)
            crisp = crisp_solution_map(net)
            for values in assignments(inst):
                total = fast_total(inst, values)
                if total < k:
                    assert values in crisp, (inst.name, values)
                    assert inst.w_zero + sum(crisp[values]) == total
                else:
                    assert values not in crisp, (inst.name, values)
            checked += 1
        assert checked >= 8


class TestCrispDegenerationMatchesBoundFiltering:
    def test_hard_only_instances(self):
        # With the top at 1 every cost is hard, and bound filtering computes
        # exactly the crisp fixpoint of the mirrored variables.
        for seed in range(20):
            inst = hard_instance(seed)
            rep = enforce_bac(PropState(inst))
            crisp = enforce_crisp_bc(reify(inst))
            if rep.empty or crisp.empty:
                assert rep.empty == crisp.empty, inst.name
                continue
            mirrors = crisp.bounds[: len(inst.variables)]
            engine = [(d.lb, d.ub) for d in rep.domains]
            assert engine == mirrors, inst.name
