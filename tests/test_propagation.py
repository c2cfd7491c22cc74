import random

import pytest

from softbounds.core import CapError, ContractError, Domain, ValuationStructure, Variable
from softbounds.costfn import CostFunction, ExtTable, LinPlus
from softbounds.network import Instance
from softbounds.oracle import brute_optimum, naive_bac_fixpoint, naive_bac_zero_fixpoint
from softbounds.propagation import (
    AC_VALUE_CAP,
    INF,
    SUP,
    PropState,
    enforce_ac_star,
    enforce_bac,
    enforce_bac_zero,
    enforce_nc,
    project_binary,
    project_to_zero,
    project_unary,
    prune,
)

from helpers import preservation_ok, suite


def intervals(report):
    return [None if d.is_empty else (d.lb, d.ub) for d in report.domains]


def unary_map(st, xi):
    d = st.domains[xi]
    return {v: st.unary[xi][v - st.base_lb[xi]] for v in d.iter_values()}


class TestUnaryProjection:
    def test_moves_minimum(self):
        inst = Instance(
            "u",
            ValuationStructure(9),
            [Variable(0, Domain(0, 1))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={(0,): 1, (1,): 2}))],
        )
        st = PropState(inst, mode="values")
        assert project_unary(st, 0)
        assert st.w_zero == 1
        assert unary_map(st, 0) == {0: 0, 1: 1}

    def test_noop_when_support_exists(self):
        inst = Instance(
            "u",
            ValuationStructure(9),
            [Variable(0, Domain(0, 1))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={(1,): 2}))],
        )
        st = PropState(inst, mode="values")
        assert not project_unary(st, 0)
        assert st.w_zero == 0

    def test_singleton_domain(self):
        inst = Instance(
            "u",
            ValuationStructure(9),
            [Variable(0, Domain(4, 4))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={(4,): 3}))],
        )
        st = PropState(inst, mode="values")
        assert project_unary(st, 0)
        assert st.w_zero == 3
        assert unary_map(st, 0) == {4: 0}

    def test_requires_value_mode(self):
        inst = Instance("u", ValuationStructure(9), [Variable(0, Domain(0, 1))], [])
        with pytest.raises(ContractError):
            project_unary(PropState(inst), 0)


class TestBinaryProjection:
    def test_support_created(self, inst_cascade):
        st = PropState(inst_cascade, mode="values")
        # Remove value 0 of x0 first, as node consistency would.
        from softbounds.propagation import _delete_value

        _delete_value(st, 0, 0)
        assert project_binary(st, 0, 1, 1)
        assert unary_map(st, 0)[1] == 1  # binary minimum 1 moved onto the value

    def test_noop_with_existing_support(self):
        table = {(0, 0): 2}
        inst = Instance(
            "b",
            ValuationStructure(9),
            [Variable(0, Domain(0, 1)), Variable(1, Domain(0, 1))],
            [CostFunction(scope=(0, 1), kind=ExtTable(default=0, table=table))],
        )
        st = PropState(inst, mode="values")
        assert not project_binary(st, 0, 0, 1)  # pair (0,1) already costs 0

    def test_random_tables_move_exact_minimum(self):
        rng = random.Random(5)
        for _ in range(40):
            d = rng.randint(2, 8)
            k = rng.choice((4, 9, 15))
            table = {}
            for vi in range(d):
                for vj in range(d):
                    if rng.random() < 0.7:
                        table[(vi, vj)] = rng.randint(1, k)
            inst = Instance(
                "b",
                ValuationStructure(k),
                [Variable(0, Domain(0, d - 1)), Variable(1, Domain(0, d - 1))],
                [CostFunction(scope=(0, 1), kind=ExtTable(default=0, table=table))],
            )
            st = PropState(inst, mode="values")
            vi = rng.randrange(d)
            row_min = min(table.get((vi, vj), 0) for vj in range(d))
            moved = project_binary(st, 0, vi, 1)
            assert moved == (row_min > 0)
            assert unary_map(st, 0)[vi] == row_min
            if 0 < row_min < k:
                # Effective pair costs all dropped by exactly the minimum.
                for vj in range(d):
                    eff = st._eff_pair(0, (vi, vj))
                    raw = table.get((vi, vj), 0)
                    assert eff == (k if raw == k else raw - row_min)


class TestNodeConsistency:
    def test_cascade_first_value_dies(self, inst_cascade):
        st = PropState(inst_cascade, mode="values")
        rep = enforce_nc(st)
        assert not rep.empty
        assert intervals(rep)[0] == (1, 1)  # the top-cost value is gone
        assert st.w_zero == 1  # x1's floor was projected

    def test_already_consistent_is_noop(self):
        inst = Instance(
            "n",
            ValuationStructure(9),
            [Variable(0, Domain(0, 2))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={(1,): 2}))],
        )
        st = PropState(inst, mode="values")
        rep = enforce_nc(st)
        assert not rep.empty
        assert rep.deletions == 0 and rep.w_zero == 0

    def test_wipeout_by_floor(self):
        # Unary costs 2 and 3 with the constant term at 2 and top 4:
        # projecting 2 lifts the term to 4, then both values die.
        inst = Instance(
            "n",
            ValuationStructure(4),
            [Variable(0, Domain(0, 1))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={(0,): 2, (1,): 3}))],
            w_zero=2,
        )
        assert not brute_optimum(inst).feasible
        rep = enforce_nc(PropState(inst, mode="values"))
        assert rep.empty


class TestArcConsistency:
    def test_cascade_fixpoint(self, inst_cascade):
        st = PropState(inst_cascade, mode="values")
        rep = enforce_ac_star(st)
        assert not rep.empty
        assert rep.w_zero == 2
        assert intervals(rep) == [(1, 1), (0, 0)]

    def test_idempotent(self, inst_cascade):
        st = PropState(inst_cascade, mode="values")
        first = enforce_ac_star(st)
        second = enforce_ac_star(st)
        assert intervals(first) == intervals(second)
        assert first.w_zero == second.w_zero

    def test_sum_instance_projects_two(self, inst_linplus_sum):
        st = PropState(inst_linplus_sum, mode="values")
        rep = enforce_ac_star(st)
        assert rep.w_zero == 2
        assert intervals(rep) == [(1, 10), (1, 10)]

    def test_equivalence_preserved(self):
        import itertools

        for inst in suite(12):
            if any(fn.arity > 2 for fn in inst.functions):
                continue
            from helpers import fast_total

            st = PropState(inst, mode="values")
            rep = enforce_ac_star(st)
            if rep.empty:
                assert not brute_optimum(inst).feasible
                continue
            ranges = [range(v.domain.lb, v.domain.ub + 1) for v in inst.variables]
            for values in itertools.product(*ranges):
                orig = fast_total(inst, values)
                inside = all(st.domains[i].contains(values[i]) for i in range(len(values)))
                if inside:
                    t = {i: values[i] for i in range(len(values))}
                    assert st.effective_total(t) == orig
                else:
                    assert orig >= inst.valuation.k

    def test_refuses_wide_domains(self):
        inst = Instance(
            "wide",
            ValuationStructure(9),
            [Variable(0, Domain(0, AC_VALUE_CAP + 5))],
            [],
        )
        with pytest.raises(CapError):
            PropState(inst, mode="values")

    def test_refuses_ternary(self):
        inst = Instance(
            "t",
            ValuationStructure(9),
            [Variable(0, Domain(0, 1)), Variable(1, Domain(0, 1)), Variable(2, Domain(0, 1))],
            [CostFunction(scope=(0, 1, 2), kind=ExtTable(default=0, table={}))],
        )
        with pytest.raises(ContractError):
            enforce_ac_star(PropState(inst, mode="values"))


class TestPrune:
    def test_fires_at_top(self, inst_pair_tables):
        st = PropState(inst_pair_tables)
        st.w_inf[0] = 2  # combined pinned contributions of the lower bound
        assert prune(st, 0, INF)
        assert st.domains[0].lb == 1
        assert st.w_inf[0] == 0 and all(v == 0 for v in st.delta_inf[0])

    def test_guard_below_top(self, inst_pair_tables):
        st = PropState(inst_pair_tables)
        st.w_inf[0] = 1
        assert not prune(st, 0, INF)
        assert st.domains[0].lb == 0

    def test_singleton_wipeout(self):
        inst = Instance(
            "s",
            ValuationStructure(2),
            [Variable(0, Domain(5, 5))],
            [],
            w_zero=1,
        )
        st = PropState(inst)
        st.w_sup[0] = 1
        assert prune(st, 0, SUP)
        assert st.domains[0].is_empty


class TestBoundEnforcement:
    def test_pair_tables_wipes(self, inst_pair_tables):
        rep = enforce_bac(PropState(inst_pair_tables))
        assert rep.empty
        assert intervals(rep) == [None, None, None]
        assert rep.w_zero == 0  # bound filtering never moves cost

    def test_sum_instance_idle(self, inst_linplus_sum):
        rep = enforce_bac(PropState(inst_linplus_sum))
        assert not rep.empty
        assert rep.w_zero == 0 and rep.deletions == 0
        assert intervals(rep) == [(1, 10), (1, 10)]

    def test_matches_naive_rescan(self):
        for inst in suite(25):
            rep = enforce_bac(PropState(inst))
            naive = naive_bac_fixpoint(inst)
            assert intervals(rep) == [
                None if lo > hi else (lo, hi) for lo, hi in naive
            ], inst.name


class TestProjectToZero:
    def test_sum_instance(self, inst_linplus_sum):
        st = PropState(inst_linplus_sum)
        assert project_to_zero(st, 0)
        assert st.w_zero == 2
        assert st.overlays[0].delta_shift == 2

    def test_noop_with_zero_tuple(self, inst_pair_tables):
        st = PropState(inst_pair_tables)
        assert not project_to_zero(st, 0)
        assert st.w_zero == 0

    def test_fully_assigned_scope(self):
        inst = Instance(
            "f",
            ValuationStructure(9),
            [Variable(0, Domain(2, 2)), Variable(1, Domain(3, 3))],
            [CostFunction(scope=(0, 1), kind=LinPlus(1, 1, 0))],
        )
        st = PropState(inst)
        assert project_to_zero(st, 0)
        assert st.w_zero == 5


class TestJointEnforcement:
    def test_sum_instance(self, inst_linplus_sum):
        rep = enforce_bac_zero(PropState(inst_linplus_sum))
        assert rep.w_zero == 2
        assert intervals(rep) == [(1, 10), (1, 10)]

    def test_pair_tables_dominated(self, inst_pair_tables):
        rep = enforce_bac_zero(PropState(inst_pair_tables))
        assert rep.empty

    def test_idempotent(self):
        for inst in suite(10):
            st = PropState(inst)
            first = enforce_bac_zero(st)
            fp = st.fingerprint()
            second = enforce_bac_zero(st)
            assert st.fingerprint() == fp
            assert intervals(first) == intervals(second)

    def test_matches_naive_fixpoint(self):
        for inst in suite(25):
            st = PropState(inst)
            rep = enforce_bac_zero(st)
            doms, w0, shifts = naive_bac_zero_fixpoint(inst)
            assert intervals(rep) == [None if lo > hi else (lo, hi) for lo, hi in doms]
            assert rep.w_zero == w0
            assert [ov.delta_shift for ov in st.overlays] == shifts

    def test_dominates_plain_bound_filtering(self):
        for inst in suite(25):
            plain = enforce_bac(PropState(inst))
            joint = enforce_bac_zero(PropState(inst))
            for dj, dp in zip(joint.domains, plain.domains):
                if dj.is_empty:
                    continue
                assert dp.lb <= dj.lb and dj.ub <= dp.ub

    def test_lower_bound_valid(self):
        for inst in suite(25):
            opt = brute_optimum(inst)
            if not opt.feasible:
                continue
            rep = enforce_bac_zero(PropState(inst))
            assert rep.w_zero <= opt.cost

    def test_solution_sets_preserved(self):
        for inst in suite(15):
            st = PropState(inst)
            enforce_bac_zero(st)
            assert preservation_ok(
                inst,
                st.domains,
                [ov.delta_shift for ov in st.overlays],
                st.w_zero,
            ), inst.name

    def test_deletion_soundness(self):
        # Every deleted bound value admits no completion below the top.
        from helpers import assignments, fast_total

        for inst in suite(10):
            st = PropState(inst)
            enforce_bac_zero(st)
            k = inst.valuation.k
            for values in assignments(inst):
                inside = all(
                    st.domains[i].contains(values[i]) for i in range(len(values))
                )
                if not inside:
                    assert fast_total(inst, values) >= k

    def test_quiescent_caches_are_exact(self):
        # At a fixpoint every cached contribution equals the current pinned
        # minimum, and each bound cache is the plain sum of its row.
        from softbounds.costfn import min_over_box_pinned
        from softbounds.oracle import brute_min_over_box

        for inst in suite(12):
            st = PropState(inst)
            rep = enforce_bac_zero(st)
            if rep.empty:
                continue
            for xi in range(len(st.domains)):
                assert st.w_inf[xi] == sum(st.delta_inf[xi])
                assert st.w_sup[xi] == sum(st.delta_sup[xi])
                d = st.domains[xi]
                for fi in st.incident[xi]:
                    fn = inst.functions[fi]
                    box = {v: (st.domains[v].lb, st.domains[v].ub) for v in fn.scope}
                    shift = st.overlays[fi].delta_shift
                    slot = st.slot_of[xi][fi]
                    pinned_box = dict(box)
                    pinned_box[xi] = (d.lb, d.lb)
                    assert st.delta_inf[xi][slot] == brute_min_over_box(
                        fn, pinned_box, st.val, shift
                    )
                    pinned_box[xi] = (d.ub, d.ub)
                    assert st.delta_sup[xi][slot] == brute_min_over_box(
                        fn, pinned_box, st.val, shift
                    )

    def test_shift_bounded_by_raw_minimum(self):
        # The recorded shift never exceeds the raw minimum over the final
        # box, so effective costs stay within the scale.
        from softbounds.oracle import brute_min_over_box

        for inst in suite(12):
            st = PropState(inst)
            rep = enforce_bac_zero(st)
            if rep.empty:
                continue
            for fi, fn in enumerate(inst.functions):
                shift = st.overlays[fi].delta_shift
                if shift:
                    box = {v: (st.domains[v].lb, st.domains[v].ub) for v in fn.scope}
                    assert shift <= brute_min_over_box(fn, box, st.val)


class TestConfluence:
    def test_schedules_agree(self):
        for inst in suite(15):
            base_bac = None
            base_joint = None
            for schedule in range(8):
                rng = random.Random(schedule * 31 + 7) if schedule else None
                rep = enforce_bac(PropState(inst, pop_rng=rng))
                key = (rep.empty, intervals(rep))
                if base_bac is None:
                    base_bac = key
                assert key == base_bac, (inst.name, schedule)

                rng = random.Random(schedule * 31 + 7) if schedule else None
                st = PropState(inst, pop_rng=rng)
                rep = enforce_bac_zero(st)
                key = (
                    rep.empty,
                    intervals(rep),
                    rep.w_zero,
                    tuple(ov.delta_shift for ov in st.overlays),
                )
                if base_joint is None:
                    base_joint = key
                assert key == base_joint, (inst.name, schedule)


class TestSpaceDiscipline:
    def test_no_per_value_state_in_interval_mode(self):
        from softbounds.generators import gen_spacerchain

        small = gen_spacerchain(m=6, L=1000, seed=4)
        big = gen_spacerchain(m=6, L=1000000, seed=4)
        st_small = PropState(small)
        st_big = PropState(big)
        assert st_small.allocation_cells() == st_big.allocation_cells()
        enforce_bac_zero(st_big)
        assert st_big.unary is None and st_big.pair_proj is None
        assert all(d.removed is None for d in st_big.domains)

    def test_value_mode_allocates_per_value(self):
        inst = Instance(
            "v",
            ValuationStructure(9),
            [Variable(0, Domain(0, 99))],
            [],
        )
        st = PropState(inst, mode="values")
        assert st.allocation_cells() > 100


class TestTrace:
    def test_events_recorded(self, inst_pair_tables):
        trace = []
        st = PropState(inst_pair_tables, trace=trace)
        enforce_bac(st)
        deletes = [e for e in trace if e["event"] == "delete"]
        assert len(deletes) == 4  # the first variable loses all four values
        assert all(e["var"] == 0 for e in deletes)

    def test_projection_event(self, inst_linplus_sum):
        trace = []
        st = PropState(inst_linplus_sum, trace=trace)
        enforce_bac_zero(st)
        assert {"event": "project", "fn": 0, "amount": 2} in trace
