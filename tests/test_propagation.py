import json
import random
import time
from math import prod

import pytest

from softbounds import propagation
from softbounds.core import CapError, ContractError, Domain, ValuationStructure, Variable
from softbounds.costfn import CostFunction, ExtTable, FunctionOverlay, LinPlus, Spacer
from softbounds.network import Instance
from softbounds.oracle import (
    brute_min_over_box,
    brute_optimum,
    naive_bac_fixpoint,
    naive_bac_zero_fixpoint,
)
from softbounds.propagation import (
    AC_VALUE_CAP,
    INF,
    SUP,
    LimitReached,
    PropState,
    enforce_ac_star,
    enforce_bac,
    enforce_bac_zero,
    enforce_nc,
    narrow,
    _project_pairs,
    project_to_zero,
    project_unary,
    prune,
    resume_bounds,
    state_mode,
)
from softbounds.search import BRANCHINGS, resume_node

import record_pins
from helpers import binary_only, preservation_ok, spacer_chains, suite, value_mode_total


def intervals(report):
    return [None if d.is_empty else (d.lb, d.ub) for d in report.domains]


def top_constant_instance():
    """w_zero already at the top, over a variable that no function touches."""
    return Instance("top", ValuationStructure(5), [Variable(0, Domain(0, 3))], [], w_zero=5)


def assert_nc_star(st, where):
    """Every live value is tolerable, every non-empty domain holds a value
    of zero unary cost, and one more node-consistency pass changes nothing."""
    for xi, d in enumerate(st.domains):
        if d.is_empty:
            continue
        costs = unary_map(st, xi)
        assert all(st.w_zero + c < st.k for c in costs.values()), (where, xi)
        assert min(costs.values()) == 0, (where, xi)
    before = (st.fingerprint(), vars(st.stats).copy())
    assert not propagation._nc_fixpoint(st, list(range(len(st.domains)))), where
    assert (st.fingerprint(), vars(st.stats)) == before, where


def stale_row_instance():
    """Under bac0, the first pop walks x0's lower bound to 1 and queues x0.
    x1's pop then raises the shift of f by 3 and walks x1's lower bound
    before it recomputes x0's entries. During that walk, x0 is queued and
    its lower row holds f's entry from before the shift, 6. With u's 1 it
    reaches the new top, 10 - 3, although from x0 = 1 the two cost 3 + 1."""
    f = {(0, 1): 10, (0, 2): 10, (1, 1): 6, (1, 2): 3, (2, 1): 6, (2, 2): 3}
    return Instance(
        "stale-row",
        ValuationStructure(10),
        [Variable(0, Domain(0, 2)), Variable(1, Domain(0, 2))],
        [
            CostFunction(scope=(1, 0), kind=ExtTable(default=0, table=f)),
            CostFunction(scope=(0,), kind=ExtTable(default=0, table={(0,): 10, (1,): 1})),
        ],
    )


def one_variable():
    """One variable over [0, 1] and no function."""
    return Instance("u", ValuationStructure(9), [Variable(0, Domain(0, 1))], [])


def emptied_values_state():
    """A value-mode state over one variable that a narrow has emptied."""
    st = PropState(one_variable(), mode="values")
    narrow(st, 0, 1, 0)
    return st


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

    def test_refuses_an_empty_domain(self):
        with pytest.raises(ContractError, match="no live values"):
            project_unary(emptied_values_state(), 0)


class TestRefusedStates:
    def test_unknown_mode(self):
        with pytest.raises(ContractError, match="unknown mode"):
            PropState(one_variable(), mode="dense")

    @pytest.mark.parametrize("enforce", (enforce_bac, enforce_bac_zero))
    def test_interval_enforcement_on_a_value_state(self, enforce):
        with pytest.raises(ContractError, match="interval-mode state"):
            enforce(PropState(one_variable(), mode="values"))

    @pytest.mark.parametrize("enforce", (enforce_nc, enforce_ac_star))
    def test_an_empty_domain_is_reported_at_once(self, enforce):
        rep = enforce(emptied_values_state())
        assert rep.empty and rep.deletions == rep.projections == rep.queue_pops == 0


class TestBinaryProjection:
    def test_support_created(self, inst_cascade):
        st = PropState(inst_cascade, mode="values")
        # Remove value 0 of x0 first, as node consistency would.
        from softbounds.propagation import _delete_value

        _delete_value(st, 0, 0)
        _project_pairs(st, 2, 0)
        assert st.stats.projections == 1
        assert unary_map(st, 0) == {1: 1}  # binary minimum 1 moved onto the value
        assert st.pair_proj[2] == ([0, 1], [0, 0])

    def test_noop_with_existing_support(self):
        table = {(0, 0): 2}
        inst = Instance(
            "b",
            ValuationStructure(9),
            [Variable(0, Domain(0, 1)), Variable(1, Domain(0, 1))],
            [CostFunction(scope=(0, 1), kind=ExtTable(default=0, table=table))],
        )
        st = PropState(inst, mode="values")
        before = st.fingerprint(), [list(a) for a in st.unary]
        for xo in (0, 1):  # every value has a pair of cost 0
            _project_pairs(st, 0, xo)
        assert st.stats.projections == 0
        assert (st.fingerprint(), [list(a) for a in st.unary]) == before

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
            xo = rng.randrange(2)
            pair = (lambda v, w: (v, w)) if xo == 0 else (lambda v, w: (w, v))
            row_min = [min(table.get(pair(v, w), 0) for w in range(d)) for v in range(d)]
            _project_pairs(st, 0, xo)
            assert st.stats.projections == sum(m > 0 for m in row_min)
            assert unary_map(st, xo) == dict(enumerate(row_min))
            # Effective pair costs dropped by exactly the minimum below k;
            # a value whose pairs all cost k keeps its offset.
            own, other = st.pair_proj[0][xo], st.pair_proj[0][1 - xo]
            assert own == [m if m < k else 0 for m in row_min]
            assert other == [0] * d


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
                    assert value_mode_total(st, values) == orig
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


def walk_instance():
    """x0 meets a unary table, a linplus and a spacer, and one prune walks
    its lower bound. With the constant term 4 and the top 10, a row summing
    to 6 kills a value: 1 has the unary cost 10, 2 has 4 + 8, 3 has 4 + 6
    and 4 has 0 + 4 + 2; the row of 5 is 0 + 2 + 1."""
    return Instance(
        "walk",
        ValuationStructure(10),
        [Variable(0, Domain(0, 20)), Variable(1, Domain(0, 5))],
        [
            CostFunction(scope=(0,), kind=ExtTable(default=0, table={(1,): 10, (2,): 4, (3,): 4})),
            CostFunction(scope=(0, 1), kind=LinPlus(-2, 1, 12)),
            CostFunction(scope=(1, 0), kind=Spacer(3, 6, 20, 30, 1)),
        ],
        w_zero=4,
    )


def table_walk_instance():
    """x0 meets only tables: a sparse one with x1 (default 6, listing 1 at
    x1 = 0 for x0 >= 3) and a dense one with x2 (4 on x0 < 5, else x2's
    value). With the top 10, the values 0 to 2 cost 6 + 4 and the row of 3
    is 1 + 4."""
    return Instance(
        "table-walk",
        ValuationStructure(10),
        [Variable(0, Domain(0, 9)), Variable(1, Domain(0, 19)), Variable(2, Domain(0, 3))],
        [
            CostFunction(
                scope=(0, 1),
                kind=ExtTable(default=6, table={(v, 0): 1 for v in range(3, 10)}),
            ),
            CostFunction(
                scope=(0, 2),
                kind=ExtTable(
                    default=0,
                    table={(v, w): 4 if v < 5 else w for v in range(10) for w in range(4)},
                ),
            ),
        ],
    )


class TestPrune:
    def test_fires_at_top(self, inst_pair_tables):
        # Every value of x0 costs the top 2 over the two tables, so the
        # lower bound walks through the whole domain.
        st = PropState(inst_pair_tables)
        st.delta_inf[0][0] = 2  # combined pinned contributions of the lower bound
        assert prune(st, 0, INF)
        assert (st.domains[0].lb, st.domains[0].ub) == (4, 3)
        assert st.stats.deletions == 4

    def test_guard_below_top(self, inst_pair_tables):
        st = PropState(inst_pair_tables)
        st.delta_inf[0][0] = 1
        assert not prune(st, 0, INF)
        assert st.domains[0].lb == 0

    @pytest.mark.parametrize(
        "make,lb,row",
        [(walk_instance, 5, [0, 2, 1]), (table_walk_instance, 3, [1, 4])],
        ids=["mixed", "tables"],
    )
    def test_bound_walks_to_the_first_supported_value(self, make, lb, row):
        from softbounds.oracle import brute_min_over_box

        inst = make()
        st = PropState(inst)
        st.delta_inf[0][0] = st.k - st.w_zero  # the lower bound 0 reaches the top
        assert prune(st, 0, INF)
        assert st.domains[0].lb == lb and st.stats.deletions == lb
        box = {v.id: (v.domain.lb, v.domain.ub) for v in inst.variables}
        box[0] = (lb, lb)
        fns = [inst.functions[fi] for fi in st.incident[0]]
        assert st.delta_inf[0] == [
            brute_min_over_box(fn, {v: box[v] for v in fn.scope}, st.val) for fn in fns
        ] == row
        assert st.in_queue[0] == propagation.NEIGHBOURS

    def test_walk_writes_its_bound_once(self):
        # The walk of width 5 moves the bound with one trail entry and
        # reports one delete event for all five values.
        trace = []
        st = PropState(walk_instance(), trace=trace)
        st.delta_inf[0][0] = 6
        mark = st.mark()
        assert prune(st, 0, INF)
        d = st.domains[0]
        assert [entry for entry in st.trail if entry[1] is d] == [(setattr, d, "lb", 0)]
        assert trace == [{"event": "delete", "var": 0, "bound": "inf", "value": 0, "amount": 5}]
        assert st.stats.deletions == 5
        st.undo_to(mark)
        assert (d.lb, d.ub) == (0, 20) and st.delta_inf[0] == [6, 0, 0]

    def test_walk_to_a_wipeout_writes_once(self):
        # Every value of x0 costs the top through the unary table, so the
        # walk of the upper bound empties the domain in one write.
        inst = Instance(
            "wipe",
            ValuationStructure(3),
            [Variable(0, Domain(2, 6))],
            [CostFunction(scope=(0,), kind=ExtTable(default=3, table={}))],
        )
        trace = []
        st = PropState(inst, trace=trace)
        st.delta_sup[0][0] = 3
        st.mark()
        assert prune(st, 0, SUP)
        assert st.domains[0].is_empty and st.stats.deletions == 5
        assert trace == [{"event": "delete", "var": 0, "bound": "sup", "value": 6, "amount": 5}]
        assert len(st.trail) == 1

    def test_singleton_wipeout(self):
        inst = Instance(
            "s",
            ValuationStructure(2),
            [Variable(0, Domain(5, 5))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table={}))],
            w_zero=1,
        )
        st = PropState(inst)
        st.delta_sup[0][0] = 1
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
        for inst in suite(25) + [top_constant_instance()] + spacer_chains():
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


    def test_memo_is_keyed_on_box_and_shift(self):
        # cost max(0, x0 + x1 - 4): 0 over the whole box, 2 once x0 >= 6.
        # After the raise at x0 in [6, 10] is undone, the same box comes
        # back with the old shift, and the projection must happen again.
        inst = Instance(
            "memo",
            ValuationStructure(20),
            [Variable(0, Domain(0, 10)), Variable(1, Domain(0, 10))],
            [CostFunction(scope=(0, 1), kind=LinPlus(1, 1, -4))],
        )
        st = PropState(inst)
        enforce_bac_zero(st)
        mark = st.mark()
        for _ in range(2):
            narrow(st, 0, 6, 10)
            assert not resume_bounds(st, True, [0])
            assert (st.w_zero, st.overlays[0].delta_shift) == (2, 2)
            resumed = (st.fingerprint(), repr(st.delta_inf), repr(st.delta_sup))
            st.undo_to(mark)
            assert (st.w_zero, st.overlays[0].delta_shift) == (0, 0)
        fresh = PropState(inst)
        narrow(fresh, 0, 6, 10)
        enforce_bac_zero(fresh)
        assert resumed == (fresh.fingerprint(), repr(fresh.delta_inf), repr(fresh.delta_sup))

    def test_a_point_costs_one_lookup_and_its_memo_none(self):
        # Every function of the suite, first projected over its declared box
        # (which may shift it), then with its scope narrowed to a random
        # point: the projection moves the oracle's cost under that shift
        # with one lookup, and a second call at the same point and shift
        # moves nothing and looks nothing up.
        rng = random.Random(7)
        checked = shifted = 0
        for inst in suite(20, max_volume=3000):
            for fi, fn in enumerate(inst.functions):
                st = PropState(inst)
                ov = st.overlays[fi]
                project_to_zero(st, fi)
                shift, w_zero, evals = ov.delta_shift, st.w_zero, ov.eval_count
                if w_zero == st.k:
                    continue
                point = {}
                for v in fn.scope:
                    d = st.domains[v]
                    point[v] = rng.randint(d.lb, d.ub)
                    narrow(st, v, point[v], point[v])
                box = {v: (w, w) for v, w in point.items()}
                cost = brute_min_over_box(fn, box, st.val, shift)
                assert project_to_zero(st, fi) == (cost > 0), (inst.name, fi)
                assert (st.w_zero, ov.eval_count) == (
                    min(st.k, w_zero + cost), evals + 1
                ), (inst.name, fi)
                assert not project_to_zero(st, fi), (inst.name, fi)
                assert ov.eval_count == evals + 1, (inst.name, fi)
                checked += 1
                shifted += shift > 0
        assert checked > 100 and shifted >= 5, (checked, shifted)


def singleton_root():
    """A root whose declared domains include two singletons, with costs on
    functions over them alone and over them and wider variables."""
    return Instance(
        "singleton-root",
        ValuationStructure(12),
        [
            Variable(0, Domain(2, 2)),
            Variable(1, Domain(0, 0)),
            Variable(2, Domain(0, 3)),
            Variable(3, Domain(-1, 2)),
        ],
        [
            CostFunction(scope=(0, 1), kind=ExtTable(default=0, table={(2, 0): 2})),
            CostFunction(scope=(0,), kind=ExtTable(default=0, table={(2,): 1})),
            CostFunction(scope=(0, 2), kind=ExtTable(default=1, table={(2, 1): 0, (2, 3): 0})),
            CostFunction(
                scope=(1, 2, 3), kind=ExtTable(default=0, table={(0, 1, 2): 3, (0, 3, -1): 2})
            ),
            CostFunction(scope=(2, 3), kind=ExtTable(default=0, table={(0, 0): 2, (3, 2): 4})),
        ],
    )


def assert_assigned_functions_projected(st, where):
    """Every function whose whole scope is assigned has effective cost 0 at
    its point, unless w_zero is at k; value mode keeps a unary function's
    cost in the unary costs of its variable."""
    if st.w_zero == st.k:
        return
    for fi, fn in enumerate(st.instance.functions):
        doms = [st.domains[v] for v in fn.scope]
        if any(d.lb != d.ub for d in doms):
            continue
        if st.mode == "values" and fn.arity == 1:
            (x,) = fn.scope
            cost = st.unary[x][doms[0].lb - st.base_lb[x]]
        else:
            box = {v: (d.lb, d.lb) for v, d in zip(fn.scope, doms)}
            cost = brute_min_over_box(fn, box, st.val, st.overlays[fi].delta_shift)
        assert cost == 0, (where, fi)


class TestBackwardChecking:
    @pytest.mark.parametrize("branching", BRANCHINGS)
    @pytest.mark.parametrize("consistency", ("bac", "nc"))
    def test_walks_keep_every_assigned_function_projected(self, consistency, branching):
        # Seeded walks of search moves: narrow a random open variable as
        # `branching` would, resume, and now and then undo to a random
        # earlier mark. Marks are taken after consistent passes, as the
        # search takes them, and also between a narrow and its resume, from
        # which the walk resumes again after undoing. After every consistent
        # pass every fully assigned function is projected; every undo
        # restores w_zero.
        checked = undone = 0
        for inst in suite(30, max_volume=3000) + [singleton_root()]:
            rng = random.Random(f"{inst.name}/{consistency}/{branching}")
            st = PropState(inst, mode=state_mode(consistency))
            st.mark()
            if resume_node(st, consistency, list(range(len(st.domains)))):
                continue
            assert_assigned_functions_projected(st, (inst.name, "root"))
            # (mark, w_zero there, the variables to resume after undoing to it)
            marks = [(st.mark(), st.w_zero, [])]
            for step in range(80):
                where = (inst.name, step)
                open_vars = [i for i, d in enumerate(st.domains) if d.lb < d.ub]
                if not open_vars or rng.random() < 0.25:
                    del marks[rng.randrange(len(marks)) + 1:]
                    mark, w_zero, touched = marks[-1]
                    st.undo_to(mark)
                    assert st.w_zero == w_zero, where
                    undone += 1
                    if not touched:
                        continue
                    if resume_node(st, consistency, touched):
                        marks.pop()
                        mark, w_zero, touched = marks[-1]
                        st.undo_to(mark)  # an earlier mark is never pending
                        assert st.w_zero == w_zero and not touched, where
                        continue
                    assert_assigned_functions_projected(st, where)
                    checked += 1
                    marks.append((st.mark(), st.w_zero, []))
                    continue
                var = rng.choice(open_vars)
                d = st.domains[var]
                if branching == "enumerate":
                    lo = hi = rng.choice(list(d.iter_values()))
                else:
                    mid = (d.lb + d.ub) // 2
                    lo, hi = rng.choice(((d.lb, mid), (mid + 1, d.ub)))
                narrow(st, var, lo, hi)
                if rng.random() < 0.2:
                    marks.append((st.mark(), st.w_zero, [var]))
                if resume_node(st, consistency, [var]):
                    if marks[-1][2]:
                        marks.pop()
                    mark, w_zero, _ = marks[-1]
                    st.undo_to(mark)
                    assert st.w_zero == w_zero, where
                    continue
                assert_assigned_functions_projected(st, where)
                checked += 1
                marks.append((st.mark(), st.w_zero, []))
        assert checked > 300 and undone > 100, (checked, undone)


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
        for inst in suite(25) + [top_constant_instance()] + spacer_chains():
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
        # minimum.
        from softbounds.costfn import min_over_box_pinned
        from softbounds.oracle import brute_min_over_box

        for inst in suite(12):
            st = PropState(inst)
            rep = enforce_bac_zero(st)
            if rep.empty:
                continue
            for xi in range(len(st.domains)):
                d = st.domains[xi]
                for fi in st.incident[xi]:
                    fn = inst.functions[fi]
                    box = {v: (st.domains[v].lb, st.domains[v].ub) for v in fn.scope}
                    shift = st.overlays[fi].delta_shift
                    slot = st.slots[fi][fn.scope.index(xi)]
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
        # Domains, w_zero and shifts agree under every pop order, and so do
        # the deletions of a consistent outcome: each is one value of the
        # width removed.
        def width_removed(rep):
            return sum(
                v.domain.size() - d.size() for v, d in zip(inst.variables, rep.domains)
            )

        for inst in suite(15) + spacer_chains():
            base_bac = None
            base_joint = None
            for schedule in range(8):
                rng = random.Random(schedule * 31 + 7) if schedule else None
                rep = enforce_bac(PropState(inst, pop_rng=rng))
                if not rep.empty:
                    assert rep.deletions == width_removed(rep), (inst.name, schedule)
                key = (rep.empty, intervals(rep))
                if base_bac is None:
                    base_bac = key
                assert key == base_bac, (inst.name, schedule)

                rng = random.Random(schedule * 31 + 7) if schedule else None
                st = PropState(inst, pop_rng=rng)
                rep = enforce_bac_zero(st)
                if not rep.empty:
                    assert rep.deletions == width_removed(rep), (inst.name, schedule)
                key = (
                    rep.empty,
                    intervals(rep),
                    rep.w_zero,
                    tuple(ov.delta_shift for ov in st.overlays),
                )
                if base_joint is None:
                    base_joint = key
                assert key == base_joint, (inst.name, schedule)

    def test_arc_wipeouts_agree_across_schedules(self):
        # AC* closures of a consistent network may differ between schedules,
        # but a wipeout has one: every domain empty, w_zero at the top.
        wipeouts = 0
        for inst in suite(80, max_volume=3000):
            if not binary_only(inst):
                continue
            keys = set()
            for schedule in range(8):
                rng = random.Random(schedule * 31 + 7) if schedule else None
                rep = enforce_ac_star(PropState(inst, mode="values", pop_rng=rng))
                keys.add((rep.empty, tuple(intervals(rep)), rep.w_zero))
            if any(empty for empty, _, _ in keys):
                wipeouts += 1
                assert len(keys) == 1, inst.name
        assert wipeouts == 14

    def test_a_constant_term_at_the_top_reports_alike_under_every_consistency(
        self, capsys, tmp_path
    ):
        from softbounds.cli import main

        path = tmp_path / "w0k.wcsp"
        path.write_text("wcsp w0k\nk 5\nw0 5\nvar 0 0 3\nvar 1 0 2\nfun linplus 0 1 1 1 0\n")
        for consistency in propagation.ENFORCERS:
            code = main(["propagate", str(path), "--consistency", consistency, "--json"])
            rep = json.loads(capsys.readouterr().out)
            assert (code, rep["domains"], rep["deletions"]) == (1, [None, None], 0), consistency


class TestRecordedCounters:
    def test_bound_enforcement_counters(self):
        # The outcome, deletions, projections, pops and trace of this
        # engine's schedule under each pop order. Lookups may only fall
        # below their ceilings; the wipeout rows where a revision order
        # reached the wipeout later carry that engine's count (see
        # tests/record_pins.py, which records these rows).
        pins = record_pins.load()["enforce"]
        insts = record_pins.instances()
        assert len(pins) == 240 and sum(1 for p in pins if p[3]) > 20
        for name, *key_want in pins:
            key, want, lookups = key_want[:2], key_want[2:-1], key_want[-1]
            got = record_pins.measure("enforce", insts[name], key)
            assert got[:-1] == want, (name, key)
            assert got[-1] <= lookups, (name, key)

    def test_value_enforcement_counters(self):
        # nc and ac on the binary suite instances: outcome, counters, trace
        # and lookups, exactly.
        pins = record_pins.load()["enforce_values"]
        insts = record_pins.instances()
        assert len(pins) == 72 and sum(1 for p in pins if p[3]) > 10
        for name, *key_want in pins:
            key, want = key_want[:2], key_want[2:]
            assert record_pins.measure("enforce_values", insts[name], key) == want, (name, key)


class TestNodeConsistencyInvariant:
    def test_holds_after_enforcement(self):
        # suite-44 and suite-69 need the prune sweep after a rise of w_zero.
        for inst in suite(80, max_volume=3000):
            if not binary_only(inst):
                continue
            for schedule in (None, 1):
                rng = None if schedule is None else random.Random(schedule)
                st = PropState(inst, mode="values", pop_rng=rng)
                if not enforce_ac_star(st).empty:
                    assert_nc_star(st, (inst.name, schedule))

    def test_holds_after_every_arc_resume_in_search(self, monkeypatch):
        from softbounds import search

        checked = []

        def checking(st, arc, touched):
            empty = propagation.resume_values(st, arc, touched)
            if not empty:
                assert_nc_star(st, len(checked))
                checked.append(arc)
            return empty

        monkeypatch.setattr(search, "resume_values", checking)
        for inst in suite(80, max_volume=3000):
            if binary_only(inst):
                for branching in search.BRANCHINGS:
                    search.solve(inst, search.SearchOptions(consistency="ac", branching=branching))
        assert len(checked) > 100


class TestDeadline:
    @pytest.mark.parametrize(
        "enforce,mode",
        [(enforce_bac, "interval"), (enforce_bac_zero, "interval"), (enforce_ac_star, "values")],
    )
    def test_passed_deadline_stops_the_fixpoint(self, monkeypatch, inst_linplus_sum, enforce, mode):
        # No value of this instance is ever deleted, so the fixpoint's only
        # units of work are queue pops, and the first one stops it.
        monkeypatch.setattr(propagation, "DEADLINE_POPS", 1)
        st = PropState(inst_linplus_sum, mode=mode)
        st.deadline = time.perf_counter()
        with pytest.raises(LimitReached):
            enforce(st)
        assert st.stats.queue_pops == 1
        st = PropState(inst_linplus_sum, mode=mode)
        st.deadline = time.perf_counter() + 3600
        assert enforce(st) == enforce(PropState(inst_linplus_sum, mode=mode))

    def test_enforcing_a_stopped_state_again_reaches_the_fresh_outcome(self, monkeypatch):
        # A passed deadline stops the enforcement at its p-th unit of work,
        # for every p up to 39, and a second enforcement without a deadline
        # must report what a fresh state reports. In the stale-row instance
        # the stop at p = 4 leaves a row above its minimum after a shift
        # rise, which enforcement must reset whether or not it is queued.
        engines = [(enforce_bac, "interval"), (enforce_bac_zero, "interval"),
                   (enforce_ac_star, "values")]
        stopped = 0
        for inst in [stale_row_instance()] + suite(30, max_volume=3000):
            for enforce, mode in engines:
                if mode == "values" and not binary_only(inst):
                    continue
                fresh = PropState(inst, mode=mode)
                want = (enforce(fresh).empty, fresh.fingerprint())
                for pops in range(1, 40):
                    monkeypatch.setattr(propagation, "DEADLINE_POPS", pops)
                    st = PropState(inst, mode=mode)
                    st.deadline = time.perf_counter() - 1
                    try:
                        enforce(st)
                        break  # every later p stops no earlier
                    except LimitReached:
                        stopped += 1
                    st.deadline = None
                    got = (enforce(st).empty, st.fingerprint())
                    assert got == want, (inst.name, enforce.__name__, pops)
        assert stopped > 900


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

    def test_a_walk_writes_one_trail_entry(self):
        # 123 000 deletions, almost all in walks; one trail entry per value
        # deleted would make 133 098 entries.
        from softbounds.generators import gen_spacerchain

        st = PropState(gen_spacerchain(m=100, L=10**6, seed=42))
        st.mark()
        rep = enforce_bac(st)
        assert (rep.deletions, rep.queue_pops) == (123_000, 5_050)
        assert len(st.trail) <= 15_147

    @pytest.mark.parametrize("enforce", (enforce_bac, enforce_bac_zero))
    def test_one_shot_enforcement_fills_no_rows(self, enforce):
        # An enforced state that is never marked reads its tables through
        # `box_min`: no row is filled, and it holds as many cells as a
        # network of the same size over domains ten times narrower.
        from softbounds.generators import gen_random

        cells = []
        for d in (6, 60):
            st = PropState(gen_random(n=12, d=d, e=30, seed=3))
            enforce(st)
            assert st.stats.row_fills == 0 and st.trail is None
            cells.append(st.allocation_cells())
        assert cells[0] == cells[1]

    def test_value_mode_allocates_per_value(self):
        inst = Instance(
            "v",
            ValuationStructure(9),
            [Variable(0, Domain(0, 99))],
            [],
        )
        st = PropState(inst, mode="values")
        assert st.allocation_cells() > 100


def _table_pair(rng):
    """Two variables over random intervals and one random binary table,
    from nearly empty to full, with a default of 0, k or in between."""
    k = rng.choice((4, 9, 30))
    spans = []
    for _ in range(2):
        lo = rng.randint(-3, 3)
        spans.append((lo, lo + rng.randint(0, 6)))
    fill = rng.choice((0.05, 0.25, 0.5, 0.8, 1.0))
    table = {
        (a, b): rng.choice((0, rng.randint(0, k), k))
        for a in range(spans[0][0], spans[0][1] + 1)
        for b in range(spans[1][0], spans[1][1] + 1)
        if rng.random() < fill
    }
    default = rng.choice((0, rng.randint(1, k), k))
    fn = CostFunction(scope=(0, 1), kind=ExtTable(default=default, table=table))
    variables = [Variable(i, Domain(lo, hi)) for i, (lo, hi) in enumerate(spans)]
    return Instance("pair", ValuationStructure(k), variables, [fn])


class TestTableRows:
    def test_pinned_matches_oracle_and_box_min_lookups(self):
        # Every pinned minimum, on narrowed boxes, on both scope positions
        # and under shifts up to the minimum, equals the brute-force minimum
        # less the shift, and counts the lookups of `ExtTable.box_min`.
        rng = random.Random(21)
        taken = {"row": 0, "scan": 0, "default above shift": 0, "default at or below": 0}
        for _ in range(400):
            inst = _table_pair(rng)
            fn, val = inst.functions[0], inst.valuation
            st = PropState(inst)
            st.mark()
            vol = prod(v.domain.size() for v in inst.variables)
            dense = vol <= propagation.ROW_FILL_RATIO * len(fn.kind.table)
            assert (st.table_rows[0] is not None) == dense
            for d in st.domains:
                d.lb = rng.randint(d.lb, d.ub)
                d.ub = rng.randint(d.lb, d.ub)
            ov = st.overlays[0]
            for xi in (0, 1):
                partner = st.domains[1 - xi]
                for value in range(st.domains[xi].lb, st.domains[xi].ub + 1):
                    box = {xi: (value, value), 1 - xi: (partner.lb, partner.ub)}
                    raw_min = brute_min_over_box(fn, box, val)
                    ov.delta_shift = rng.randint(0, min(raw_min, val.k - 1))
                    fills, before = st.stats.row_fills, ov.eval_count
                    got = propagation._pinned(st, 0, xi, value)
                    assert got == brute_min_over_box(fn, box, val, ov.delta_shift)
                    scan = FunctionOverlay()
                    fn.kind.box_min(fn.scope, (box[0], box[1]), val.k, ov.delta_shift, scan)
                    assert ov.eval_count - before == scan.eval_count
                    row = dense and len(fn.kind.table) >= partner.ub - partner.lb + 1
                    taken["row" if row else "scan"] += 1
                    if row:
                        above = fn.kind.default > ov.delta_shift
                        taken["default above shift" if above else "default at or below"] += 1
                    else:
                        assert st.stats.row_fills == fills
        assert min(taken.values()) > 100, taken

    def test_sparse_wide_table_gets_no_rows(self):
        # Three entries over two 10**6-wide domains: no rows, and state
        # cells stay those of a 10**3-wide copy.
        def wide(width):
            table = {(0, 1): 3, (5, 9): 1, (width - 1, 0): 2}
            return Instance(
                "wide", ValuationStructure(5),
                [Variable(0, Domain(0, width - 1)), Variable(1, Domain(0, width - 1))],
                [CostFunction(scope=(0, 1), kind=ExtTable(default=1, table=table))],
            )

        cells = []
        for width in (10**3, 10**6):
            st = PropState(wide(width))
            st.mark()
            assert st.table_rows == [None]
            enforce_bac_zero(st)
            assert st.stats.row_fills == 0
            cells.append(st.allocation_cells())
        assert cells[0] == cells[1]

    def test_row_cells_stay_within_the_table_bound(self):
        # Filled rows hold at most the declared box on each side: within
        # 2 * ROW_FILL_RATIO cells per table entry, counted in allocation_cells.
        total = 0
        for inst in suite(60, max_volume=3000):
            for enforce in (enforce_bac, enforce_bac_zero):
                st = PropState(inst)
                st.mark()
                base = st.allocation_cells()
                enforce(st)
                filled = st.allocation_cells() - base
                assert filled == st.stats.row_fills
                bound = sum(
                    2 * propagation.ROW_FILL_RATIO * len(fn.kind.table)
                    for fn, rows in zip(inst.functions, st.table_rows) if rows is not None
                )
                assert filled <= bound
                total += filled
        assert total > 0

    def test_rows_stay_valid_across_undo(self):
        # Rows hold raw costs and are never trailed: narrowing each variable
        # and resuming fills them, undoing each narrowing leaves them equal
        # to fresh table lines, and a later enforcement reaches the fresh
        # state's fixpoint.
        checked = 0
        for inst in suite(60, max_volume=3000):
            st = PropState(inst)
            mark = st.mark()
            for xi, d in enumerate(st.domains):
                narrow(st, xi, d.lb + 1, d.ub)
                resume_bounds(st, True, [xi])
                assert not any(
                    entry[1] is line for entry in st.trail
                    for rows in st.table_rows if rows is not None
                    for lines in rows[2] for line in lines.values()
                )
                st.undo_to(mark)
            assert st.fingerprint() == PropState(inst).fingerprint()
            for fn, rows in zip(inst.functions, st.table_rows):
                if rows is None:
                    continue
                for pos, lines in enumerate(rows[2]):
                    lo, hi = rows[1][1 - pos]
                    for value, line in lines.items():
                        assert line == fn.kind.line(pos, value, lo, hi)
                        checked += 1
            fresh = PropState(inst)
            assert enforce_bac_zero(st).domains == enforce_bac_zero(fresh).domains
            assert st.fingerprint() == fresh.fingerprint()
        assert checked > 100


class TestTrace:
    def test_events_recorded(self, inst_pair_tables):
        trace = []
        st = PropState(inst_pair_tables, trace=trace)
        enforce_bac(st)
        deletes = [e for e in trace if e["event"] == "delete"]
        # The first variable loses all four values in one walk.
        assert deletes == [{"event": "delete", "var": 0, "bound": "inf", "value": 0, "amount": 4}]

    def test_projection_event(self, inst_linplus_sum):
        trace = []
        st = PropState(inst_linplus_sum, trace=trace)
        enforce_bac_zero(st)
        assert {"event": "project", "fn": 0, "amount": 2} in trace
