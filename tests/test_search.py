import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as hs

from softbounds import search
from softbounds.core import (
    INFINITY,
    CapError,
    ContractError,
    Domain,
    ValuationStructure,
    Variable,
)
from softbounds.costfn import CostFunction, ExtTable, Spacer
from softbounds.generators import gen_random
from softbounds.network import Instance, total_cost
from softbounds.oracle import brute_min_over_box, brute_optimum
from softbounds.propagation import (
    AC_VALUE_CAP,
    ENFORCERS,
    INF,
    SUP,
    PropState,
    backward_check,
    narrow,
    resume_bounds,
    state_mode,
)
from softbounds.search import BRANCHINGS, VAR_ORDERS, SearchOptions, resume_node, solve

import record_pins
from helpers import SUITE_KINDS, binary_only, make_kind, spacer_chains, suite

ALL = tuple(ENFORCERS)

# The pins record this engine's schedule. The "enforce" rows hold each
# fixpoint's outcome, counters and trace hash; the "search" rows hold the
# optima, which no engine change may move, and the path fields under the
# degree tie-break and cheaper-half order. Deletions, projections and pops
# follow the revision order. Lookups may only fall below their ceilings.
# The "search_values" rows pin nc and ac searches exactly, lookups
# included. tests/record_pins.py measures and records every row.
PINS = record_pins.load()


class TestExamples:
    def test_root_wipeout(self, inst_pair_tables):
        result = solve(inst_pair_tables, SearchOptions(consistency="bac"))
        assert result.status == "infeasible"
        assert result.backtracks == 0

    def test_sum_instance_optimum(self, inst_linplus_sum):
        result = solve(inst_linplus_sum, SearchOptions(consistency="bac0"))
        assert result.status == "optimal"
        assert result.best_cost == 2
        assert result.best_assignment == {0: 1, 1: 1}

    def test_cascade(self, inst_cascade):
        result = solve(inst_cascade, SearchOptions(consistency="ac"))
        assert result.status == "optimal"
        assert result.best_cost == 2


class TestAgreement:
    def test_matches_brute_force_under_every_consistency(self):
        for inst in suite(20, max_volume=3000) + spacer_chains(max_volume=50000):
            opt = brute_optimum(inst)
            want = opt.cost if opt.feasible else None
            for consistency in ALL:
                if consistency == "ac" and not binary_only(inst):
                    continue
                result = solve(inst, SearchOptions(consistency=consistency))
                assert result.best_cost == want, (inst.name, consistency)
                if want is not None:
                    assert total_cost(inst, result.best_assignment) == want

    def test_enumerate_branching(self):
        for inst in suite(8, max_volume=1500):
            opt = brute_optimum(inst)
            want = opt.cost if opt.feasible else None
            result = solve(
                inst, SearchOptions(consistency="bac0", branching="enumerate")
            )
            assert result.best_cost == want, inst.name

    def test_lex_order(self):
        for inst in suite(6, max_volume=1500):
            opt = brute_optimum(inst)
            want = opt.cost if opt.feasible else None
            result = solve(inst, SearchOptions(consistency="bac0", var_order="lex"))
            assert result.best_cost == want, inst.name


@hs.composite
def small_instances(draw):
    """A random instance of at most 4 variables over at most 4 values, with
    functions of every suite kind (ternary tables included), a finite or
    infinite top and a constant term."""
    n = draw(hs.integers(2, 4))
    intervals = {}
    for i in range(n):
        lb = draw(hs.integers(-3, 3))
        intervals[i] = (lb, lb + draw(hs.integers(0, 3)))
    k = draw(hs.sampled_from((1, 2, 4, 7, INFINITY)))
    functions = []
    for _ in range(draw(hs.integers(1, 6))):
        name = draw(hs.sampled_from(SUITE_KINDS))
        if name == "ext1":
            scope = (draw(hs.integers(0, n - 1)),)
        elif name == "ext3" and n >= 3:
            scope = tuple(sorted(draw(hs.permutations(range(n)))[:3]))
        else:
            name = "ext2" if name == "ext3" else name
            scope = tuple(sorted(draw(hs.permutations(range(n)))[:2]))
        rng = random.Random(draw(hs.integers(0, 2**32 - 1)))
        functions.append(
            CostFunction(scope=scope, kind=make_kind(name, rng, scope, intervals, k))
        )
    return Instance(
        name="drawn",
        valuation=ValuationStructure(k),
        variables=[Variable(i, Domain(*intervals[i])) for i in range(n)],
        functions=functions,
        w_zero=min(k, draw(hs.sampled_from((0, 0, 1, 2)))),
    )


class TestBranchOrder:
    @pytest.mark.parametrize("consistency", ALL)
    @pytest.mark.parametrize("downhill", (True, False))
    def test_cheaper_half_first(self, consistency, downhill):
        # One variable over [0, 7] costing 7 - v (or v): the first dive
        # reaches the free value, so the first incumbent is the optimum.
        costs = {(v,): 7 - v if downhill else v for v in range(8)}
        inst = Instance(
            "slope",
            ValuationStructure(10),
            [Variable(0, Domain(0, 7))],
            [CostFunction(scope=(0,), kind=ExtTable(default=0, table=costs))],
        )
        result = solve(inst, SearchOptions(consistency=consistency))
        assert result.incumbents == [0]
        assert result.best_assignment == {0: 7 if downhill else 0}

    def test_domain_ties_go_to_the_most_incident_functions(self, monkeypatch):
        branched = []
        real = search.narrow

        def recording(st, xi, lo, hi):
            branched.append(xi)
            real(st, xi, lo, hi)

        monkeypatch.setattr(search, "narrow", recording)
        table = ExtTable(default=0, table={(0, 1): 1, (1, 0): 1})
        inst = Instance(
            "star",
            ValuationStructure(10),
            [Variable(i, Domain(0, 1)) for i in range(4)],
            [CostFunction(scope=(i, 2), kind=table) for i in (0, 1)]
            + [CostFunction(scope=(2, 3), kind=table)],
        )
        solve(inst, SearchOptions(consistency="bac"))
        assert branched[0] == 2


class TestOracleDifferential:
    @settings(deadline=None)
    @given(small_instances())
    def test_solve_matches_brute_optimum(self, inst):
        # Every consistency, branching and variable order; the orders that
        # pick branches change the path, never the optimum.
        opt = brute_optimum(inst)
        for consistency in ALL:
            if consistency == "ac" and not binary_only(inst):
                continue
            for branching in BRANCHINGS:
                for order in VAR_ORDERS:
                    opts = SearchOptions(
                        consistency=consistency, branching=branching, var_order=order
                    )
                    r = solve(inst, opts)
                    where = (consistency, branching, order)
                    if not opt.feasible:
                        assert (r.status, r.best_cost) == ("infeasible", None), where
                        continue
                    assert (r.status, r.best_cost) == ("optimal", opt.cost), where
                    assert total_cost(inst, r.best_assignment) == opt.cost, where


class TestPinnedResults:
    def test_bounds_search_matches_recorded_results(self):
        # Status, optimum, witness, nodes and backtracks under bac and bac0,
        # both branchings and both variable orders, and the search's
        # deletions, projections and queue pops; lookups may only fall.
        insts = record_pins.instances()
        assert len(PINS["search"]) == 96
        for name, *key_want in PINS["search"]:
            key, want, lookups = key_want[:3], key_want[3:-1], key_want[-1]
            got = record_pins.measure("search", insts[name], key)
            assert got[:-1] == want, (name, key)
            assert got[-1] <= lookups, (name, key)

    def test_value_search_matches_recorded_results(self):
        # nc and ac under both branchings on the binary suite instances:
        # status, optimum, witness, nodes, backtracks, the search's
        # deletions, projections and queue pops, and its lookups, exactly.
        insts = record_pins.instances()
        assert len(PINS["search_values"]) == 72
        for name, *key_want in PINS["search_values"]:
            key, want = key_want[:2], key_want[2:]
            assert record_pins.measure("search_values", insts[name], key) == want, (name, key)


class TestPruningStrength:
    def test_joint_filtering_never_explores_more(self):
        for inst in suite(20, max_volume=3000):
            weak = solve(inst, SearchOptions(consistency="nc"))
            strong = solve(inst, SearchOptions(consistency="bac0"))
            assert strong.backtracks <= weak.backtracks, inst.name


def _trailed(st):
    """A copy of every container the trail restores."""
    return (
        [(d.lb, d.ub, None if d.removed is None else sorted(d.removed)) for d in st.domains],
        st.w_zero,
        [ov.delta_shift for ov in st.overlays],
        [list(row) for row in st.delta_inf],
        [list(row) for row in st.delta_sup],
        None if st.unary is None else [list(arr) for arr in st.unary],
        None if st.pair_proj is None
        else {fi: (list(a), list(b)) for fi, (a, b) in st.pair_proj.items()},
        list(st.assigned),
        st.fixpoint_slack,
    )


def _assert_rows_exact(st, where):
    """Every row entry is the function's effective minimum with the variable
    pinned at the current bound, and no bound can be pruned."""
    for xi, d in enumerate(st.domains):
        for side, rows in enumerate((st.delta_inf, st.delta_sup)):
            assert st.w_zero + sum(rows[xi]) < st.k, (where, xi, side)
            for fi in st.incident[xi]:
                fn = st.instance.functions[fi]
                box = {v: (st.domains[v].lb, st.domains[v].ub) for v in fn.scope}
                box[xi] = (d.ub, d.ub) if side else (d.lb, d.lb)
                want = brute_min_over_box(fn, box, st.val, st.overlays[fi].delta_shift)
                slot = st.slots[fi][fn.scope.index(xi)]
                assert rows[xi][slot] == want, (where, xi, side, fi)


class TestStateRestoration:
    def test_post_search_fingerprint(self):
        for inst in suite(10, max_volume=2000):
            st = PropState(inst)
            before = st.fingerprint()
            mark = st.mark()
            # Run a search on a separate state, then replay narrowing and
            # undo on this one to exercise the trail machinery directly.
            solve(inst, SearchOptions(consistency="bac0"))
            from softbounds.propagation import enforce_bac_zero

            enforce_bac_zero(st)
            st.undo_to(mark)
            assert st.fingerprint() == before, inst.name

    def test_undo_before_any_mark_is_refused(self):
        st = PropState(suite(1)[0])
        with pytest.raises(ContractError, match="mark"):
            st.undo_to(0)

    @pytest.mark.parametrize("consistency", ("bac", "bac0"))
    def test_writes_before_the_first_mark_are_not_trailed(self, consistency):
        # Enforce without a trail, then mark, narrow, resume and undo: the
        # undo stops at the enforced fixpoint, which the trail never saw.
        checked = 0
        for inst in suite(25, max_volume=3000):
            st = PropState(inst)
            if ENFORCERS[consistency](st).empty:
                continue
            fixpoint = st.fingerprint()
            assert st.trail is None
            mark = st.mark()
            assert mark == 0
            open_vars = [i for i, d in enumerate(st.domains) if d.lb < d.ub]
            if not open_vars:
                continue
            var = open_vars[0]
            narrow(st, var, st.domains[var].lb + 1, st.domains[var].ub)
            resume_bounds(st, consistency == "bac0", [var])
            assert st.fingerprint() != fixpoint
            st.undo_to(mark)
            assert st.fingerprint() == fixpoint, inst.name
            checked += 1
        assert checked > 10, checked

    @pytest.mark.parametrize("consistency", ALL)
    def test_undo_restores_every_trailed_container(self, consistency):
        # Mirror a search: resume at the root, then nested narrow + resume
        # steps, each under its own mark; undo them innermost first.
        rng = random.Random(consistency)
        mode = state_mode(consistency)
        checked = 0
        for inst in suite(25, max_volume=3000):
            if consistency == "ac" and not binary_only(inst):
                continue
            st = PropState(inst, mode=mode)
            stack = [(st.mark(), _trailed(st))]
            empty = resume_node(st, consistency, list(range(len(st.domains))))
            for _ in range(6):
                open_vars = [i for i, d in enumerate(st.domains) if d.lb < d.ub]
                if empty or not open_vars:
                    break
                var = rng.choice(open_vars)
                d = st.domains[var]
                if mode == "values" and rng.random() < 0.5:
                    lo = hi = rng.choice(list(d.iter_values()))
                else:
                    mid = (d.lb + d.ub) // 2
                    lo, hi = rng.choice(((d.lb, mid), (mid + 1, d.ub)))
                stack.append((st.mark(), _trailed(st)))
                narrow(st, var, lo, hi)
                empty = st.domains[var].is_empty or resume_node(st, consistency, [var])
            checked += len(stack)
            while stack:
                mark, want = stack.pop()
                st.undo_to(mark)
                assert _trailed(st) == want, (inst.name, consistency, len(stack))
        assert checked > 20

    @pytest.mark.parametrize("consistency", ("bac", "bac0"))
    def test_rows_exact_at_every_resume_fixpoint(self, consistency):
        # A walk of nested narrow + resume steps with backtracks, some of
        # which lower the top as a new incumbent does, so resumes run both
        # with and without the sweep over every bound.
        rng = random.Random(consistency)
        checked = swept = 0
        for inst in suite(25, max_volume=3000):
            st = PropState(inst)
            st.mark()  # as the search does before its root resume
            empty = resume_node(st, consistency, list(range(len(st.domains))))
            marks = []
            for step in range(14):
                open_vars = [i for i, d in enumerate(st.domains) if d.lb < d.ub]
                if empty or not open_vars or (marks and rng.random() < 0.3):
                    if not marks:
                        break
                    st.undo_to(marks.pop())
                    empty = False
                    if rng.random() < 0.5 and st.k - st.w_zero > 1:
                        st.k -= 1
                    open_vars = [i for i, d in enumerate(st.domains) if d.lb < d.ub]
                    if not open_vars:
                        continue
                var = rng.choice(open_vars)
                d = st.domains[var]
                mid = (d.lb + d.ub) // 2
                lo, hi = rng.choice(((d.lb, mid), (mid + 1, d.ub)))
                swept += st.k - st.w_zero < st.fixpoint_slack
                marks.append(st.mark())
                narrow(st, var, lo, hi)
                empty = resume_node(st, consistency, [var])
                if not empty:
                    _assert_rows_exact(st, (inst.name, step))
                    checked += 1
        assert checked > 50 and swept > 5, (checked, swept)

    @pytest.mark.parametrize("consistency", ("bac", "bac0"))
    def test_narrow_queues_only_the_sides_it_moved(self, consistency):
        # From a root fixpoint: a narrow that moves no bound queues nothing,
        # and a one-sided narrow queues that side's event alone, zeroes that
        # side's row and keeps the other; the resume then makes rows exact.
        checked = 0
        for inst in suite(25, max_volume=3000):
            for side in (INF, SUP):
                st = PropState(inst)
                st.mark()  # as the search does before its root resume
                if resume_node(st, consistency, list(range(len(st.domains)))):
                    break
                open_vars = [i for i, d in enumerate(st.domains) if d.lb < d.ub]
                if not open_vars:
                    break
                var = open_vars[0]
                d = st.domains[var]
                narrow(st, var, d.lb - 1, d.ub + 1)
                assert not st.queue, inst.name
                rows = (st.delta_inf, st.delta_sup)
                kept = list(rows[1 - side][var])
                if side:
                    narrow(st, var, d.lb, d.ub - 1)
                else:
                    narrow(st, var, d.lb + 1, d.ub)
                assert list(st.queue) == [var] and st.in_queue[var] == 1 << side
                assert rows[1 - side][var] == kept, inst.name
                assert not any(rows[side][var]), inst.name
                if not resume_node(st, consistency, [var]):
                    _assert_rows_exact(st, (inst.name, side))
                    checked += 1
        assert checked > 20, checked

    @pytest.mark.parametrize("consistency", ALL)
    def test_every_undo_in_search_restores_its_mark(self, consistency, monkeypatch):
        # A later mark at the same trail length overwrites the snapshot;
        # the state there must be the same if everything is trailed.
        snapshots = {}
        undos = []
        real_mark, real_undo = PropState.mark, PropState.undo_to

        def mark(st):
            m = real_mark(st)
            snapshots[m] = _trailed(st)
            return m

        def undo_to(st, m):
            real_undo(st, m)
            assert _trailed(st) == snapshots[m], (name, m)
            undos.append(m)

        monkeypatch.setattr(PropState, "mark", mark)
        monkeypatch.setattr(PropState, "undo_to", undo_to)
        for inst in suite(30, max_volume=3000):
            if consistency == "ac" and not binary_only(inst):
                continue
            name = inst.name
            for branching in BRANCHINGS:
                snapshots.clear()
                solve(inst, SearchOptions(consistency=consistency, branching=branching))
        assert len(undos) > 100

    @pytest.mark.parametrize("consistency", ("bac", "bac0"))
    def test_branch_deeper_than_the_recursion_limit(self, consistency):
        # Dichotomic branching over 2**20 values goes 20 levels deep per
        # variable, so the first dive runs far deeper than the limit.
        limit = sys.getrecursionlimit()
        n = limit // 20 + 10
        inst = Instance(
            "deep",
            ValuationStructure(5),
            [Variable(i, Domain(0, 2**20 - 1)) for i in range(n)],
            [],
        )
        result = solve(inst, SearchOptions(consistency=consistency))
        assert (result.status, result.best_cost) == ("optimal", 0)
        assert result.nodes > 20 * n > limit
        assert sys.getrecursionlimit() == limit

    def test_incumbents_strictly_decreasing(self):
        for inst in suite(15, max_volume=3000):
            result = solve(inst, SearchOptions(consistency="bac0"))
            seq = result.incumbents
            assert all(a > b for a, b in zip(seq, seq[1:])), inst.name
            if result.best_cost is not None:
                assert seq and seq[-1] == result.best_cost


class TestBackwardChecking:
    @pytest.mark.parametrize("consistency", ("bac", "nc"))
    def test_a_full_assignment_projects_its_total_cost(self, consistency):
        # Every full assignment inside the root fixpoint: once each variable
        # is narrowed to its value, backward checking has moved every
        # function's cost onto w_zero, so the resume wipes out exactly when
        # the total cost reaches k, and w_zero is that cost otherwise.
        checked = 0
        for inst in suite(30, max_volume=400):
            st = PropState(inst, mode=state_mode(consistency))
            st.mark()
            every = list(range(len(st.domains)))
            if resume_node(st, consistency, every):
                continue
            root = st.mark()
            for values in itertools.product(*[list(d.iter_values()) for d in st.domains]):
                st.undo_to(root)
                for xi, v in enumerate(values):
                    narrow(st, xi, v, v)
                empty = resume_node(st, consistency, every)
                cost = total_cost(inst, dict(enumerate(values)))
                assert empty == (cost >= st.k), (inst.name, values)
                if not empty:
                    assert st.w_zero == cost, (inst.name, values)
                checked += 1
        assert checked > 1000, checked

    @pytest.mark.parametrize("consistency", ("bac", "nc"))
    def test_a_second_check_moves_nothing_and_undo_restores(self, consistency):
        # Every variable narrowed to its lower bound, checked twice without
        # a resume between: the second check finds no fresh function.
        checked = 0
        for inst in suite(30, max_volume=400):
            st = PropState(inst, mode=state_mode(consistency))
            st.mark()
            if resume_node(st, consistency, list(range(len(st.domains)))):
                continue
            before = (list(st.assigned), st.w_zero)
            mark = st.mark()
            for xi, d in enumerate(st.domains):
                narrow(st, xi, d.lb, d.lb)
            if not backward_check(st):
                continue
            assert all(st.assigned)
            w_zero = st.w_zero
            assert not backward_check(st) and st.w_zero == w_zero, inst.name
            st.undo_to(mark)
            assert (st.assigned, st.w_zero) == before, inst.name
            checked += 1
        assert checked > 5, checked

    @pytest.mark.parametrize("consistency", ALL)
    def test_a_narrow_that_empties_a_domain_resumes_to_a_wipeout(self, consistency):
        inst = gen_random(n=4, d=5, e=5, seed=2)
        st = PropState(inst, mode=state_mode(consistency))
        st.mark()
        assert not resume_node(st, consistency, list(range(len(st.domains))))
        narrow(st, 0, 3, 2)
        assert st.domains[0].is_empty
        assert resume_node(st, consistency, [0])
        assert not st.queue


class TestBounds:
    def test_initial_ub_excludes_optimum(self, inst_linplus_sum):
        result = solve(inst_linplus_sum, SearchOptions(initial_ub=2))
        assert result.status == "infeasible"  # looks for cost strictly below 2
        result = solve(inst_linplus_sum, SearchOptions(initial_ub=3))
        assert result.best_cost == 2

    def test_node_limit(self):
        inst = suite(1, max_volume=3000)[0]
        result = solve(inst, SearchOptions(consistency="nc", node_limit=2))
        assert result.status == "limit"
        assert result.nodes <= 2

    @pytest.mark.parametrize("consistency", ALL)
    def test_time_limit_zero_stops_before_the_root(self, inst_linplus_sum, consistency):
        # The deadline has passed when the root is visited, so the check
        # between nodes stops the search before it counts one.
        result = solve(inst_linplus_sum, SearchOptions(consistency=consistency, time_limit=0))
        assert (result.status, result.nodes, result.best_cost) == ("limit", 0, None)

    def test_time_limit_holds_inside_one_fixpoint(self):
        # Each pinned minimum of the shared dense table scans all 2 000
        # partner values, every one costing 1, and no row reaches the top,
        # so the root fixpoint deletes nothing: its 2 500 queue pops, about
        # 9 s, are its only units of work. Checked only between nodes, the
        # limit would be noticed after it. The table is valid by
        # construction, so the build skips re-checking it per function.
        width = 2000
        kind = ExtTable(default=1, table={(0, w): 1 for w in range(width)})
        inst = Instance(
            "scan",
            ValuationStructure(10),
            [Variable(i, Domain(0, width - 1)) for i in range(2500)],
            [CostFunction(scope=(i, i + 1), kind=kind) for i in range(2499)],
            _prechecked=True,
        )
        t0 = time.perf_counter()
        result = solve(inst, SearchOptions(consistency="bac", time_limit=1))
        assert result.status == "limit"
        assert time.perf_counter() - t0 < 5

    def test_time_limit_holds_inside_one_walk(self):
        # The root fixpoint walks the lower bound of x1 up to the smallest
        # tolerable gap, 5 * 10**7, one value per step and without a queue
        # pop; the walk alone takes minutes.
        inst = Instance(
            "gap",
            ValuationStructure(10),
            [Variable(0, Domain(0, 10**8)), Variable(1, Domain(0, 10**8))],
            [CostFunction(scope=(0, 1), kind=Spacer(5 * 10**7, 5 * 10**7, 10**8, 10**8, 1))],
        )
        t0 = time.perf_counter()
        result = solve(inst, SearchOptions(consistency="bac", time_limit=1))
        assert result.status == "limit"
        assert time.perf_counter() - t0 < 5

    def test_time_limit_holds_inside_one_pair_projection(self):
        # The root arc pass projects the spacer onto each of 4 000 values,
        # each over 4 000 partner values, without a queue pop: about 12 s
        # when the deadline is checked per pop only.
        d = 4000
        inst = Instance(
            "wide-pair",
            ValuationStructure(10**9),
            [Variable(0, Domain(0, d - 1)), Variable(1, Domain(0, d - 1))],
            [CostFunction(scope=(0, 1), kind=Spacer(-d, d // 2, d // 2, d, 1))],
        )
        t0 = time.perf_counter()
        result = solve(inst, SearchOptions(consistency="ac", time_limit=1))
        assert result.status == "limit"
        assert time.perf_counter() - t0 < 5

    def test_time_limit_holds_inside_value_mode_set_up(self):
        # Filling the unary costs of 40 variables over 65 536 values takes
        # about 2.7 s; the deadline is fixed before it and checked inside.
        width = AC_VALUE_CAP
        inst = Instance(
            "wide-unary",
            ValuationStructure(10),
            [Variable(i, Domain(0, width - 1)) for i in range(40)],
            [
                CostFunction(scope=(i,), kind=ExtTable(0, {(i,): 1, (width - 1,): 2}))
                for i in range(40)
            ],
        )
        t0 = time.perf_counter()
        result = solve(inst, SearchOptions(consistency="nc", time_limit=0.5))
        assert (result.status, result.nodes) == ("limit", 0)
        assert time.perf_counter() - t0 < 2


class TestOptionValidation:
    def test_bad_names_rejected(self, inst_linplus_sum):
        with pytest.raises(ContractError):
            solve(inst_linplus_sum, SearchOptions(consistency="edac"))
        with pytest.raises(ContractError):
            solve(inst_linplus_sum, SearchOptions(branching="value"))
        with pytest.raises(ContractError):
            solve(inst_linplus_sum, SearchOptions(var_order="dom/deg"))

    def test_limits_must_be_numbers_at_least_zero(self, inst_linplus_sum):
        for opts in (
            SearchOptions(time_limit=float("nan")),
            SearchOptions(time_limit=-1.0),
            SearchOptions(node_limit=-3),
        ):
            with pytest.raises(ContractError):
                solve(inst_linplus_sum, opts)
        result = solve(inst_linplus_sum, SearchOptions(time_limit=float("inf")))
        assert (result.status, result.best_cost) == ("optimal", 2)

    def test_initial_ub_must_be_at_least_one(self, inst_linplus_sum):
        with pytest.raises(ContractError):
            solve(inst_linplus_sum, SearchOptions(initial_ub=0))

    def test_enumerate_needs_narrow_domains(self):
        inst = Instance(
            "wide",
            ValuationStructure(4),
            [Variable(0, Domain(0, 10**6)), Variable(1, Domain(0, 10**6))],
            [CostFunction(scope=(0, 1), kind=ExtTable(default=0, table={}))],
        )
        with pytest.raises(CapError):
            solve(inst, SearchOptions(branching="enumerate"))

    def test_ac_needs_binary(self):
        inst = Instance(
            "tern",
            ValuationStructure(4),
            [Variable(i, Domain(0, 1)) for i in range(3)],
            [CostFunction(scope=(0, 1, 2), kind=ExtTable(default=0, table={}))],
        )
        with pytest.raises(ContractError):
            solve(inst, SearchOptions(consistency="ac"))


class TestDeterminism:
    def test_repeat_runs_identical(self):
        inst = suite(5, max_volume=3000)[3]
        a = solve(inst, SearchOptions(consistency="bac0"))
        b = solve(inst, SearchOptions(consistency="bac0"))
        assert (a.status, a.best_cost, a.best_assignment, a.nodes, a.backtracks) == (
            b.status,
            b.best_cost,
            b.best_assignment,
            b.nodes,
            b.backtracks,
        )
