import random

import pytest

from softbounds.core import CapError, ContractError, Domain, ValuationStructure, Variable
from softbounds.costfn import CostFunction, ExtTable
from softbounds.network import Instance, total_cost
from softbounds.oracle import brute_optimum
from softbounds.propagation import PropState, narrow, resume_bounds, resume_values
from softbounds.search import SearchOptions, solve

from helpers import binary_only, suite

ALL = ("nc", "ac", "bac", "bac0")


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
        for inst in suite(20, max_volume=3000):
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


class TestPruningStrength:
    def test_joint_filtering_never_explores_more(self):
        for inst in suite(20, max_volume=3000):
            weak = solve(inst, SearchOptions(consistency="nc"))
            strong = solve(inst, SearchOptions(consistency="bac0"))
            assert strong.backtracks <= weak.backtracks, inst.name


def _resume(st, consistency, touched):
    if consistency in ("bac", "bac0"):
        return resume_bounds(st, project=consistency == "bac0", touched=touched)
    return resume_values(st, arc=consistency == "ac", touched=touched)


def _trailed(st):
    """A copy of every container the trail restores."""
    return (
        [(d.lb, d.ub, None if d.removed is None else sorted(d.removed)) for d in st.domains],
        st.w_zero,
        [ov.delta_shift for ov in st.overlays],
        list(st.w_inf),
        list(st.w_sup),
        [list(row) for row in st.delta_inf],
        [list(row) for row in st.delta_sup],
        None if st.unary is None else [list(arr) for arr in st.unary],
        None if st.pair_proj is None
        else {fi: (list(a), list(b)) for fi, (a, b) in st.pair_proj.items()},
    )


class TestStateRestoration:
    def test_post_search_fingerprint(self):
        for inst in suite(10, max_volume=2000):
            st = PropState(inst, record_trail=True)
            before = st.fingerprint()
            mark = st.mark()
            # Run a search on a separate state, then replay narrowing and
            # undo on this one to exercise the trail machinery directly.
            solve(inst, SearchOptions(consistency="bac0"))
            from softbounds.propagation import enforce_bac_zero

            enforce_bac_zero(st)
            st.undo_to(mark)
            assert st.fingerprint() == before, inst.name

    @pytest.mark.parametrize("consistency", ALL)
    def test_undo_restores_every_trailed_container(self, consistency):
        # Mirror a search: resume at the root, then nested narrow + resume
        # steps, each under its own mark; undo them innermost first.
        rng = random.Random(consistency)
        mode = "values" if consistency in ("nc", "ac") else "interval"
        checked = 0
        for inst in suite(25, max_volume=3000):
            if consistency == "ac" and not binary_only(inst):
                continue
            st = PropState(inst, mode=mode, record_trail=True)
            stack = [(st.mark(), _trailed(st))]
            empty = _resume(st, consistency, list(range(len(st.domains))))
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
                empty = st.domains[var].is_empty or _resume(st, consistency, [var])
            checked += len(stack)
            while stack:
                mark, want = stack.pop()
                st.undo_to(mark)
                assert _trailed(st) == want, (inst.name, consistency, len(stack))
        assert checked > 20

    def test_incumbents_strictly_decreasing(self):
        for inst in suite(15, max_volume=3000):
            result = solve(inst, SearchOptions(consistency="bac0"))
            seq = result.incumbents
            assert all(a > b for a, b in zip(seq, seq[1:])), inst.name
            if result.best_cost is not None:
                assert seq and seq[-1] == result.best_cost


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


class TestOptionValidation:
    def test_bad_names_rejected(self, inst_linplus_sum):
        with pytest.raises(ContractError):
            solve(inst_linplus_sum, SearchOptions(consistency="edac"))
        with pytest.raises(ContractError):
            solve(inst_linplus_sum, SearchOptions(branching="value"))
        with pytest.raises(ContractError):
            solve(inst_linplus_sum, SearchOptions(var_order="dom/deg"))

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
