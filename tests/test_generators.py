import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from softbounds.core import ContractError, Domain, ValuationStructure, Variable
from softbounds.costfn import CostFunction, ExtTable, KeyPool, Spacer
from softbounds.fileformat import emit
from softbounds.generators import gen_random, gen_satellite, gen_spacerchain
from softbounds.network import Instance
from softbounds.oracle import brute_optimum
from softbounds.propagation import PropState, enforce_bac_zero

from helpers import repeated_keys


class TestRandom:
    def test_deterministic_per_seed(self):
        assert emit(gen_random(5, 9, 7, seed=1)) == emit(gen_random(5, 9, 7, seed=1))
        assert emit(gen_random(5, 9, 7, seed=1)) != emit(gen_random(5, 9, 7, seed=2))

    def test_shape(self):
        inst = gen_random(n=6, d=4, e=9, seed=5)
        assert len(inst.variables) == 6
        assert len(inst.functions) == 9
        assert all(fn.arity == 2 for fn in inst.functions)
        assert all(v.domain.size() == 4 for v in inst.variables)

    def test_costs_within_scale(self):
        inst = gen_random(n=4, d=5, e=6, max_cost=99, k=7, seed=3)
        for fn in inst.functions:
            assert all(0 < c <= 7 for c in fn.kind.table.values())

    def test_tables_share_equal_keys(self):
        repeats, shared = repeated_keys(gen_random(n=6, d=6, e=10, seed=1))
        assert repeats > 0 and shared == repeats

    def test_bad_params(self):
        with pytest.raises(ContractError):
            gen_random(n=1, d=3, e=1)
        with pytest.raises(ContractError):
            gen_random(n=3, d=3, e=1, tightness=1.5)


def _gen_random_per_cell(n, d, e, tightness=0.4, max_cost=4, k=10, seed=0):
    """`gen_random` as it was written with one Python iteration per table
    cell, drawing each cost with `randint` and pooling keys per table."""
    rng = random.Random(seed)
    variables = [Variable(i, Domain(0, d - 1)) for i in range(n)]
    functions = []
    pool = KeyPool()
    for _ in range(e):
        i, j = rng.sample(range(n), 2)
        if i > j:
            i, j = j, i
        table = {}
        for vi in range(d):
            for vj in range(d):
                if rng.random() < tightness:
                    table[(vi, vj)] = min(k, rng.randint(1, max_cost))
        table = pool.share(table)
        functions.append(CostFunction(scope=(i, j), kind=ExtTable(default=0, table=table)))
    return Instance(
        name=f"random-n{n}-d{d}-e{e}-s{seed}",
        valuation=ValuationStructure(k),
        variables=variables,
        functions=functions,
        w_zero=0,
    )


class TestRandomAgainstPerCellLoop:
    @given(
        n=st.integers(2, 6),
        d=st.integers(1, 6),
        e=st.integers(0, 5),
        tightness=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        max_cost=st.one_of(st.integers(1, 15), st.just(2**64)),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32),
    )
    @example(n=2, d=1, e=3, tightness=1.0, max_cost=1, k=1, seed=0)
    @example(n=2, d=3, e=0, tightness=0.4, max_cost=4, k=10, seed=1)
    @example(n=3, d=4, e=4, tightness=0.0, max_cost=4, k=10, seed=2)
    @example(n=4, d=5, e=6, tightness=1.0, max_cost=99, k=7, seed=3)
    @example(n=5, d=6, e=5, tightness=0.5, max_cost=2**64, k=7, seed=4)
    @example(n=3, d=6, e=5, tightness=0.9, max_cost=8, k=7, seed=5)
    def test_same_text_and_shared_keys(self, n, d, e, tightness, max_cost, k, seed):
        args = (n, d, e, tightness, max_cost, k, seed)
        inst = gen_random(*args)
        assert emit(inst) == emit(_gen_random_per_cell(*args))
        repeats, shared = repeated_keys(inst)
        assert shared == repeats

    def test_no_key_grid_without_tables(self):
        # d = 500 first: a grid built anyway fails there, at about 19 MB,
        # instead of filling memory at d = 10**6.
        for d in (500, 10**6):
            tracemalloc.start()
            try:
                inst = gen_random(n=2, d=d, e=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not inst.functions
            assert peak < 2**20, (d, peak)


class TestSatellite:
    def test_merged_weights_scale_with_pool_size(self):
        for N in (4, 6):
            inst = gen_satellite(N=N, seed=2)
            k = inst.valuation.k
            for fn in inst.functions:
                for cost in fn.kind.table.values():
                    if cost < k:
                        assert cost % (N - 1) == 0, (N, cost)

    def test_reject_value_extends_window(self):
        inst = gen_satellite(N=5, seed=7)
        assert len(inst.functions) == 5 * 4 // 2
        for i, var in enumerate(inst.variables):
            reject = var.domain.ub
            # Rejecting every photo is always a (costly) solution.
            t = {v.id: v.domain.ub for v in inst.variables}
            from softbounds.network import total_cost

            assert total_cost(inst, t) < inst.valuation.k

    def test_hard_pairs_use_top(self):
        inst = gen_satellite(N=4, seed=1)
        k = inst.valuation.k
        assert any(c == k for fn in inst.functions for c in fn.kind.table.values())

    def test_tables_share_equal_keys(self):
        repeats, shared = repeated_keys(gen_satellite(N=6, seed=1))
        assert repeats > 0 and shared == repeats

    def test_solvable(self):
        inst = gen_satellite(N=4, seed=9)
        opt = brute_optimum(inst)
        assert opt.feasible


class TestSpacerChain:
    def test_shape(self):
        inst = gen_spacerchain(m=6, L=2000, seed=3)
        spacers = [fn for fn in inst.functions if isinstance(fn.kind, Spacer)]
        unaries = [fn for fn in inst.functions if isinstance(fn.kind, ExtTable)]
        assert len(spacers) == 5
        assert all(fn.arity == 1 for fn in unaries)
        assert all(v.domain.lb == 0 and v.domain.ub == 2000 for v in inst.variables)

    def test_unary_tables_sparse(self):
        inst = gen_spacerchain(m=9, L=10**6, seed=3)
        for fn in inst.functions:
            if isinstance(fn.kind, ExtTable):
                assert len(fn.kind.table) <= 6

    def test_propagates_whole_chain(self):
        inst = gen_spacerchain(m=8, L=5000, seed=6)
        rep = enforce_bac_zero(PropState(inst))
        assert not rep.empty

    def test_deterministic(self):
        assert emit(gen_spacerchain(4, 100, seed=2)) == emit(gen_spacerchain(4, 100, seed=2))


@pytest.mark.parametrize(
    "gen,params,message",
    [
        (gen_random, dict(n=3, d=3, e=1, max_cost=0), "max_cost and k"),
        (gen_random, dict(n=3, d=3, e=1, k=0), "max_cost and k"),
        (gen_satellite, dict(N=1), "N >= 2"),
        (gen_satellite, dict(N=3, horizon=3), "horizon >= 4"),
        (gen_spacerchain, dict(m=1, L=10), "m >= 2"),
        (gen_spacerchain, dict(m=2, L=9), "L >= 10"),
        (gen_spacerchain, dict(m=2, L=10, k=1), "k >= 2"),
    ],
)
def test_out_of_range_params_are_refused(gen, params, message):
    with pytest.raises(ContractError, match=message):
        gen(**params)


class TestPrechecked:
    """The generators build their instances without re-running `Instance`'s
    checks; these tests make those checks on what they build."""

    GRIDS = [
        (gen_random, dict(n=n, d=d, e=e, tightness=t, max_cost=c, k=k))
        for n, d, e in ((2, 1, 0), (2, 1, 3), (6, 6, 10), (9, 4, 20))
        for t, c, k in ((0.0, 1, 1), (0.4, 4, 10), (0.8, 3, 10), (1.0, 99, 7))
    ] + [
        (gen_satellite, dict(N=N, horizon=h)) for N in (2, 3, 6, 9) for h in (4, 12, 30)
    ] + [
        (gen_spacerchain, dict(m=m, L=L, k=k))
        for m in (2, 7, 30) for L in (10, 999, 10**6) for k in (2, 24)
    ]

    @pytest.mark.parametrize("gen,params", GRIDS)
    def test_output_passes_full_validation(self, gen, params):
        for seed in range(4):
            inst = gen(**params, seed=seed)
            Instance(inst.name, inst.valuation, inst.variables, inst.functions, inst.w_zero)

    # sha256 of the emitted text of the benchmark's generated instances at
    # workload seed 1 (perfbench/workloads.py), recorded before the
    # generators stopped validating: a generator change that alters any of
    # them fails here.
    BENCHMARK_SETS = {
        "small-search random": (
            lambda: [gen_random(n=6, d=6, e=10, tightness=0.8, max_cost=3, seed=s)
                     for s in range(1, 401)],
            "fa348a449216ed5235d76f7bb6e6145e9fcba25412d00c4bbfbd27d123d4f14a",
        ),
        "small-search satellite": (
            lambda: [gen_satellite(N=6, seed=s) for s in range(1, 9)],
            "f38769cb030ff8f91d938c0048f657fdf20e4b49c8e1b53b76ca4772b38d6648",
        ),
        "wide-prop chains": (
            lambda: [gen_spacerchain(m=m, L=10**6, seed=1 + j)
                     for j, m in enumerate((30, 60, 36, 54, 42, 48))],
            "e44698b18f144bca8f44344d3fbfc972dc407fb1dbe8833602f2f05e109bdba6",
        ),
        "cli random": (
            lambda: [gen_random(n=40, d=60, e=120, seed=1)],
            "f2117318a541595431e8cf05130d6d77cc5bb1136dcd98dbbcabbb1b6af2271c",
        ),
        "cli satellite": (
            lambda: [gen_satellite(N=6, seed=3)],
            "232e8bd074b8cb21095ede559de1b4652408aeddf7cdca30b275448a6b7d1dbe",
        ),
        "cli chain": (
            lambda: [gen_spacerchain(m=30, L=10**6, seed=4)],
            "45e0c63a5e2d39ee0e87337b5112d72a409e863395beffa1db3864d77d489f4a",
        ),
    }

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SETS))
    def test_benchmark_instances_are_pinned(self, name):
        build, want = self.BENCHMARK_SETS[name]
        h = hashlib.sha256()
        for inst in build():
            h.update(emit(inst).encode())
        assert h.hexdigest() == want
