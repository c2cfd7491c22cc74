"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with `pytest -s tests/test_acceptance.py -v` to see the verdicts.
Tolerances are exact (integer equality) unless a wall-clock budget is
stated, and those budgets are asserted here as well.
"""

import json
import random
import time

import pytest

from softbounds.cli import main
from softbounds.core import CapError
from softbounds.costfn import FunctionOverlay, min_over_box
from softbounds.fileformat import emit, parse_text
from softbounds.generators import gen_random, gen_satellite, gen_spacerchain
from softbounds.oracle import (
    brute_min_over_box,
    brute_optimum,
    naive_bac_fixpoint,
    naive_bac_zero_fixpoint,
)
from softbounds.propagation import (
    PropState,
    enforce_ac_star,
    enforce_bac,
    enforce_bac_zero,
)
from softbounds.reify import compare_strength, enforce_crisp_bc, reify
from softbounds.search import SearchOptions, solve

from helpers import binary_only, hard_instance, preservation_ok, suite
from test_costfn import _random_case


def _verdict(number, name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS", flush=True)


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _intervals(report):
    return [None if d.is_empty else (d.lb, d.ub) for d in report.domains]


SCHEDULES = 20
SUITE = suite(50)


def test_criterion_01_projection_beats_plain_bound_filtering(inst_linplus_sum):
    def body():
        plain = enforce_bac(PropState(inst_linplus_sum))
        assert plain.w_zero == 0 and plain.deletions == 0 and not plain.empty
        joint = enforce_bac_zero(PropState(inst_linplus_sum))
        assert joint.w_zero == 2
        assert _intervals(joint) == [(1, 10), (1, 10)]
        took = _best_of(3, lambda: enforce_bac_zero(PropState(inst_linplus_sum)))
        assert took < 0.010, f"{took * 1000:.2f} ms"

    _verdict(1, "interval engines on the additive example", body)


def test_criterion_02_wipeout_vs_reified_filtering(inst_pair_tables, tmp_path, capsys):
    def body():
        path = tmp_path / "pair.wcsp"
        path.write_text(emit(inst_pair_tables))
        assert main(["propagate", str(path), "--consistency", "bac", "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["empty"] is True
        assert main(["reify", str(path), "--compare", "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["bac0_empty"] is True and rep["reified_bc_empty"] is False
        took = _best_of(3, lambda: enforce_bac(PropState(inst_pair_tables)))
        took += _best_of(3, lambda: enforce_crisp_bc(reify(inst_pair_tables)))
        assert took < 0.010, f"{took * 1000:.2f} ms"

    _verdict(2, "bound filtering strictly beats the reified baseline", body)


def test_criterion_03_per_value_cascade(inst_cascade):
    def body():
        st = PropState(inst_cascade, mode="values")
        rep = enforce_ac_star(st)
        assert not rep.empty
        assert rep.w_zero == 2
        assert _intervals(rep) == [(1, 1), (0, 0)]

    _verdict(3, "per-value enforcement reaches the exact fixpoint", body)


def test_criterion_04_confluence_across_schedules():
    def body():
        t0 = time.perf_counter()
        for inst in SUITE:
            base_plain = None
            base_joint = None
            for schedule in range(SCHEDULES):
                rng = random.Random(schedule * 7717 + 11) if schedule else None
                rep = enforce_bac(PropState(inst, pop_rng=rng))
                key = (rep.empty, _intervals(rep))
                base_plain = base_plain or key
                assert key == base_plain, (inst.name, schedule)
                rng = random.Random(schedule * 7717 + 11) if schedule else None
                st = PropState(inst, pop_rng=rng)
                rep = enforce_bac_zero(st)
                key = (
                    rep.empty,
                    _intervals(rep),
                    rep.w_zero,
                    tuple(ov.delta_shift for ov in st.overlays),
                )
                base_joint = base_joint or key
                assert key == base_joint, (inst.name, schedule)
        took = time.perf_counter() - t0
        assert took < 30.0, f"{took:.1f} s"

    _verdict(4, f"fixpoints identical across {SCHEDULES} schedules x 50 instances", body)


def test_criterion_05_oracle_equivalence():
    def body():
        for inst in SUITE:
            rep = enforce_bac(PropState(inst))
            naive = naive_bac_fixpoint(inst)
            assert _intervals(rep) == [
                None if lo > hi else (lo, hi) for lo, hi in naive
            ], inst.name

            st = PropState(inst)
            rep = enforce_bac_zero(st)
            doms, w0, shifts = naive_bac_zero_fixpoint(inst)
            assert _intervals(rep) == [None if lo > hi else (lo, hi) for lo, hi in doms]
            assert rep.w_zero == w0 and [ov.delta_shift for ov in st.overlays] == shifts

            opt = brute_optimum(inst)
            want = opt.cost if opt.feasible else None
            for consistency in ("nc", "ac", "bac", "bac0"):
                if consistency == "ac" and not binary_only(inst):
                    continue
                result = solve(inst, SearchOptions(consistency=consistency))
                assert result.best_cost == want, (inst.name, consistency)

            st = PropState(inst)
            enforce_bac_zero(st)
            assert preservation_ok(
                inst, st.domains, [ov.delta_shift for ov in st.overlays], st.w_zero
            ), inst.name
            st = PropState(inst)
            enforce_bac(st)
            assert preservation_ok(inst, st.domains), inst.name

    _verdict(5, "engines agree with brute-force oracles on 50 instances", body)


def test_criterion_06_strength_ordering(inst_pair_tables):
    def body():
        for inst in SUITE:
            plain = enforce_bac(PropState(inst))
            joint = enforce_bac_zero(PropState(inst))
            for dj, dp in zip(joint.domains, plain.domains):
                if not dj.is_empty:
                    assert dp.lb <= dj.lb and dj.ub <= dp.ub, inst.name
            if binary_only(inst):
                report = compare_strength(inst)
                if report.reified_bc_empty:
                    assert report.bac0_empty, inst.name
        witness = compare_strength(inst_pair_tables)
        assert witness.bac0_empty and not witness.reified_bc_empty

    _verdict(6, "joint filtering dominates, strictly on the witness", body)


def test_criterion_07_minimizer_caps():
    def body():
        plan = {
            "monoleq": lambda box, fn: 4,
            "linplus": lambda box, fn: 4,
            "spacer": lambda box, fn: 4,
            "funceq": lambda box, fn: (box[0][1] - box[0][0] + 1) + 1,
            "antifuncneq": lambda box, fn: 2 * (box[0][1] - box[0][0] + 1),
            "ext2": lambda box, fn: (box[0][1] - box[0][0] + 1)
            * (box[1][1] - box[1][0] + 1),
            "semiconvex": None,
        }
        for kind_name, cap_fn in plan.items():
            for case in range(1000):
                fn, box, val, shift = _random_case(kind_name, case * 31 + 17)
                ov = FunctionOverlay(delta_shift=shift)
                got = min_over_box(fn, box, val, ov)
                assert got == brute_min_over_box(fn, box, val, shift), (kind_name, case)
                if kind_name == "semiconvex":
                    wrt = fn.kind.semiconvex[0]
                    partner = fn.scope[0] if wrt == fn.scope[1] else fn.scope[1]
                    cap = 2 * (box[partner][1] - box[partner][0] + 1)
                else:
                    cap = cap_fn(box, fn)
                assert ov.eval_count <= cap, (kind_name, case, ov.eval_count, cap)

    _verdict(7, "box minima exact within per-kind lookup caps (1000 each)", body)


def test_criterion_08_crisp_degeneration():
    def body():
        for seed in range(20):
            inst = hard_instance(seed)
            rep = enforce_bac(PropState(inst))
            crisp = enforce_crisp_bc(reify(inst))
            assert rep.empty == crisp.empty, inst.name
            if not rep.empty:
                mirrors = crisp.bounds[: len(inst.variables)]
                assert [(d.lb, d.ub) for d in rep.domains] == mirrors, inst.name

    _verdict(8, "top-1 bound filtering equals crisp filtering (20 instances)", body)


def test_criterion_09_large_domains():
    def body():
        small = gen_spacerchain(m=10, L=1000, seed=42)
        big = gen_spacerchain(m=10, L=1000000, seed=42)
        big = parse_text(emit(big))  # through the text format, as the CLI would
        st_small = PropState(small)
        st_big = PropState(big)
        assert st_small.allocation_cells() == st_big.allocation_cells()
        t0 = time.perf_counter()
        rep = enforce_bac_zero(st_big)
        took = time.perf_counter() - t0
        assert took < 1.0, f"{took:.2f} s"
        assert st_big.allocation_cells() == st_small.allocation_cells()
        assert st_big.unary is None and st_big.pair_proj is None
        assert all(d.removed is None for d in st_big.domains)
        assert not rep.empty
        with pytest.raises(CapError):
            PropState(big, mode="values")

    _verdict(9, "million-value chain propagates in bounded state", body)


def test_criterion_10_determinism(tmp_path, capsys):
    def body():
        random_file = tmp_path / "r.wcsp"
        main(["gen", "random", "--n", "5", "--d", "7", "--e", "7", "--seed", "13"])
        text_a = capsys.readouterr().out
        main(["gen", "random", "--n", "5", "--d", "7", "--e", "7", "--seed", "13"])
        text_b = capsys.readouterr().out
        assert text_a == text_b
        random_file.write_text(text_a)

        sat_file = tmp_path / "s.wcsp"
        main(["gen", "satellite", "--N", "5", "--seed", "3", "--out", str(sat_file)])
        capsys.readouterr()

        commands = [
            ["propagate", str(random_file), "--consistency", "bac0", "--json"],
            ["propagate", str(random_file), "--consistency", "nc"],
            ["propagate", str(sat_file), "--consistency", "bac0", "--json"],
            ["solve", str(random_file), "--json"],
            ["verify", str(random_file), "--json"],
            ["reify", str(random_file), "--compare", "--json"],
        ]
        for argv in commands:
            code_a = main(argv)
            out_a = capsys.readouterr().out
            code_b = main(argv)
            out_b = capsys.readouterr().out
            assert code_a == code_b and out_a == out_b, argv

    _verdict(10, "repeated runs are byte-identical", body)
