import functools
import importlib
import inspect
import json
import subprocess
import sys

import pytest

from softbounds import oracle
from softbounds.cli import build_parser, main
from softbounds.core import CapError, Domain, ValuationStructure, Variable
from softbounds.fileformat import emit
from softbounds.generators import GENERATORS, gen_random, gen_spacerchain
from softbounds.network import Instance
from softbounds.oracle import OracleBudget, brute_optimum


@pytest.fixture
def sum_file(tmp_path, inst_linplus_sum):
    path = tmp_path / "sum.wcsp"
    path.write_text(emit(inst_linplus_sum))
    return str(path)


@pytest.fixture
def pair_file(tmp_path, inst_pair_tables):
    path = tmp_path / "pair.wcsp"
    path.write_text(emit(inst_pair_tables))
    return str(path)


@pytest.fixture
def cascade_file(tmp_path, inst_cascade):
    path = tmp_path / "cascade.wcsp"
    path.write_text(emit(inst_cascade))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPropagate:
    def test_joint_on_sum_instance(self, capsys, sum_file):
        code, rep = run_json(capsys, ["propagate", sum_file, "--consistency", "bac0", "--json"])
        assert code == 0
        assert rep["w0_final"] == 2
        assert rep["domains"] == [[1, 10], [1, 10]]
        assert rep["empty"] is False

    def test_plain_on_sum_instance_is_idle(self, capsys, sum_file):
        code, rep = run_json(capsys, ["propagate", sum_file, "--consistency", "bac", "--json"])
        assert code == 0
        assert rep["w0_final"] == 0 and rep["deletions"] == 0

    def test_wipeout_exit_code(self, capsys, pair_file):
        code, rep = run_json(capsys, ["propagate", pair_file, "--consistency", "bac", "--json"])
        assert code == 1
        assert rep["empty"] is True
        assert rep["domains"] == [None, None, None]

    @pytest.mark.parametrize("consistency", ["bac", "bac0", "nc", "ac"])
    @pytest.mark.parametrize("variables", [["var 0 0 3"], []])
    def test_constant_term_at_top_is_a_wipeout(self, capsys, tmp_path, consistency, variables):
        # No function touches a variable, so no prune ever tests one.
        path = tmp_path / "top.wcsp"
        path.write_text("\n".join(["wcsp top", "k 5", "w0 5", *variables, ""]))
        argv = ["propagate", str(path), "--consistency", consistency, "--json"]
        code, rep = run_json(capsys, argv)
        assert code == 1
        assert rep["empty"] is True and rep["domains"] == [None] * len(variables)
        code, rep = run_json(capsys, ["verify", str(path), "--json"])
        assert code == 1
        assert rep["bac_agree"] and rep["bac0_agree"] and rep["solve_agree"]

    def test_per_value_mode(self, capsys, cascade_file):
        code, rep = run_json(capsys, ["propagate", cascade_file, "--consistency", "ac", "--json"])
        assert code == 0
        assert rep["w0_final"] == 2
        assert rep["domains"] == [[1, 1], [0, 0]]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.wcsp"
        bad.write_text("wcsp x\nk 5\nvar 0 2 1\n")
        assert main(["propagate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.wcsp"
        assert main(["propagate", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "missing.wcsp" in captured.err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "latin.wcsp"
        bad.write_bytes(b"wcsp x\nk 5\r\nvar 0 0 1 # caf\xe9\n")
        assert main(["propagate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 3: byte 0xe9 is not valid UTF-8")

    def test_value_mode_cap_exit_3(self, capsys, tmp_path):
        path = tmp_path / "wide.wcsp"
        path.write_text(emit(gen_spacerchain(m=3, L=10**6, seed=1)))
        assert main(["propagate", str(path), "--consistency", "ac"]) == 3
        assert "refused" in capsys.readouterr().err

    def test_trace_goes_to_stderr(self, capsys, pair_file):
        code = main(["propagate", pair_file, "--consistency", "bac", "--trace", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        events = [json.loads(line) for line in captured.err.splitlines()]
        assert any(e["event"] == "delete" for e in events)

    @pytest.mark.parametrize("consistency", ["bac", "bac0"])
    def test_trace_amounts_add_up_to_the_deletions(self, capsys, tmp_path, consistency):
        # A walking bound is one delete event whose amount is its width.
        path = tmp_path / "chain.wcsp"
        path.write_text(emit(gen_spacerchain(m=6, L=1000, seed=4)))
        main(["propagate", str(path), "--consistency", consistency, "--trace", "--json"])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        deletes = [e for e in map(json.loads, captured.err.splitlines()) if e["event"] == "delete"]
        assert rep["deletions"] > len(deletes) > 0
        assert sum(e["amount"] for e in deletes) == rep["deletions"]

    def test_human_format(self, capsys, sum_file):
        code = main(["propagate", sum_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "w0_final: 2" in out


class TestSolve:
    def test_sum_instance(self, capsys, sum_file):
        code, rep = run_json(capsys, ["solve", sum_file, "--json"])
        assert code == 0
        assert rep["status"] == "optimal"
        assert rep["optimum"] == 2
        assert rep["witness"] == [1, 1]

    def test_infeasible(self, capsys, pair_file):
        code, rep = run_json(capsys, ["solve", pair_file, "--json"])
        assert code == 1
        assert rep["empty"] is True and "optimum" not in rep

    def test_ub_flag(self, capsys, sum_file):
        code, rep = run_json(capsys, ["solve", sum_file, "--ub", "2", "--json"])
        assert code == 1

    def test_node_limit_reports_limit(self, capsys, sum_file):
        code, rep = run_json(
            capsys, ["solve", sum_file, "--consistency", "nc", "--node-limit", "1", "--json"]
        )
        assert rep["status"] == "limit"
        # No incumbent and no proof either way: not "empty", and its own code.
        assert code == 4
        assert rep["empty"] is False and "optimum" not in rep

    def test_node_limit_with_incumbent_exits_0(self, capsys, sum_file):
        code, rep = run_json(
            capsys, ["solve", sum_file, "--consistency", "nc", "--node-limit", "10", "--json"]
        )
        assert rep["status"] == "limit" and rep["optimum"] == 2
        assert code == 0 and rep["empty"] is False

    @pytest.mark.parametrize(
        "flags", (["--time-limit", "nan"], ["--time-limit", "-1"], ["--node-limit", "-3"])
    )
    def test_bad_limit_exit_2(self, capsys, sum_file, flags):
        assert main(["solve", sum_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "limit" in captured.err


class TestTiming:
    @pytest.mark.parametrize("command", ["propagate", "solve"])
    def test_timing_adds_wall_ms_alone(self, capsys, sum_file, command):
        _, plain = run_json(capsys, [command, sum_file, "--json"])
        code, timed = run_json(capsys, [command, sum_file, "--json", "--timing"])
        wall_ms = timed.pop("wall_ms")
        assert type(wall_ms) is int and wall_ms >= 0
        assert code == 0 and timed == plain


class TestGen:
    def test_emits_parseable_text(self, capsys):
        assert main(["gen", "random", "--n", "4", "--d", "5", "--e", "4", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        from softbounds.fileformat import parse_text

        inst = parse_text(text)
        assert len(inst.variables) == 4

    def test_deterministic(self, capsys):
        main(["gen", "satellite", "--N", "4", "--seed", "5"])
        first = capsys.readouterr().out
        main(["gen", "satellite", "--N", "4", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    # A value for each parameter that has no default in the library.
    REQUIRED = {"random": {"n": 4, "d": 5, "e": 3}, "satellite": {"N": 4}, "spacerchain": {"m": 3, "L": 100}}

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_unset_flags_take_the_generator_defaults(self, capsys, kind):
        gen, required = GENERATORS[kind], self.REQUIRED[kind]
        params = inspect.signature(gen).parameters.values()
        assert set(required) == {p.name for p in params if p.default is p.empty}
        flags = [tok for name, value in required.items() for tok in (f"--{name}", str(value))]
        assert main(["gen", kind, *flags]) == 0
        assert capsys.readouterr().out == emit(gen(**required))

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "g.wcsp"
        assert main(["gen", "spacerchain", "--m", "4", "--L", "200", "--out", str(target)]) == 0
        assert target.exists()


class TestVerify:
    def test_sum_instance_agrees(self, capsys, sum_file):
        code, rep = run_json(capsys, ["verify", sum_file, "--json"])
        assert code == 0
        assert rep["optimum"] == 2
        assert rep["bac_agree"] and rep["bac0_agree"] and rep["solve_agree"]

    def test_infeasible_instance(self, capsys, pair_file):
        code, rep = run_json(capsys, ["verify", pair_file, "--json"])
        assert code == 1
        assert rep["optimum"] is None
        assert rep["bac_agree"] and rep["bac0_agree"] and rep["solve_agree"]

    def test_budget_defaults_to_the_oracle_budget(self, capsys, monkeypatch, tmp_path):
        # The parser leaves --budget unset, and verify then refuses and
        # accepts exactly where `OracleBudget()` does.
        assert build_parser().parse_args(["verify", "x.wcsp"]).budget is None
        path = tmp_path / "line.wcsp"

        def line(width):
            return Instance("line", ValuationStructure(9), [Variable(0, Domain(1, width))], [])

        def verify(width):
            path.write_text(emit(line(width)))
            code = main(["verify", str(path)])
            return code, capsys.readouterr().err

        # Just past the library's default, which is too large to accept here.
        default = OracleBudget().max_tuples
        with pytest.raises(CapError) as refused:
            brute_optimum(line(default + 1), OracleBudget())
        assert verify(default + 1) == (3, f"refused: {refused.value}\n")
        # On both sides of a smaller library default.
        monkeypatch.setattr(oracle, "OracleBudget", functools.partial(OracleBudget, max_tuples=5))
        assert verify(5) == (0, "")
        assert verify(6) == (3, "refused: optimum enumeration needs more than 5 tuples; refusing\n")

    def test_budget_refusal(self, capsys, tmp_path):
        path = tmp_path / "wide.wcsp"
        path.write_text(emit(gen_spacerchain(m=3, L=10**5, seed=1)))
        assert main(["verify", str(path), "--budget", "1000"]) == 3

    def test_negative_budget_is_bad_input_and_zero_refuses(self, capsys, sum_file):
        assert main(["verify", sum_file, "--budget=-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: budget must be at least 0 tuples, got -1\n"
        assert main(["verify", sum_file, "--budget", "0"]) == 3
        assert capsys.readouterr().err.startswith("refused: ")


class TestReify:
    def test_compare_on_pair_tables(self, capsys, pair_file):
        code, rep = run_json(capsys, ["reify", pair_file, "--compare", "--json"])
        assert code == 1
        assert rep["bac0_empty"] is True
        assert rep["reified_bc_empty"] is False

    def test_compare_reifies_and_filters_once(self, capsys, monkeypatch, pair_file):
        from softbounds import cli

        # The package exports the function `reify` under the module's name.
        reify = importlib.import_module("softbounds.reify")
        calls = {"reify": 0, "enforce_crisp_bc": 0}
        for name in calls:
            original = getattr(reify, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in (cli, reify):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        assert main(["reify", pair_file, "--compare"]) == 1
        capsys.readouterr()
        assert calls == {"reify": 1, "enforce_crisp_bc": 1}

    def test_dump_shape(self, capsys, pair_file):
        code, rep = run_json(capsys, ["reify", pair_file, "--json"])
        assert code == 0
        assert rep["mirrored"] == 3 and rep["cost_vars"] == 2

    def test_infinite_top_refused(self, capsys, tmp_path):
        path = tmp_path / "inf.wcsp"
        path.write_text("wcsp t\nk inf\nvar 0 0 3\n")
        assert main(["reify", str(path)]) == 2


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, tmp_path):
        inst_file = tmp_path / "d.wcsp"
        inst_file.write_text(emit(gen_random(n=4, d=6, e=6, seed=8)))
        for argv in (
            ["propagate", str(inst_file), "--consistency", "bac0", "--json"],
            ["propagate", str(inst_file), "--consistency", "bac"],
            ["solve", str(inst_file), "--json"],
            ["verify", str(inst_file), "--json"],
            ["reify", str(inst_file), "--compare", "--json"],
        ):
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            second = capsys.readouterr().out
            assert first == second, argv

    def test_module_entry_point(self, tmp_path):
        inst_file = tmp_path / "d.wcsp"
        inst_file.write_text(emit(gen_random(n=3, d=4, e=3, seed=1)))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "softbounds", "propagate", str(inst_file), "--json"],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode in (0, 1)
        assert runs[0].stdout == runs[1].stdout
