import json
import subprocess
import sys

import pytest

from softbounds.cli import main
from softbounds.fileformat import emit
from softbounds.generators import gen_random, gen_spacerchain


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

    def test_budget_refusal(self, capsys, tmp_path):
        path = tmp_path / "wide.wcsp"
        path.write_text(emit(gen_spacerchain(m=3, L=10**5, seed=1)))
        assert main(["verify", str(path), "--budget", "1000"]) == 3


class TestReify:
    def test_compare_on_pair_tables(self, capsys, pair_file):
        code, rep = run_json(capsys, ["reify", pair_file, "--compare", "--json"])
        assert code == 1
        assert rep["bac0_empty"] is True
        assert rep["reified_bc_empty"] is False

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
