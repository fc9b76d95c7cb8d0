import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bipartize
from bipartize import build_doubled_graph, from_edge_list
from bipartize.cli import main
from bipartize.dimacs import parse_instance, write_instance

from .conftest import complete_graph, cycle_graph


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.col"
    path.write_text(write_instance(cycle_graph(5)), newline="")
    return path


def _solve_json(capsys, path, engine="exact", extra=()):
    code = main(["solve", str(path), "--engine", engine, "--json", *extra])
    return code, json.loads(capsys.readouterr().out)


class TestGen:
    def test_writes_parseable_instance(self, capsys):
        assert main(["gen", "gnp", "--nodes", "8", "--prob", "0.5", "--seed", "3"]) == 0
        g = parse_instance(capsys.readouterr().out)
        assert g.node_count == 8

    def test_same_seed_byte_identical(self, capsys):
        args = ["gen", "gnp", "--nodes", "10", "--prob", "0.4", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_unit_weights(self, capsys):
        main(["gen", "cycle", "--nodes", "5", "--weights", "unit"])
        g = parse_instance(capsys.readouterr().out)
        assert set(g.weights) == {1}

    def test_missing_param_is_usage_error(self, capsys):
        assert main(["gen", "gnp", "--nodes", "5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_family_is_usage_error(self):
        assert main(["gen", "hypercube", "--nodes", "5"]) == 2

    def test_output_file(self, tmp_path):
        out = tmp_path / "g.col"
        assert main(["gen", "complete", "--nodes", "4", "-o", str(out)]) == 0
        assert parse_instance(out.read_text()).edge_count == 6


class TestReduce:
    def test_matches_library_construction(self, capsys, tmp_path):
        k3_path = tmp_path / "k3.col"
        k3_path.write_text(write_instance(complete_graph(3)), newline="")
        assert main(["reduce", str(k3_path)]) == 0
        doubled = parse_instance(capsys.readouterr().out)
        assert doubled.node_count == 6
        assert doubled.edge_count == 9
        assert doubled == build_doubled_graph(complete_graph(3)).graph

    def test_bad_instance_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 1 1\ne 1 1\n")
        assert main(["reduce", str(bad)]) == 2
        assert "self-loop" in capsys.readouterr().err


class TestSolve:
    def test_exact_json(self, capsys, c5_file):
        code, payload = _solve_json(capsys, c5_file)
        assert code == 0
        assert payload["weight"] == 4
        assert payload["optimal"] is True
        assert len(payload["nodes"]) == 4

    def test_human_readable_default(self, capsys, c5_file):
        assert main(["solve", str(c5_file)]) == 0
        out = capsys.readouterr().out
        assert "weight   4" in out
        assert "optimal  true" in out

    def test_approx(self, capsys, c5_file):
        code, payload = _solve_json(capsys, c5_file, engine="approx")
        assert code == 0
        assert payload["optimal"] is False
        assert payload["weight"] >= 3

    def test_bruteforce(self, capsys, c5_file):
        code, payload = _solve_json(capsys, c5_file, engine="bruteforce")
        assert code == 0
        assert payload["weight"] == 4
        assert payload["nodes"] == [1, 2, 3, 4]

    def test_bruteforce_oversized_is_usage_error(self, capsys, tmp_path):
        big = tmp_path / "big.col"
        big.write_text(write_instance(from_edge_list(21, [], [1] * 21)), newline="")
        assert main(["solve", str(big), "--engine", "bruteforce"]) == 2

    def test_budget_exhaustion_exits_3_with_solution(self, capsys, tmp_path):
        path = tmp_path / "g.col"
        main(["gen", "gnp", "--nodes", "18", "--prob", "0.4", "--seed", "2", "-o", str(path)])
        capsys.readouterr()
        code, payload = _solve_json(capsys, path, extra=["--budget-nodes", "1"])
        assert code == 3
        assert payload["optimal"] is False
        assert payload["weight"] >= 1

    def test_time_budget_accepted(self, capsys, c5_file):
        code, payload = _solve_json(capsys, c5_file, extra=["--budget-ms", "5000"])
        assert code == 0
        assert payload["weight"] == 4

    @pytest.mark.parametrize("flag", ["--budget-nodes", "--budget-ms"])
    def test_zero_budget_is_usage_error(self, capsys, c5_file, flag):
        assert main(["solve", str(c5_file), flag, "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["solve", "/nonexistent/g.col"]) == 2


class TestVerify:
    def test_valid_solution(self, capsys, c5_file, tmp_path):
        sol_path = tmp_path / "sol.json"
        main(["solve", str(c5_file), "--json", "-o", str(sol_path)])
        assert main(["verify", str(c5_file), str(sol_path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_tampered_weight(self, capsys, c5_file, tmp_path):
        sol_path = tmp_path / "sol.json"
        main(["solve", str(c5_file), "--json", "-o", str(sol_path)])
        payload = json.loads(sol_path.read_text())
        payload["weight"] += 1
        sol_path.write_text(json.dumps(payload))
        assert main(["verify", str(c5_file), str(sol_path)]) == 1
        assert capsys.readouterr().out.strip() == "weight mismatch"

    def test_tampered_sides(self, capsys, c5_file, tmp_path):
        sol_path = tmp_path / "sol.json"
        main(["solve", str(c5_file), "--json", "-o", str(sol_path)])
        payload = json.loads(sol_path.read_text())
        payload["side_a"] = payload["nodes"]
        payload["side_b"] = []
        sol_path.write_text(json.dumps(payload))
        assert main(["verify", str(c5_file), str(sol_path)]) == 1
        assert "side_a not independent" in capsys.readouterr().out


class TestBench:
    def test_grid_csv(self, capsys):
        code = main(
            ["bench", "--grid-n", "6", "8", "--grid-p", "0.3", "0.6",
             "--grid-seeds", "2", "--seed", "5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "instance"
        assert len(lines) == 1 + 2 * 2 * 2
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["exact_optimal"] == "True"
            assert float(row["ratio"]) <= 1.0

    def test_dir_mode(self, capsys, tmp_path, c5_file):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "c5.col").write_text(c5_file.read_text())
        code = main(["bench", "--dir", str(corpus)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("c5.col,5,5,2,4,True,")

    def test_empty_dir_is_usage_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["bench", "--dir", str(empty)]) == 2


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["solve", "--frobnicate"]) == 2

    def test_console_entry_point(self, tmp_path):
        # one end-to-end check through the installed script, run against the
        # same package this process imported (installed or from a checkout)
        package_root = str(Path(bipartize.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-m", "bipartize.cli"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 2
