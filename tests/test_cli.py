"""Command-line front end: the solve/oracle/bench/gen subcommands."""

import csv
import json
import re

import pytest

from margmap.cli import main
from margmap.uaiio import parse_uai

from conftest import WEATHER_TEXT


@pytest.fixture
def weather_file(tmp_path):
    path = tmp_path / "weather.uai"
    path.write_text(WEATHER_TEXT)
    return path


class TestSolve:
    def test_full_explanation(self, weather_file, capsys):
        assert main(["solve", str(weather_file), "--explain", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "X0=1 X1=1" in out
        assert "p~ = 0.35" in out
        assert "mar calls = 3" in out

    def test_epsilon_stops_early(self, weather_file, capsys):
        assert main(["solve", str(weather_file), "--explain", "0,1", "--epsilon", "0.95"]) == 0
        out = capsys.readouterr().out
        assert "explained: X1=1" in out
        assert "unexplained: X0" in out
        assert "stopped" in out

    def test_all_unobserved_with_evidence_file(self, weather_file, tmp_path, capsys):
        evid = tmp_path / "w.evid"
        evid.write_text("1 1 1\n")
        assert main(
            ["solve", str(weather_file), "--all-unobserved", "--evidence", str(evid)]
        ) == 0
        out = capsys.readouterr().out
        assert "evidence: X1=1" in out
        assert "explained: X0=1" in out

    def test_missing_model_is_a_clean_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "none.uai"), "--explain", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_evidence_state_is_a_clean_error(self, weather_file, tmp_path, capsys):
        evid = tmp_path / "bad.evid"
        evid.write_text("1 0 9\n")
        assert main(
            ["solve", str(weather_file), "--explain", "1", "--evidence", str(evid)]
        ) == 1
        assert "out of range" in capsys.readouterr().err

    def test_out_of_range_explain_is_a_clean_error(self, weather_file, capsys):
        assert main(["solve", str(weather_file), "--explain", "2"]) == 1
        assert "out of range" in capsys.readouterr().err


class TestOracle:
    def test_weather_optimum(self, weather_file, capsys):
        assert main(["oracle", str(weather_file), "--explain", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "assignment: X0=1 X1=1" in out
        assert "p* = 0.35" in out

    def test_cap_below_one_is_a_clean_error(self, weather_file, capsys):
        assert main(["oracle", str(weather_file), "--explain", "0,1", "--oracle-cap", "0"]) == 1
        assert capsys.readouterr().err == "error: cap must be >= 1, got 0\n"


class TestGen:
    def test_grid_structure(self, tmp_path, capsys):
        out_path = tmp_path / "grid.uai"
        assert main(
            [
                "gen",
                "--rows", "3",
                "--cols", "4",
                "--cardinality", "3",
                "--seed", "5",
                "-o", str(out_path),
            ]
        ) == 0
        model = parse_uai(out_path.read_text())
        assert model.n_vars == 12
        assert max(model.cardinalities) == 3
        # 12 unary potentials plus 3*3 + 2*4 = 17 edges
        assert len(model.potentials) == 12 + 17

    def test_stdout_output_parses(self, capsys):
        assert main(["gen", "--rows", "1", "--cols", "4", "--seed", "2"]) == 0
        model = parse_uai(capsys.readouterr().out)
        assert model.n_vars == 4
        assert len(model.potentials) == 4 + 3

    def test_same_seed_same_model(self, tmp_path):
        a, b = tmp_path / "a.uai", tmp_path / "b.uai"
        main(["gen", "--rows", "2", "--cols", "2", "--seed", "9", "-o", str(a)])
        main(["gen", "--rows", "2", "--cols", "2", "--seed", "9", "-o", str(b)])
        assert a.read_text() == b.read_text()


def _strip_timing_columns(csv_text: str) -> list[str]:
    rows = []
    for line in csv_text.splitlines():
        if line.startswith("#") or line.startswith("epsilon"):
            rows.append(line)
        else:
            rows.append(",".join(line.split(",")[:-2]))
    return rows


class TestBench:
    def test_end_to_end(self, tmp_path, capsys):
        model_path = tmp_path / "chain.uai"
        main(["gen", "--rows", "1", "--cols", "5", "--seed", "3", "-o", str(model_path)])
        prefix = tmp_path / "run"
        code = main(
            [
                "bench", str(model_path),
                "--k", "1",
                "--q", "10",
                "--epsilons", "0,0.5,1",
                "--seed", "42",
                "--out-prefix", str(prefix),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seed = 42" in out
        csv_text = (tmp_path / "run_instances.csv").read_text()
        assert csv_text.startswith("# seed=42\n")
        assert (tmp_path / "run_match.dat").exists()
        assert (tmp_path / "run_hamming.dat").exists()

    def test_config_file_provides_defaults(self, tmp_path, capsys):
        model_path = tmp_path / "chain.uai"
        main(["gen", "--rows", "1", "--cols", "4", "--seed", "4", "-o", str(model_path)])
        config = tmp_path / "bench.json"
        config.write_text(
            json.dumps({"k": 1, "q": 5, "epsilon_grid": [0.0, 1.0], "seed": 13})
        )
        prefix = tmp_path / "cfg"
        assert main(
            [
                "bench", str(model_path),
                "--config", str(config),
                "--out-prefix", str(prefix),
            ]
        ) == 0
        assert "seed = 13" in capsys.readouterr().out
        assert (tmp_path / "cfg_instances.csv").read_text().startswith("# seed=13\n")

    def test_runs_are_identical_apart_from_timings(self, tmp_path, capsys):
        model_path = tmp_path / "chain.uai"
        main(["gen", "--rows", "1", "--cols", "5", "--seed", "3", "-o", str(model_path)])
        args = [
            "bench", str(model_path),
            "--k", "1",
            "--q", "10",
            "--epsilons", "0,0.5,1",
            "--seed", "42",
        ]
        main(args + ["--out-prefix", str(tmp_path / "a")])
        main(args + ["--out-prefix", str(tmp_path / "b")])
        for suffix in ("_match.dat", "_hamming.dat"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
        a_rows = _strip_timing_columns((tmp_path / "a_instances.csv").read_text())
        b_rows = _strip_timing_columns((tmp_path / "b_instances.csv").read_text())
        assert a_rows == b_rows

    @pytest.mark.parametrize(
        "config",
        [
            {"k": "2"},
            {"seed": 1.5},
            [1, 2],
            {"epsilon_grid": 5},
            {"epsilon_grid": [None]},
            {"K": 2, "epsilons": [0.5], "qq": 3},
            {"oracle_cap": 0},
        ],
    )
    def test_bad_config_is_a_clean_error(self, weather_file, tmp_path, capsys, config):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config))
        assert main(
            [
                "bench", str(weather_file),
                "--config", str(path),
                "--out-prefix", str(tmp_path / "run"),
            ]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_skips_reach_stderr_and_leave_no_rows(self, weather_file, tmp_path, capsys):
        # a cap of 1 joint state refuses every non-empty explanation; at
        # epsilon 0 nothing is explained, so only epsilon 1 has skips
        prefix = tmp_path / "run"
        code = main(
            [
                "bench", str(weather_file),
                "--k", "1",
                "--q", "8",
                "--epsilons", "0,1",
                "--oracle-cap", "1",
                "--out-prefix", str(prefix),
            ]
        )
        assert code == 0
        err_lines = capsys.readouterr().err.splitlines()
        pattern = r"skipped: epsilon=(\S+) instance=(\d+): .*cap.*"
        skips = [re.fullmatch(pattern, line) for line in err_lines]
        assert skips and all(skips)
        skipped = {(float(m[1]), int(m[2])) for m in skips}
        assert len(skipped) == len(skips)
        assert {e for e, _ in skipped} == {1.0}
        lines = (tmp_path / "run_instances.csv").read_text().splitlines()
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        completed = {(float(r["epsilon"]), int(r["seed_index"])) for r in rows}
        assert len(completed) == len(rows)
        assert not completed & skipped
        assert completed | skipped == {(e, i) for e in (0.0, 1.0) for i in range(8)}

    def test_unknown_config_key_is_named(self, weather_file, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"k": 1, "epsilons": [0.5]}))
        assert main(
            ["bench", str(weather_file), "--config", str(path), "--out-prefix", str(tmp_path / "run")]
        ) == 1
        assert "'epsilons'" in capsys.readouterr().err
        assert not (tmp_path / "run_instances.csv").exists()
