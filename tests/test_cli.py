import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import gauss_extremal
from gauss_extremal import cli, extremal
from gauss_extremal.cli import main
from gauss_extremal.errors import DomainError

from conftest import sigmas_eigh_cannot_whiten


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRegionCommand:
    def test_zero_rate_corner_is_inside(self, capsys):
        code, out, _ = run_cli(capsys, [
            "region", "--rho", "0", "--rx", "0", "--ry", "0", "--nux", "1", "--nuy", "1",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["inside"] is True

    def test_outside_point_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, [
            "region", "--rho", "0", "--rx", "0", "--ry", "0", "--nux", "0.5", "--nuy", "0.5",
        ])
        assert code == 1
        assert json.loads(out)["inside"] is False

    def test_boundary_point_reports_zero_slack(self, capsys):
        rho, r_x, r_y = 0.6, 2.0, 1.5
        r2 = rho * rho
        nu_x = 2.0 ** (-2.0 * r_x) * (1.0 - r2 + r2 * 2.0 ** (-2.0 * r_y))
        code, out, _ = run_cli(capsys, [
            "region", "--rho", str(rho), "--rx", str(r_x), "--ry", str(r_y),
            "--nux", repr(nu_x), "--nuy", "1",
        ])
        assert code == 0
        assert abs(json.loads(out)["slack_rx"]) <= 1e-12

    def test_malformed_rho_exits_two(self, capsys):
        code, out, err = run_cli(capsys, [
            "region", "--rho", "1.5", "--rx", "0", "--ry", "0", "--nux", "1", "--nuy", "1",
        ])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, [
            "region", "--rho", "0", "--rx", "1", "--ry", "1", "--nux", "1", "--nuy", "1",
            "--output", "csv",
        ])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("inside,")
        assert row.split(",")[0] == "true"


def seed0_dual_table():
    """(rho, lambdas) of the benchmark's seed-0 dual-oracle table, drawn as
    bench/workloads.py draws it: per rho, one lambda below 1/rho^2 and one above."""
    gen = np.random.default_rng(0)
    table = []
    for _ in range(4):
        r2 = float(gen.uniform(0.2, 0.8))
        below = gen.uniform(0.0, 0.95, 1) / r2
        above = np.exp(gen.uniform(math.log(1.01), math.log(30.0), 1)) / r2
        table.append((math.sqrt(r2), [float(below[0]), float(above[0])]))
    return table


class TestDualCommand:
    def test_threshold_row_is_zero(self, capsys):
        rho = math.sqrt(0.5)
        code, out, _ = run_cli(capsys, [
            "dual", "--rho", repr(rho), "--lambdas", "2", "--grid", "150",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,f_closed,f_oracle,gap"
        _, f_closed, _, _ = lines[1].split(",")
        assert abs(float(f_closed)) <= 1e-12

    def test_gaps_never_negative(self, capsys):
        code, out, _ = run_cli(capsys, [
            "dual", "--rho", "0.8", "--lambdas", "0.5,1,2,3,8", "--grid", "200",
        ])
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            gap = float(line.split(",")[3])
            assert gap >= -1e-9

    def test_known_value_row(self, capsys):
        code, out, _ = run_cli(capsys, [
            "dual", "--rho", repr(math.sqrt(0.5)), "--lambdas", "3", "--grid", "400",
        ])
        row = out.strip().splitlines()[1].split(",")
        assert abs(float(row[1]) - (-0.122556248918)) < 1e-6

    def test_empty_lambda_list_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["dual", "--rho", "0.5", "--lambdas", ","])
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("rho,lambdas", seed0_dual_table())
    def test_lambda_list_prints_the_rows_of_one_command_per_lambda(self, capsys, rho, lambdas):
        # The oracle's cached plan serves every row of a list; each row must
        # still be the row a command of its own prints.
        dual = ["dual", "--rho", repr(rho), "--grid", "2000", "--precision", "17"]
        code, out, _ = run_cli(capsys, dual + ["--lambdas", ",".join(map(repr, lambdas))])
        assert code == 0
        rows = []
        for lam in lambdas:
            code, one, _ = run_cli(capsys, dual + ["--lambdas", repr(lam)])
            assert code == 0
            rows += one.splitlines()[1:]
        assert out.splitlines()[1:] == rows and len(rows) == len(lambdas)

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_alternating_grids_print_what_fresh_runs_print(self, capsys, output):
        def run(grid):
            args = ["dual", "--rho", "-0.6", "--lambdas", "0.5,2,3,40", "--grid", grid,
                    "--precision", "17", "--output", output]
            code, out, _ = run_cli(capsys, args)
            assert code == 0
            return out

        grids = ["500", "2000", "500"]
        in_one_process = [run(grid) for grid in grids]
        fresh = []
        for grid in grids:
            extremal._oracle_plan.cache_clear()
            fresh.append(run(grid))
        assert in_one_process == fresh


class TestVerifyCommand:
    def test_thm3_sweep_clean(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "--mode", "thm3", "--trials", "300", "--seed", "0",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["min_gap"] >= -1e-9
        assert payload["negative_count"] == 0

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = ["verify", "--mode", "vec-epi", "--trials", "40", "--dim", "3", "--seed", "9"]
        code, out1, _ = run_cli(capsys, args)
        _, out2, _ = run_cli(capsys, args)
        assert out1 == out2
        # Injected equality-family channels pin the minimum gap to zero.
        payload = json.loads(out1)
        assert code == 0
        assert -1e-9 <= payload["min_gap"] <= 1e-9
        assert payload["argmin"].get("injected") is True

    def test_different_seeds_differ(self, capsys):
        base = ["verify", "--mode", "thm3", "--trials", "50"]
        _, out1, _ = run_cli(capsys, base + ["--seed", "1"])
        _, out2, _ = run_cli(capsys, base + ["--seed", "2"])
        assert out1 != out2

    def test_samples_csv_written(self, capsys, tmp_path):
        target = tmp_path / "gaps.csv"
        code, _, _ = run_cli(capsys, [
            "verify", "--mode", "oohama", "--trials", "25", "--seed", "0",
            "--samples-csv", str(target),
        ])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "sample,gap"
        assert len(lines) == 26

    def test_unknown_mode_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "bogus"])
        assert exc.value.code == 2

    def test_dim_cap(self, capsys):
        code, _, err = run_cli(capsys, [
            "verify", "--mode", "thm1-vector", "--trials", "2", "--dim", "65",
        ])
        assert code == 2 and "dim" in err


class TestEllipsoidCommand:
    def test_small_identity_run(self, capsys):
        code, out, _ = run_cli(capsys, [
            "ellipsoid", "--n", "32", "--k", "2", "--rho", "0.5",
            "--nux", "0.3", "--nuy", "0.3", "--delta", "0.005",
            "--trials", "20", "--seed", "0",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["region_inside"] is True
        assert payload["residual_max"] <= 1e-9
        assert payload["config"]["n"] == 32

    def test_infeasible_targets_exit_two(self, capsys):
        code, _, err = run_cli(capsys, [
            "ellipsoid", "--n", "16", "--k", "2", "--rho", repr(math.sqrt(0.96)),
            "--nux", "0.1", "--nuy", "0.9", "--trials", "5",
        ])
        assert code == 2
        assert "target" in err

    def test_k_exceeding_n_rejected(self, capsys):
        code, _, err = run_cli(capsys, [
            "ellipsoid", "--n", "4", "--k", "5", "--rho", "0.5",
            "--nux", "0.5", "--nuy", "0.5", "--trials", "2",
        ])
        assert code == 2 and "k" in err

    def test_sigma_file_round_trip(self, capsys, tmp_path):
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(json.dumps({
            "n": 4,
            "data": [2.0, 0.0, 0.0, 0.0,
                     0.0, 1.0, 0.0, 0.0,
                     0.0, 0.0, 1.5, 0.0,
                     0.0, 0.0, 0.0, 1.0],
        }))
        code, out, _ = run_cli(capsys, [
            "ellipsoid", "--n", "4", "--k", "2", "--rho", "0.3",
            "--nux", "0.5", "--nuy", "0.5", "--delta", "0.01",
            "--trials", "10", "--sigma-file", str(sigma_path),
        ])
        assert code == 0
        assert abs(json.loads(out)["config"]["sigma"]["trace"] - 5.5) < 1e-12

    def test_sigma_file_through_a_pipe_gives_the_file_s_trials(self, capsys, tmp_path):
        # A pipe cannot be read twice, so it is decoded whole: to the same matrix.
        text = json.dumps(SIGMA).encode()
        (tmp_path / "sigma.json").write_bytes(text)
        read, write = os.pipe()
        os.write(write, text)
        os.close(write)
        try:
            for name, source in [("file", tmp_path / "sigma.json"), ("pipe", f"/dev/fd/{read}")]:
                code, _, err = run_cli(capsys, [
                    "ellipsoid", "--n", "3", "--k", "2", "--rho", "0.3", "--nux", "0.5", "--nuy", "0.5",
                    "--delta", "0.01", "--trials", "4", "--sigma-file", str(source),
                    "--trials-csv", str(tmp_path / f"{name}.csv"),
                ])
                assert (code, err) == (0, "")
        finally:
            os.close(read)
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    def test_parsed_sigma_is_freed_before_the_run(self, capsys, tmp_path, monkeypatch):
        # The config keeps only sigma's trace and log-determinant: the parsed
        # array (8 MB at n = 1024) must not stay alive through the run.
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(json.dumps({"n": 4, "data": np.eye(4).ravel().tolist()}))
        parse, run = cli._read_sigma_file, cli.run_simulation
        parsed, alive_at_run = [], []

        def recorded_parse(path):
            sigma = parse(path)
            parsed.append(weakref.ref(sigma))
            return sigma

        def checked_run(config):
            alive_at_run.append(parsed[0]() is not None)
            return run(config)

        monkeypatch.setattr(cli, "_read_sigma_file", recorded_parse)
        monkeypatch.setattr(cli, "run_simulation", checked_run)
        code, _, _ = run_cli(capsys, [
            "ellipsoid", "--n", "4", "--k", "2", "--rho", "0.3", "--nux", "0.5", "--nuy", "0.5",
            "--delta", "0.01", "--trials", "3", "--sigma-file", str(sigma_path),
        ])
        assert code == 0
        assert alive_at_run == [False]

    def test_bad_sigma_file_exits_two(self, capsys, tmp_path):
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(json.dumps({"n": 2, "data": [1.0, 0.0, 0.0]}))
        code, _, err = run_cli(capsys, [
            "ellipsoid", "--n", "2", "--k", "1", "--rho", "0.3",
            "--nux", "0.5", "--nuy", "0.5", "--trials", "2",
            "--sigma-file", str(sigma_path),
        ])
        assert code == 2 and "data" in err

    def test_sigma_file_of_another_dimension_exits_two(self, capsys, tmp_path):
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(json.dumps({"n": 3, "data": np.eye(3).ravel().tolist()}))
        code, out, err = run_cli(capsys, [
            "ellipsoid", "--n", "2", "--k", "1", "--rho", "0.3",
            "--nux", "0.5", "--nuy", "0.5", "--trials", "2",
            "--sigma-file", str(sigma_path),
        ])
        assert (code, out, err) == (2, "", "error: sigma file dimension does not match --n\n")

    @pytest.mark.parametrize(
        "content", [b"{", b"\xff\xfe", b"[" * 100000 + b"]" * 100000], ids=["not-json", "not-utf8", "deep"]
    )
    def test_unreadable_sigma_file_exits_two(self, capsys, tmp_path, content):
        # The last two used to end in a traceback and exit 1: a
        # UnicodeDecodeError, and a RecursionError from the JSON decoder.
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_bytes(content)
        code, out, err = run_cli(capsys, [
            "ellipsoid", "--n", "2", "--k", "1", "--rho", "0.3",
            "--nux", "0.5", "--nuy", "0.5", "--trials", "2",
            "--sigma-file", str(sigma_path),
        ])
        assert code == 2 and out == ""
        assert err.startswith("error: --sigma-file is not readable JSON: ") and err.count("\n") == 1

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int string conversion")
    @pytest.mark.parametrize("text", [
        '{"n": ' + "1" * 5000 + ', "data": [1]}', '{"n": 1, "data": [' + "1" * 5000 + "]}",
    ], ids=["n", "entry"])
    def test_sigma_file_integer_past_the_digit_limit_exits_two(self, capsys, tmp_path, text):
        # json's int conversion refuses more than 4300 digits with a ValueError,
        # which used to end in a traceback and exit 1.
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(text)
        code, out, err = run_cli(capsys, [
            "ellipsoid", "--n", "1", "--k", "1", "--rho", "0.3",
            "--nux", "0.5", "--nuy", "0.5", "--trials", "2",
            "--sigma-file", str(sigma_path),
        ])
        assert code == 2 and out == ""
        assert err.startswith("error: --sigma-file is not readable JSON: Exceeds the limit") and err.count("\n") == 1

    @pytest.mark.parametrize("data", [[True, False, False, True], ["2.0", "0", "0", "2.0"]])
    def test_sigma_file_entries_must_be_numbers(self, capsys, tmp_path, data):
        # Both used to run (the booleans as the identity) and exit 0.
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(json.dumps({"n": 2, "data": data}))
        code, out, err = run_cli(capsys, [
            "ellipsoid", "--n", "2", "--k", "1", "--rho", "0.3",
            "--nux", "0.5", "--nuy", "0.5", "--trials", "2",
            "--sigma-file", str(sigma_path),
        ])
        assert code == 2 and out == ""
        assert "entries must be numbers" in err

    @staticmethod
    def run_with_sigma(capsys, tmp_path, sigma):
        """An ellipsoid command on sigma, read from a --sigma-file, with every warning an error."""
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(json.dumps({"n": len(sigma), "data": sigma.ravel().tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli(capsys, [
                "ellipsoid", "--n", str(len(sigma)), "--k", "1", "--rho", "0.3",
                "--nux", "0.5", "--nuy", "0.5", "--trials", "2", "--precision", "17",
                "--sigma-file", str(sigma_path),
            ])

    def test_sigma_past_the_float_range_exits_two(self, capsys, tmp_path):
        # 1e308 I used to end in a traceback and exit 1: a numpy RuntimeWarning
        # under -W error. Its trace overflows, which the pivot test refuses.
        code, out, err = self.run_with_sigma(capsys, tmp_path, 1e308 * np.eye(4))
        assert code == 2 and out == ""
        assert err == "error: sigma: its trace overflows\n"

    @pytest.mark.parametrize("name,log_det", [("ill-conditioned", 0.0), ("near-float-max", math.log(1.7e308))],
                             ids=["ill-conditioned", "near-float-max"])
    def test_sigma_that_eigh_cannot_whiten_simulates(self, capsys, tmp_path, name, log_det):
        # Both pass the pivot test and exited 2 while the simulator whitened
        # through eigh. In whitened coordinates they run, log|sigma| is read
        # off the validating Cholesky's pivots, and no warning is raised.
        code, out, err = self.run_with_sigma(capsys, tmp_path, sigmas_eigh_cannot_whiten()[name])
        assert code == 0 and err == ""
        summary = json.loads(out)
        assert summary["config"]["sigma"]["log_det"] == log_det
        assert summary["residual_max"] <= 1e-12 and summary["region_inside"] is True

    def test_trials_csv_written(self, capsys, tmp_path):
        target = tmp_path / "trials.csv"
        code, _, _ = run_cli(capsys, [
            "ellipsoid", "--n", "8", "--k", "2", "--rho", "0.2",
            "--nux", "0.5", "--nuy", "0.5", "--delta", "0.01",
            "--trials", "4", "--trials-csv", str(target),
        ])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "trial,covered_x_frac,covered_y_frac,normvol_x,normvol_y"
        assert len(lines) == 5


class TestCliPlumbing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--bogus", "1"])
        assert exc.value.code == 2

    def test_parser_is_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_env_seed_matches_explicit_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSS_EXTREMAL_SEED", "5")
        _, out_env, _ = run_cli(capsys, ["verify", "--mode", "thm3", "--trials", "30"])
        monkeypatch.delenv("GAUSS_EXTREMAL_SEED")
        _, out_flag, _ = run_cli(capsys, ["verify", "--mode", "thm3", "--trials", "30", "--seed", "5"])
        assert out_env == out_flag

    def test_explicit_seed_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSS_EXTREMAL_SEED", "5")
        _, out, _ = run_cli(capsys, ["verify", "--mode", "thm3", "--trials", "30", "--seed", "6"])
        payload = json.loads(out)
        assert payload["seed"] == 6

    def test_module_invocation(self):
        # The child imports the package this process imported, installed or
        # not: pyproject's pythonpath reaches only the pytest process.
        root = os.path.dirname(os.path.dirname(os.path.abspath(gauss_extremal.__file__)))
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gauss_extremal", "region", "--rho", "0",
             "--rx", "0", "--ry", "0", "--nux", "1", "--nuy", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["inside"] is True

    def test_precision_flag_shapes_output(self, capsys):
        args = ["dual", "--rho", "0.70710678", "--lambdas", "3", "--grid", "150"]
        _, out3, _ = run_cli(capsys, args + ["--precision", "3"])
        row = out3.strip().splitlines()[1].split(",")
        assert row[1] == "-0.123"


REGION = ["region", "--rho", "0.5", "--rx", "1", "--ry", "1", "--nux", "0.3", "--nuy", "0.3"]
DUAL = ["dual", "--rho", "0.5", "--lambdas", "3", "--grid", "150"]
VERIFY = ["verify", "--mode", "thm3", "--trials", "5"]
ELLIPSOID = ["ellipsoid", "--n", "4", "--k", "2", "--rho", "0.6", "--nux", "0.5", "--nuy", "0.5",
             "--trials", "2"]


class TestBadInputExitsTwo:
    @pytest.mark.parametrize("command", [REGION, DUAL, VERIFY, ELLIPSOID])
    @pytest.mark.parametrize("precision", ["0", "-1", "18", "2147483648"])
    def test_precision_outside_1_to_17(self, capsys, command, precision):
        # 17 significant digits round-trip every double; a larger precision
        # is refused before a writer passes it to format.
        code, out, err = run_cli(capsys, command + ["--precision", precision])
        assert code == 2 and out == ""
        assert f"--precision must lie in [1, 17], got {precision}" in err

    @pytest.mark.parametrize("lambdas", ["nan", "inf", "2,-inf", "nan,inf", "2,x", "2,,3", "3,", ",3"])
    def test_non_finite_or_malformed_lambdas(self, capsys, lambdas):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["dual", "--rho", "0.5", "--lambdas", lambdas, "--grid", "150"])
        assert code == 2 and out == ""
        assert "--lambdas" in err

    @pytest.mark.parametrize("command,flag", [
        (REGION, "--rho"), (REGION, "--rx"), (DUAL, "--rho"), (ELLIPSOID, "--rho"), (ELLIPSOID, "--delta"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_numbers(self, capsys, command, flag, value):
        code, out, err = run_cli(capsys, command + [f"{flag}={value}"])
        assert code == 2 and out == ""
        assert flag in err and "finite" in err

    def test_a_subnormal_nu_names_itself(self, capsys):
        # The per-encoder bound overflowed to an infinite slack, which the
        # writer then refused as "a result is not finite".
        code, out, err = run_cli(capsys, ["region", "--rho", "0.5", "--rx", "1", "--ry", "1",
                                          "--nux", "5e-324", "--nuy", "0.3"])
        assert code == 2 and out == ""
        assert err == "error: nu_x = 4.94066e-324 is too small: its per-encoder rate bound is not finite\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_dimension_below_one(self, capsys, n):
        code, out, err = run_cli(capsys, ["ellipsoid", "--n", n, "--k", "1", "--rho", "0.5",
                                          "--nux", "0.3", "--nuy", "0.3"])
        assert code == 2 and out == ""
        assert "n must be at least 1" in err

    def test_delta_too_small_to_shrink(self, capsys):
        # 1 - delta rounds to 1, so the shrinkage along the centers is zero.
        code, out, err = run_cli(capsys, ELLIPSOID + ["--delta", "1e-17"])
        assert code == 2 and out == ""
        assert "delta = 1e-17" in err

    def test_degenerate_delta_is_refused_before_the_run(self, capsys, monkeypatch):
        def run_simulation(config):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(cli, "run_simulation", run_simulation)
        code, out, err = run_cli(capsys, ELLIPSOID + ["--delta", "1e-17"])
        assert code == 2 and out == ""
        assert "tau - gamma = 0 <= 0 at delta = 1e-17" in err

    def test_degenerate_delta_is_refused_before_the_sigma_file_is_read(self, capsys, tmp_path):
        # The file does not exist: reading it would exit 2 with an OSError.
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, ELLIPSOID + ["--delta", "1e-17", "--sigma-file", missing])
        assert code == 2 and out == ""
        assert "tau - gamma = 0 <= 0 at delta = 1e-17" in err and "missing.json" not in err

    def test_grid_above_the_cap(self, capsys, monkeypatch):
        def scan(lam, rho, resolution):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(extremal, "_oracle_scan", scan)
        grid = str(extremal._ORACLE_MAX_GRID + 1)
        code, out, err = run_cli(capsys, ["dual", "--rho", "0.5", "--lambdas", "2", "--grid", grid])
        assert code == 2 and out == ""
        assert f"grid_resolution must lie in [100, {extremal._ORACLE_MAX_GRID}], got {grid}" in err

    @pytest.mark.parametrize("command,callee", [
        (DUAL, "scalar_dual_oracle"), (VERIFY, "run_verify_sweep"), (ELLIPSOID, "run_simulation"),
    ])
    def test_out_of_memory_exits_two(self, capsys, monkeypatch, command, callee):
        # Stands in for an input too large to allocate, such as --grid 10^7
        # or ellipsoid --n 10^6, without allocating anything.
        def exhausted(*args):
            raise MemoryError("Unable to allocate 284. GiB for an array")

        monkeypatch.setattr(cli, callee, exhausted)
        code, out, err = run_cli(capsys, command)
        assert code == 2 and out == ""
        assert err == "error: out of memory: Unable to allocate 284. GiB for an array\n"

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    @pytest.mark.parametrize("command", [VERIFY, ELLIPSOID])
    def test_seed_outside_domain(self, capsys, command, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command + ["--seed", seed])
        assert code == 2 and out == ""
        assert "--seed must lie in [0, 2^64)" in err

    @pytest.mark.parametrize("raw", ["-1", str(2**64), "seven"])
    def test_env_seed_outside_domain(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("GAUSS_EXTREMAL_SEED", raw)
        code, out, err = run_cli(capsys, VERIFY)
        assert code == 2 and out == ""
        assert "GAUSS_EXTREMAL_SEED" in err

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, VERIFY + ["--seed", str(2**64 - 1)])
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 1

    @pytest.mark.parametrize("command", [REGION, DUAL])
    def test_commands_that_draw_nothing_ignore_the_env_seed(self, capsys, monkeypatch, command):
        monkeypatch.delenv("GAUSS_EXTREMAL_SEED", raising=False)
        unset = run_cli(capsys, command)
        monkeypatch.setenv("GAUSS_EXTREMAL_SEED", "junk")
        assert run_cli(capsys, command) == unset and unset[0] == 0

    @pytest.mark.parametrize("command,option", [
        (REGION, ["--seed", "1"]), (DUAL, ["--seed", "1"]), (ELLIPSOID, ["--sigma", "identity"]),
    ])
    def test_options_a_command_does_not_read_are_unrecognized(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main(command + option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStrictJson:
    @staticmethod
    def strict(text):
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")
        return json.loads(text, parse_constant=refuse)

    def test_unsent_descriptions_print_null_noise_levels(self, capsys):
        code, out, _ = run_cli(capsys, [
            "ellipsoid", "--n", "4", "--k", "2", "--rho", "0.6", "--nux", "1", "--nuy", "1",
        ])
        assert code == 0
        payload = self.strict(out)
        assert payload["noise_levels"] == {"q_x": None, "q_y": None}

    def test_finite_noise_levels_are_numbers(self, capsys):
        code, out, _ = run_cli(capsys, ELLIPSOID)
        assert code == 0
        levels = self.strict(out)["noise_levels"]
        assert all(isinstance(q, float) and q > 0.0 for q in levels.values())

    def test_underflowing_distortion_product_gives_finite_slacks(self, capsys):
        code, out, _ = run_cli(capsys, [
            "region", "--rho", "0.99", "--rx", "0", "--ry", "0", "--nux", "1e-300", "--nuy", "1e-300",
        ])
        assert code == 1
        payload = self.strict(out)
        assert payload["inside"] is False
        assert all(math.isfinite(payload[k]) for k in ("slack_rx", "slack_ry", "slack_sum"))

    def test_overflowing_csv_result_is_an_error_not_infinity(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "region", "--rho", "0.5", "--rx", "1e308", "--ry", "1e308", "--nux", "0.5",
                "--nuy", "0.5", "--output", "csv",
            ])
        assert code == 2 and out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_overflowing_dual_oracle_is_an_error(self, capsys, output):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "dual", "--rho", "0.9", "--lambdas", "1e308", "--grid", "100", "--output", output,
            ])
        assert code == 2 and out == ""
        assert "too large" in err

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_non_finite_dual_row_is_an_error(self, capsys, output):
        # The oracle's minimum is finite here, but the closed form's two
        # logarithmic terms overflow to inf - inf = nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "dual", "--rho", "0.9999999", "--lambdas", "1e307", "--grid", "100", "--output", output,
            ])
        assert code == 2 and out == ""
        assert "not finite" in err

    def test_overflowing_result_is_an_error_not_infinity(self, capsys):
        code, out, err = run_cli(capsys, [
            "region", "--rho", "0.5", "--rx", "1e308", "--ry", "1e308", "--nux", "0.3", "--nuy", "0.3",
        ])
        assert code == 2 and out == ""
        assert "not finite" in err


# Entries written as a JSON text: ints mixed with floats, -0 (an int 0 to json), the smallest
# subnormal and the largest double.
ENTRIES = ["2", "-0", "5e-324", "0.25", "1.7976931348623157e308", "-3", "0.5", "-0.0", "7"]
SIGMA = {"n": 3, "data": [2.0, 0.5, -1.25, 0.5, 3.0, 1e-300, -1.25, 1e-300, 4.0]}


def sigma_text(entries, n=3, head='{"n": %s, "data": [', sep=", ", tail="]}"):
    return (head % n + sep.join(entries) + tail).encode()


# (id, file content, whether the piecewise reader takes it without the whole-file fallback)
SIGMA_FILES = [
    ("compact", json.dumps(SIGMA, separators=(",", ":")).encode(), True),
    ("default", json.dumps(SIGMA).encode(), True),
    ("repr", sigma_text(map(repr, SIGMA["data"])), True),
    ("indent-1", json.dumps(SIGMA, indent=1).encode(), True),
    ("tabs-crlf", sigma_text(ENTRIES, head='\t{\t"n"\t:\r\n%s\t,\r\n"data"\t:\t[\r\n', sep="\t,\r\n",
                             tail="\r\n]\t\r\n}\r\n"), True),
    ("mixed", sigma_text(ENTRIES), True),
    ("data-first", json.dumps(SIGMA, sort_keys=True).encode(), False),
    ("extra-key", json.dumps({**SIGMA, "note": 1}).encode(), False),
    ("duplicate-n", b'{"n": 2, "n": 3, "data": [' + ", ".join(ENTRIES).encode() + b"]}", False),
    ("n-float", sigma_text(["1"] * 4, n="2.0"), False),
    ("n-true", sigma_text(["1"] * 4, n="true"), False),
    ("n-string", sigma_text(["1"] * 4, n='"2"'), False),
    ("n-0", sigma_text([], n=0), False),
    ("n-minus-1", sigma_text(["1"], n=-1), False),
    ("n-1e9", sigma_text(["1"] * 4, n=10**9), False),
    ("nan", sigma_text(["NaN"] + ENTRIES[1:]), False),
    ("infinity", sigma_text(ENTRIES[:-1] + ["-Infinity"]), False),
    ("1e400", sigma_text(ENTRIES[:4] + ["1e400"] + ENTRIES[5:]), False),
    ("int-past-float", sigma_text(ENTRIES[:4] + ["1" + "0" * 400] + ENTRIES[5:]), False),
    ("string-with-comma", sigma_text(ENTRIES[:3] + ['"1,0"'] + ENTRIES[4:]), False),
    ("nested", sigma_text(ENTRIES[:3] + ["[1, 2]"] + ENTRIES[4:]), False),
    ("null", sigma_text(ENTRIES[:-1] + ["null"]), False),
    ("leading-comma", sigma_text(ENTRIES, head='{"n": %s, "data": [,'), False),
    ("trailing-comma", sigma_text(ENTRIES, tail=",]}"), False),
    ("double-comma", sigma_text(ENTRIES[:4] + [""] + ENTRIES[4:-1]), False),
    ("empty", sigma_text([]), False),
    ("one-short", sigma_text(ENTRIES[:-1]), False),
    ("one-over", sigma_text(ENTRIES + ["1"]), False),
    ("junk-after", sigma_text(ENTRIES) + b" x", False),
    ("bom", b"\xef\xbb\xbf" + sigma_text(ENTRIES), False),
    ("bad-utf8", sigma_text(ENTRIES).replace(b"0.25", b"0.2\xff"), False),
    ("deep", sigma_text(["[" * 100000 + "]" * 100000], n=1), False),
]


def read_outcome(path):
    """The reader's array, bit for bit, or the type and message of what it raised."""
    try:
        a = cli._read_sigma_file(str(path))
    except Exception as exc:  # every outcome is compared
        return type(exc), str(exc)
    return a.shape, a.dtype, a.tobytes()


class TestSigmaFileReader:
    @pytest.mark.parametrize("piece", [1, 2, 3, 5, 8, 1 << 18])
    @pytest.mark.parametrize("content,in_pieces", [p[1:] for p in SIGMA_FILES], ids=[p[0] for p in SIGMA_FILES])
    def test_pieces_give_what_the_whole_file_gives(self, tmp_path, monkeypatch, content, in_pieces, piece):
        # Pieces of a few characters put a cut at every position of the text.
        path = tmp_path / "sigma.json"
        path.write_bytes(content)
        monkeypatch.setattr(cli, "_PIECE", piece)
        outcome = read_outcome(path)
        with open(path, encoding="utf-8") as fh:
            try:
                taken = cli._read_pieces(fh) is not None
            except (ValueError, RecursionError, OverflowError):
                taken = False
        monkeypatch.setattr(cli, "_read_pieces", lambda fh: None)  # json.load and matrix_from_json alone
        assert outcome == read_outcome(path)
        assert taken == in_pieces

    @pytest.mark.parametrize("n", [4096, 10**9])
    def test_an_n_the_file_cannot_hold_allocates_nothing(self, tmp_path, n):
        path = tmp_path / "sigma.json"
        path.write_bytes(sigma_text(["1"] * 4, n=n))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f'^"data" must hold exactly {n * n} numbers$'):
                cli._read_sigma_file(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_reading_an_n_1024_file_holds_about_the_matrix(self, tmp_path):
        # json.load and matrix_from_json peaked at 55 MiB on this file: its
        # 24 MB of text and a list of 2^20 floats beside the 8 MiB array.
        n = 1024
        sigma = np.random.default_rng(0).standard_normal((n, n))
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps({"n": n, "data": sigma.ravel().tolist()}))
        tracemalloc.start()
        try:
            a = cli._read_sigma_file(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(a, sigma)
        assert peak < 20 << 20
