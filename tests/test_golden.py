"""Golden-output corpus: every CLI command below, run in-process at
--precision 17, prints what tests/golden/ recorded for it.

Text, integers, booleans and nulls compare exactly; other numbers within
REL relative plus ABS absolute, which absorbs last-bit differences between
BLAS and numpy builds. Two kinds of field are roundoff or threshold counts
by nature and compare by what they mean:
- verify's argmin, which can move among samples within roundoff of the
  minimum gap, compares by its gap: the sample it names must hold the
  minimum gap in the recorded per-sample gaps (where a command writes
  them), and its parameters are compared only when it names the recorded
  sample;
- an ellipsoid coverage, a count of points inside a unit ball, compares
  within one covered point, since a point on the boundary can fall either
  side of it in the last bit; the ellipsoid's identity residual, itself a
  roundoff, compares within 1e-10.

To record the corpus again, after a change that is meant to move the
output, run this file as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py

Recording again and then `git diff --exit-code tests/golden` is the
byte-exact comparison, for a machine whose BLAS rounds as the recording's.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from gauss_extremal.cli import main

GOLDEN = Path(__file__).parent / "golden"
REL, ABS = 1e-9, 1e-12
DENSE_N = 64


def dense_sigma_json(n: int) -> str:
    """A dense SPD covariance as --sigma-file JSON, written entrywise from a
    closed form in Python floats, with no BLAS: sigma_ij = sqrt(d_i d_j)
    r^|i - j| (a rescaled Kac-Murdock-Szego matrix, positive definite for
    0 < r < 1), with d_i in [0.5, 2] and r = 0.93."""
    d = [0.5 + 1.5 * ((7 * i) % 11) / 10.0 for i in range(n)]
    data = [math.sqrt(d[i] * d[j]) * 0.93 ** abs(i - j) for i in range(n) for j in range(n)]
    return json.dumps({"n": n, "data": data})


def _verify(mode, dim, seed, csv=False):
    argv = ["verify", "--mode", mode, "--trials", "30", "--dim", str(dim), "--seed", str(seed)]
    return argv + (["--samples-csv", "{csv}"] if csv else [])


_ELLIPSOID = ["ellipsoid", "--n", "32", "--k", "4", "--rho", "0.5", "--trials", "12", "--seed", "5"]
_REGION_IN = ["region", "--rho", "0.5", "--rx", "1", "--ry", "1", "--nux", "0.3", "--nuy", "0.3"]
_REGION_OUT = ["region", "--rho", "0.5", "--rx", "0.1", "--ry", "0.1", "--nux", "0.1", "--nuy", "0.1"]
_DUAL = ["dual", "--lambdas", "0.5,1,3,100", "--grid", "500"]

# name -> (argv, exit code). "{csv}" stands for the command's CSV file and
# "{sigma}" for the dense sigma file; --precision 17 is appended to each.
COMMANDS = {
    "region-inside-json": (_REGION_IN, 0),
    "region-inside-csv": (_REGION_IN + ["--output", "csv"], 0),
    "region-outside-json": (_REGION_OUT, 1),
    "region-outside-csv": (_REGION_OUT + ["--output", "csv"], 1),
    "dual-rho0.6-csv": (_DUAL + ["--rho", "0.6"], 0),
    "dual-rho0.6-json": (_DUAL + ["--rho", "0.6", "--output", "json"], 0),
    "dual-rho-0.9-csv": (_DUAL + ["--rho", "-0.9"], 0),
    "dual-rho-0.9-json": (_DUAL + ["--rho", "-0.9", "--output", "json"], 0),
    **{f"verify-{mode}-dim1": (_verify(mode, 1, 0, csv=mode == "thm3"), 0) for mode in
       ("thm1-scalar", "thm1-vector", "thm3", "oohama", "vec-epi")},
    **{f"verify-{mode}-dim4": (_verify(mode, 4, 11, csv=mode == "vec-epi"), 0) for mode in
       ("thm1-scalar", "thm1-vector", "thm3", "oohama", "vec-epi")},
    "verify-thm1-vector-dim8": (_verify("thm1-vector", 8, 11), 0),
    "ellipsoid-identity": (_ELLIPSOID + ["--nux", "0.3", "--nuy", "0.4", "--trials-csv", "{csv}"], 0),
    "ellipsoid-dense": (["ellipsoid", "--n", str(DENSE_N), "--k", "4", "--rho", "0.5", "--nux", "0.3",
                         "--nuy", "0.4", "--trials", "8", "--seed", "2", "--sigma-file", "{sigma}"], 0),
    "ellipsoid-unsent": (_ELLIPSOID + ["--nux", "1", "--nuy", "1"], 0),
    # rho = 0 and nu_y = 1: only X's description is sent.
    "ellipsoid-one-sent": (["ellipsoid", "--n", "32", "--k", "4", "--rho", "0", "--nux", "0.3", "--nuy", "1",
                            "--trials", "12", "--seed", "5", "--trials-csv", "{csv}"], 0),
}


def run_command(name: str, tmp: Path) -> tuple[int, str, str, str | None]:
    """(exit code, stdout, stderr, CSV file text or None) of one corpus command."""
    argv, _ = COMMANDS[name]
    csv_path, sigma_path = tmp / f"{name}.csv", tmp / "sigma.json"
    if "{sigma}" in argv:
        sigma_path.write_text(dense_sigma_json(DENSE_N))
    argv = [a.format(csv=csv_path, sigma=sigma_path) for a in argv] + ["--precision", "17"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), csv_path.read_text() if csv_path.exists() else None


def field_tolerance(field: str, config: dict) -> float | None:
    """Absolute tolerance of an ellipsoid field that is a count or a roundoff
    by nature, or None for the default. A coverage is within the share of one
    covered point. The identity residual is roundoff (up to 1.3e-12 recorded),
    and another BLAS rounds differently: within 1e-10, a tenth of the exit
    rule's bound."""
    k, trials = config["k"], config["trials"]
    if field.startswith(("coverage_", "center_norm_exceed_frac_")):
        return 1.0 / (k * trials)  # over every (trial, point)
    if field.startswith("per_point_failure_max_"):
        return 1.0 / trials  # one point over the trials
    if field.startswith("covered_"):
        return 1.0 / k  # one trial's points, in the trials CSV
    if field == "residual_max":
        return 1e-10
    return None


def assert_close(got, want, where: str, tol: float | None = None) -> None:
    """got equals want: exactly for text, integers, booleans and nulls, within
    tol (else REL relative plus ABS absolute) for floats, recursively."""
    assert type(got) is type(want), f"{where}: {got!r} against {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} against {sorted(want)}"
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} entries against {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        bound = REL * abs(want) + ABS if tol is None else tol
        assert abs(got - want) <= bound, f"{where}: {got!r} against {want!r}, beyond {bound:.3g}"
    else:
        assert got == want, f"{where}: {got!r} against {want!r}"


def csv_cells(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = text.splitlines()
    return header.split(","), [row.split(",") for row in rows]


def assert_csv_close(got: str, want: str, where: str, config: dict | None = None) -> None:
    """Two CSV tables: the header exactly, integer cells exactly, other
    numbers as assert_close, and coverage columns within one point."""
    (got_header, got_rows), (header, rows) = csv_cells(got), csv_cells(want)
    assert got_header == header, f"{where}: header {got_header} against {header}"
    assert len(got_rows) == len(rows), f"{where}: {len(got_rows)} rows against {len(rows)}"
    for i, (g_row, w_row) in enumerate(zip(got_rows, rows)):
        assert len(g_row) == len(w_row), f"{where} row {i}: {g_row} against {w_row}"
        for column, g, w in zip(header, g_row, w_row):
            cell = f"{where} row {i} {column}"
            if g == w:
                continue
            if w.lstrip("-").isdigit() and g.lstrip("-").isdigit():  # both integers: exact
                raise AssertionError(f"{cell}: {g} against {w}")
            try:
                g_value, w_value = float(g), float(w)
            except ValueError:
                raise AssertionError(f"{cell}: {g!r} against {w!r}") from None
            tol = field_tolerance(column, config) if config is not None else None
            assert_close(g_value, w_value, cell, tol)


def assert_json_close(got: dict, want: dict, where: str, samples: str | None) -> None:
    """Two JSON summaries: see the module docstring for argmin and coverage."""
    assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} against {sorted(want)}"
    for key in want:
        if key == "argmin":
            continue
        tol = field_tolerance(key, want["config"]) if "config" in want else None
        assert_close(got[key], want[key], f"{where}.{key}", tol)
    if "argmin" in want:
        index = got["argmin"]["sample"]
        assert type(index) is int and 0 <= index < want["trials"], f"{where}.argmin: {got['argmin']}"
        if samples is not None:  # the recorded gap of the sample it names is the minimum
            _, rows = csv_cells(samples)
            assert_close(float(rows[index][1]), want["min_gap"], f"{where}.argmin's gap")
        if index == want["argmin"]["sample"]:
            assert_close(got["argmin"], want["argmin"], f"{where}.argmin")


@pytest.mark.parametrize("name", COMMANDS)
def test_command_prints_the_recorded_output(name, tmp_path):
    code, out, err, csv_text = run_command(name, tmp_path)
    assert (code, err) == (COMMANDS[name][1], "")
    want = (GOLDEN / f"{name}.out").read_text()
    recorded_csv = (GOLDEN / f"{name}.csv").read_text() if csv_text is not None else None
    if want.startswith("{"):
        assert_json_close(json.loads(out), json.loads(want), name, recorded_csv)
    else:
        assert_csv_close(out, want, name)
    if csv_text is not None:
        assert_csv_close(csv_text, recorded_csv, f"{name}.csv", json.loads(want).get("config"))


def test_corpus_holds_exactly_the_recorded_files():
    want = {f"{name}.out" for name in COMMANDS}
    want |= {f"{name}.csv" for name, (argv, _) in COMMANDS.items() if "{csv}" in argv}
    assert {p.name for p in GOLDEN.iterdir()} == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, exit_code) in COMMANDS.items():
            code, out, err, csv_text = run_command(name, Path(tmp))
            if (code, err) != (exit_code, ""):
                raise SystemExit(f"{name}: exit {code}, stderr {err!r}")
            (GOLDEN / f"{name}.out").write_text(out)
            if csv_text is not None:
                (GOLDEN / f"{name}.csv").write_text(csv_text)
