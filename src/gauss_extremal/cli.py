"""Command-line surface: region queries, dual-function tables, inequality
falsification sweeps, and covering-ellipsoid simulations.

Data goes to stdout, diagnostics to stderr. The two commands that draw,
verify and ellipsoid, are deterministic under a fixed seed (--seed, else
GAUSS_EXTREMAL_SEED, else 0); region and dual draw nothing and take no
seed. Outputs are canonically ordered, so repeated runs are
byte-identical. Exit codes: 0 success (region: inside; verify: no
violations; ellipsoid: region ok and identity residual small), 1 checked
condition failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .errors import DomainError, GaussExtremalError
from .extremal import scalar_dual_closed, scalar_dual_oracle
from .gauss_model import matrix_from_json
from .ellipsoid_codec import (
    IDENTITY_TOL, CodecConfig, check_scalar_params, report_to_dict, run_simulation, trials_csv_rows,
)
from .rate_region import region_verdict
# run_verify_sweep and stream stay importable from this module: the
# acceptance tests and the benchmark's tracer tests name them here.
from .rng import check_seed, stream  # noqa: F401
from .sweep import VERIFY_MODES, run_verify_sweep


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return float(format(obj, f".{precision}g"))
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, precision) for v in obj]
    return obj


def _emit_json(payload: dict, precision: int) -> None:
    # NaN and Infinity are not JSON: refuse them rather than print output
    # that a strict parser rejects.
    try:
        text = json.dumps(_round_floats(payload, precision), sort_keys=True, allow_nan=False)
    except ValueError:
        raise GaussExtremalError("a result is not finite and cannot be written as JSON") from None
    print(text)


def _emit_csv(header: list[str], rows: list, precision: int, path: str | None = None) -> None:
    """Print a CSV table, or write it to the file at path: the header line, then one line per row of
    values, a column of one type each: floats at precision significant digits, others as lowercased str.
    As for JSON, a non-finite float is an error, refused before anything is printed or the file opened."""
    spec = f".{precision}g"
    cells = []
    for column in zip(*rows):  # one finiteness check per float column
        if isinstance(column[0], float):
            if not all(map(math.isfinite, column)):
                raise GaussExtremalError("a result is not finite and cannot be written as CSV")
            cells.append([format(v, spec) for v in column])
        else:
            cells.append([str(v).lower() for v in column])
    text = "\n".join([",".join(header), *map(",".join, zip(*cells))])
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            print(text, file=fh)


def _check_args(args) -> None:
    """Input checks shared by every subcommand; fills in a drawing command's default seed."""
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{key.replace('_', '-')} must be finite, got {value}")
    if not 1 <= args.precision <= 17:  # 17 significant digits round-trip every double
        raise DomainError(f"--precision must lie in [1, 17], got {args.precision}")
    if not hasattr(args, "seed"):
        return
    source = "--seed"
    if args.seed is None:
        source, raw = "GAUSS_EXTREMAL_SEED", os.environ.get("GAUSS_EXTREMAL_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            raise DomainError(f"GAUSS_EXTREMAL_SEED is not an integer: {raw!r}") from None
    check_seed(args.seed, source)


def _cmd_region(args) -> int:
    v = region_verdict(args.rho, args.rx, args.ry, args.nux, args.nuy)
    payload = dataclasses.asdict(v)
    if args.output == "json":
        _emit_json(payload, args.precision)
    else:
        keys = sorted(payload)
        _emit_csv(keys, [[payload[k] for k in keys]], args.precision)
    return 0 if v.inside else 1


def _cmd_dual(args) -> int:
    try:  # an empty entry, as in "2,,3" or "3,", is malformed too
        lambdas = [float(s) for s in args.lambdas.split(",")]
    except ValueError:
        raise DomainError(f"--lambdas must list numbers, got {args.lambdas!r}") from None
    if not all(math.isfinite(lam) for lam in lambdas):
        raise DomainError(f"--lambdas must be finite, got {args.lambdas!r}")
    rows = []
    for lam in lambdas:
        closed = scalar_dual_closed(lam, args.rho).value_bits
        oracle = scalar_dual_oracle(lam, args.rho, args.grid)
        rows.append((lam, closed, oracle, oracle - closed))
    if args.output == "json":
        _emit_json(
            {"rho": args.rho, "grid": args.grid,
             "rows": [dict(zip(("lam", "f_closed", "f_oracle", "gap"), r)) for r in rows]},
            args.precision,
        )
    else:
        _emit_csv(["lambda", "f_closed", "f_oracle", "gap"], rows, args.precision)
    return 0


def _cmd_verify(args) -> int:
    summary = run_verify_sweep(args.mode, args.trials, args.dim, args.seed)
    gaps = summary.pop("gaps")
    if args.samples_csv:
        _emit_csv(["sample", "gap"], list(enumerate(gaps.tolist())), args.precision, args.samples_csv)
    _emit_json(summary, args.precision)
    return 0 if summary["negative_count"] == 0 else 1


# The --sigma-file layout {"n": N, "data": [...]} is decoded _PIECE characters at a time, so that
# reading it holds the n x n array and about one piece of text and numbers beside it, not the
# whole text and a list of n^2 floats (24 MB and 32 MB at n = 1024).
_PIECE = 1 << 18
_LONGEST = 1 << 12  # characters of the head, or of one entry, past which the file is read whole
_WS = "[ \t\n\r]*"  # JSON's whitespace
_HEAD = re.compile(_WS.join(["", r"\{", '"n"', ":", "([1-9][0-9]*)", ",", '"data"', ":", r"\["]))


def _read_pieces(fh) -> np.ndarray | None:
    """The matrix of a file laid out as {"n": N, "data": [...]}, or None where the file may fail
    matrix_from_json's checks or has another layout. Each piece of the data array is cut at its
    last comma and decoded by json, then checked as matrix_from_json checks the whole: numbers
    only, at most n^2 of them, finite."""
    text = ""
    while (head := _HEAD.match(text)) is None:
        piece = fh.read(_PIECE)
        if not piece or len(text) > _LONGEST:
            return None
        text += piece
    n = int(head[1])
    count = n * n
    if count > (os.fstat(fh.fileno()).st_size + 1) // 2:  # n^2 numbers take at least 2n^2 - 1 bytes
        return None
    a, filled, text = np.empty(count), 0, text[head.end():]
    while True:
        piece = fh.read(_PIECE)
        if piece:
            body, cut, text = (text + piece).rpartition(",")
            if not cut:  # one entry spans every piece since the last comma
                if len(text) > _LONGEST:
                    return None
                continue
        else:  # the last entry, then "]" and "}" between JSON whitespace
            body, cut, tail = text.rpartition("]")
            if not cut or tail.strip(" \t\n\r") != "}":
                return None
        values = json.loads(f"[{body}]")
        end = filled + len(values)
        if not values or not set(map(type, values)) <= {int, float} or end > count:
            return None
        a[filled:end] = values
        if not np.all(np.isfinite(a[filled:end])):
            return None
        filled = end
        if not piece:
            return a.reshape(n, n) if filled == count else None


def _read_sigma_file(path: str) -> np.ndarray:
    """The --sigma-file's matrix: read in pieces where _read_pieces accepts the file, else decoded
    whole by json.load and checked by matrix_from_json, which give every error message."""
    with open(path, encoding="utf-8") as fh:
        if fh.seekable():  # a pipe cannot be read twice: it is decoded whole
            try:
                sigma = _read_pieces(fh)
            except (ValueError, RecursionError, OverflowError, MemoryError):  # json.load gives the verdict
                sigma = None
            if sigma is not None:
                return sigma
            fh.seek(0)
        # Every way the file fails to decode as JSON: UTF-8 text, one recursion per nesting
        # level, and int's 4300-digit limit, a ValueError as the other two's errors are.
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise DomainError(f"--sigma-file is not readable JSON: {exc}") from None
    return matrix_from_json(obj)


def _cmd_ellipsoid(args) -> int:
    params = dict(n=args.n, k=args.k, rho=args.rho, nu_x=args.nux, nu_y=args.nuy,
                  delta=args.delta, trials=args.trials, seed=args.seed)
    # Before sigma: parsing a --sigma-file takes about half a second at n = 1024.
    check_scalar_params(**params)
    if args.sigma_file is not None:
        sigma = _read_sigma_file(args.sigma_file)
        if sigma.shape[0] != args.n:
            raise DomainError("sigma file dimension does not match --n")
    else:
        sigma = np.eye(args.n)
    config = CodecConfig(sigma=sigma, **params)
    del sigma  # the config keeps only its trace and log|sigma|: not 8 MB alive through the run at n = 1024
    report = run_simulation(config)
    if args.trials_csv:
        _emit_csv(*trials_csv_rows(report), args.precision, args.trials_csv)
    _emit_json(report_to_dict(report), args.precision)
    return 0 if report.region_inside and report.residual_max <= IDENTITY_TOL else 1


@functools.cache  # one build per process, not one per command
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-extremal",
        description="Gaussian information-inequality and rate-region toolkit",
    )
    # Options match by full name only: as a prefix, --sigma would read as --sigma-file.
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="rate-region membership query", allow_abbrev=False)
    p_region.add_argument("--rho", type=float, required=True)
    p_region.add_argument("--rx", type=float, required=True)
    p_region.add_argument("--ry", type=float, required=True)
    p_region.add_argument("--nux", type=float, required=True)
    p_region.add_argument("--nuy", type=float, required=True)
    p_region.add_argument("--output", choices=("json", "csv"), default="json")

    p_dual = sub.add_parser("dual", help="dual-function table: closed form vs grid oracle", allow_abbrev=False)
    p_dual.add_argument("--rho", type=float, required=True)
    p_dual.add_argument("--lambdas", type=str, required=True,
                        help="comma-separated lambda values")
    p_dual.add_argument("--grid", type=int, default=500)
    p_dual.add_argument("--output", choices=("json", "csv"), default="csv")

    p_verify = sub.add_parser("verify", help="randomized inequality falsification sweep", allow_abbrev=False)
    p_verify.add_argument("--mode", choices=VERIFY_MODES, required=True)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--dim", type=int, default=4)
    p_verify.add_argument("--samples-csv", type=str, default=None,
                          help="write per-sample gaps to this file")

    p_ell = sub.add_parser("ellipsoid", help="covering-ellipsoid Monte Carlo simulation", allow_abbrev=False)
    p_ell.add_argument("--n", type=int, required=True)
    p_ell.add_argument("--k", type=int, required=True)
    p_ell.add_argument("--rho", type=float, required=True)
    p_ell.add_argument("--nux", type=float, required=True)
    p_ell.add_argument("--nuy", type=float, required=True)
    p_ell.add_argument("--delta", type=float, default=0.0025)
    p_ell.add_argument("--trials", type=int, default=100)
    p_ell.add_argument("--sigma-file", type=str, default=None,
                       help="source covariance as JSON (default: the identity)")
    p_ell.add_argument("--trials-csv", type=str, default=None,
                       help="write per-trial rows to this file")

    for p in (p_verify, p_ell):  # the commands that draw
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default: GAUSS_EXTREMAL_SEED or 0)")
    for p in (p_region, p_dual, p_verify, p_ell):
        p.add_argument("--precision", type=int, default=12,
                       help="significant digits in printed numbers, 1 to 17")
    return parser


_COMMANDS = {
    "region": _cmd_region,
    "dual": _cmd_dual,
    "verify": _cmd_verify,
    "ellipsoid": _cmd_ellipsoid,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except (GaussExtremalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large for the memory at hand, such as ellipsoid --n 10^6
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
