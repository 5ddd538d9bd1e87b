"""Command-line surface: region queries, dual-function tables, inequality
falsification sweeps, and covering-ellipsoid simulations.

Data goes to stdout, diagnostics to stderr. All randomized commands are
deterministic under a fixed seed (--seed, else GAUSS_EXTREMAL_SEED, else
0), and outputs are canonically ordered, so repeated runs are
byte-identical. Exit codes: 0 success (region: inside; verify: no
violations; ellipsoid: region ok and identity residual small), 1 checked
condition failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import DomainError, GaussExtremalError
from .extremal import scalar_dual_closed, scalar_dual_oracle
from .gauss_model import matrix_from_json
from .ellipsoid_codec import CodecConfig, report_to_dict, run_simulation, trials_csv_rows
from .rate_region import RegionQuery, region_verdict
# run_verify_sweep and stream stay importable from this module: the
# acceptance tests and the benchmark's tracer tests name them here.
from .rng import check_seed, stream  # noqa: F401
from .sweep import VERIFY_MODES, run_verify_sweep


def _fmt(value: float, precision: int) -> str:
    return format(value, f".{precision}g")


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return float(_fmt(obj, precision))
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


def _emit_csv(header: list[str], rows: list, precision: int) -> None:
    # As for JSON: a non-finite number is an error, not a printed inf or nan.
    lines = [",".join(header)]
    for row in rows:
        if any(isinstance(v, float) and not math.isfinite(v) for v in row):
            raise GaussExtremalError("a result is not finite and cannot be written as CSV")
        lines.append(",".join(
            _fmt(v, precision) if isinstance(v, float) else str(v).lower() for v in row
        ))
    print("\n".join(lines))


def _check_args(args) -> None:
    """Input checks shared by every subcommand; fills in the default seed."""
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{key.replace('_', '-')} must be finite, got {value}")
    if args.precision < 1:
        raise DomainError(f"--precision must be at least 1, got {args.precision}")
    source = "--seed"
    if args.seed is None:
        source, raw = "GAUSS_EXTREMAL_SEED", os.environ.get("GAUSS_EXTREMAL_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            raise DomainError(f"GAUSS_EXTREMAL_SEED is not an integer: {raw!r}") from None
    check_seed(args.seed, source)


def _cmd_region(args) -> int:
    q = RegionQuery(rho=args.rho, r_x=args.rx, r_y=args.ry, nu_x=args.nux, nu_y=args.nuy)
    v = region_verdict(q)
    payload = {
        "inside": v.inside,
        "satisfies_rx": v.satisfies_rx,
        "satisfies_ry": v.satisfies_ry,
        "satisfies_sum": v.satisfies_sum,
        "slack_rx": v.slack_rx,
        "slack_ry": v.slack_ry,
        "slack_sum": v.slack_sum,
    }
    if args.output == "json":
        _emit_json(payload, args.precision)
    else:
        keys = sorted(payload)
        _emit_csv(keys, [[payload[k] for k in keys]], args.precision)
    return 0 if v.inside else 1


def _cmd_dual(args) -> int:
    try:
        lambdas = [float(s) for s in args.lambdas.split(",") if s.strip()]
    except ValueError:
        raise DomainError(f"--lambdas must list numbers, got {args.lambdas!r}") from None
    if not lambdas:
        raise GaussExtremalError("--lambdas must list at least one value")
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
        with open(args.samples_csv, "w") as fh:
            fh.write("sample,gap\n")
            for i, g in enumerate(gaps):
                fh.write(f"{i},{_fmt(float(g), args.precision)}\n")
    _emit_json(summary, args.precision)
    return 0 if summary["negative_count"] == 0 else 1


def _cmd_ellipsoid(args) -> int:
    if args.n < 1:  # before np.eye(args.n), which fails on a negative n
        raise DomainError(f"--n must be at least 1, got {args.n}")
    if args.sigma_file is not None:
        with open(args.sigma_file) as fh:
            sigma = matrix_from_json(json.load(fh))
        if sigma.shape[0] != args.n:
            raise GaussExtremalError("sigma file dimension does not match --n")
    elif args.sigma == "identity":
        sigma = np.eye(args.n)
    else:
        raise GaussExtremalError('--sigma accepts only "identity" (or use --sigma-file)')
    config = CodecConfig(
        n=args.n, k=args.k, rho=args.rho, sigma=sigma,
        nu_x=args.nux, nu_y=args.nuy, delta=args.delta,
        trials=args.trials, seed=args.seed,
    )
    report = run_simulation(config)
    if args.trials_csv:
        with open(args.trials_csv, "w") as fh:
            fh.write("\n".join(trials_csv_rows(report, args.precision)) + "\n")
    _emit_json(report_to_dict(report), args.precision)
    return 0 if report.region_inside and report.residual_max <= 1e-9 else 1


@functools.cache  # one build per process, not one per command
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-extremal",
        description="Gaussian information-inequality and rate-region toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default: GAUSS_EXTREMAL_SEED or 0)")
        p.add_argument("--precision", type=int, default=12,
                       help="significant digits in printed numbers")

    p_region = sub.add_parser("region", help="rate-region membership query")
    p_region.add_argument("--rho", type=float, required=True)
    p_region.add_argument("--rx", type=float, required=True)
    p_region.add_argument("--ry", type=float, required=True)
    p_region.add_argument("--nux", type=float, required=True)
    p_region.add_argument("--nuy", type=float, required=True)
    p_region.add_argument("--output", choices=("json", "csv"), default="json")
    common(p_region)

    p_dual = sub.add_parser("dual", help="dual-function table: closed form vs grid oracle")
    p_dual.add_argument("--rho", type=float, required=True)
    p_dual.add_argument("--lambdas", type=str, required=True,
                        help="comma-separated lambda values")
    p_dual.add_argument("--grid", type=int, default=500)
    p_dual.add_argument("--output", choices=("json", "csv"), default="csv")
    common(p_dual)

    p_verify = sub.add_parser("verify", help="randomized inequality falsification sweep")
    p_verify.add_argument("--mode", choices=VERIFY_MODES, required=True)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--dim", type=int, default=4)
    p_verify.add_argument("--samples-csv", type=str, default=None,
                          help="write per-sample gaps to this file")
    common(p_verify)

    p_ell = sub.add_parser("ellipsoid", help="covering-ellipsoid Monte Carlo simulation")
    p_ell.add_argument("--n", type=int, required=True)
    p_ell.add_argument("--k", type=int, required=True)
    p_ell.add_argument("--rho", type=float, required=True)
    p_ell.add_argument("--nux", type=float, required=True)
    p_ell.add_argument("--nuy", type=float, required=True)
    p_ell.add_argument("--delta", type=float, default=0.0025)
    p_ell.add_argument("--trials", type=int, default=100)
    p_ell.add_argument("--sigma", type=str, default="identity")
    p_ell.add_argument("--sigma-file", type=str, default=None)
    p_ell.add_argument("--trials-csv", type=str, default=None,
                       help="write per-trial rows to this file")
    common(p_ell)
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
    except (GaussExtremalError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
