"""The benchmark's workloads: inputs made from a seed, the CLI commands of
one pass, and the checks applied to each command's output.

A pass is many short commands: the machine this was tuned on changes
speed every few seconds, and a command's fastest time over a run is
steadier the shorter the command. Each verify and ellipsoid command has
its own CLI --seed, drawn from the workload seed (command_seeds). The
covariance of ellipsoid-large and the rho/lambda table of dual-oracle are
drawn from numpy.random.default_rng(seed). One op is one sweep sample, one
simulator trial or one dual lambda row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "ellipsoid-large", "ellipsoid-small", "dual-oracle")

# Input size: samples per verify command, trials per ellipsoid command,
# lambdas on each side of 1/rho^2 per dual rho (one command per lambda).
# Commands take 15 to 70 ms each, except ellipsoid-large, whose every
# command parses its 24 MB covariance file.
DEFAULT_SIZE = {
    "sweep": 30,
    "ellipsoid-large": 3,
    "ellipsoid-small": 50,
    "dual-oracle": 1,
}

# Commands per sweep mode or ellipsoid shape, each with its own seed.
COMMANDS = {"sweep": 4, "ellipsoid-large": 1, "ellipsoid-small": 6}

# (mode, dim) of the sweep's verify commands, by the throughput they count in.
SWEEP_MODES = {
    "scalar": (("thm3", 1), ("thm1-scalar", 1), ("oohama", 1)),
    "vector": (("thm1-vector", 2), ("thm1-vector", 8), ("vec-epi", 4)),
}
ELLIPSOID_SHAPE = {"ellipsoid-large": (1024, 8), "ellipsoid-small": (32, 4)}
ELLIPSOID_ARGS = ("--rho", "0.6", "--nux", "0.3", "--nuy", "0.3")
DUAL_RHOS = 4
DUAL_GRID = 2000

# 17 significant digits round-trip a double, so printing does not limit
# the comparisons below.
PRECISION = "17"

GAP_TOL = 1e-9  # a sweep gap below -GAP_TOL is a violation (the CLI's own rule)
RESIDUAL_TOL = 1e-9  # determinant-identity residual accepted by the CLI's exit rule
DUAL_AGREE_TOL = 1e-3  # C1: grid-oracle discretization error at grid 2000
DUAL_FLOOR_TOL = 1e-9  # C1: a grid minimum cannot undercut the exact infimum beyond roundoff
REFERENCE_TOL = 1e-12  # default-seed agreement of gaps, volumes and closed forms

ELLIPSOID_COVERAGE = ("coverage_x", "coverage_y")
ELLIPSOID_VOLUMES = (
    "mean_norm_vol_x", "mean_norm_vol_y", "mean_norm_vol_x_corrected", "mean_norm_vol_y_corrected",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass."""

    key: str  # stable within the workload; indexes timings and references
    kind: str  # "verify" | "ellipsoid" | "dual"
    argv: tuple[str, ...]
    ops: int
    output_file: str | None = None  # CSV the command writes, read back by the checks
    group: str | None = None  # "scalar" | "vector" for sweep commands


@dataclass(frozen=True)
class Outcome:
    rc: int | None  # None when the command raised
    stdout: str
    output_file: str  # text of the command's CSV output, "" when it has none
    stderr: str


def write_sigma(path: Path, n: int, seed: int) -> None:
    """Seeded dense SPD covariance as --sigma-file JSON.

    sigma_ij = sqrt(d_i d_j) r^|i-j| (a rescaled Kac-Murdock-Szego matrix):
    exactly symmetric, condition number below 300, and computed entrywise
    without BLAS, so the file is bit-identical on any thread count. With
    r >= 0.9 no entry underflows at n = 1024, so every seed writes a file
    of the same length, and parsing it costs the same.
    """
    gen = np.random.default_rng(seed)
    d = np.sqrt(gen.uniform(0.5, 2.0, n))
    r = gen.uniform(0.9, 0.97)
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    sigma = np.outer(d, d) * r ** lag
    with open(path, "w") as fh:
        fh.write(f'{{"n": {n}, "data": [')
        for i, row in enumerate(sigma.tolist()):
            fh.write((", " if i else "") + ", ".join(map(repr, row)))
        fh.write("]}")


def dual_table(seed: int, size: int) -> list[tuple[float, list[float]]]:
    """(rho, lambdas) per dual command: size lambdas below 1/rho^2 and size
    above it, in the ranges the C1 acceptance test covers."""
    gen = np.random.default_rng(seed)
    table = []
    for _ in range(DUAL_RHOS):
        r2 = float(gen.uniform(0.2, 0.8))
        below = gen.uniform(0.0, 0.95, size) / r2
        above = np.exp(gen.uniform(math.log(1.01), math.log(30.0), size)) / r2
        table.append((math.sqrt(r2), [float(v) for v in np.concatenate([below, above])]))
    return table


def command_seeds(seed: int, count: int) -> list[int]:
    """CLI seeds of a workload's commands: distinct, and fixed by the workload seed."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def build(name: str, seed: int, workdir: Path, size: int | None = None) -> list[Command]:
    """The commands of one pass of a workload, writing any input files to workdir."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    size = DEFAULT_SIZE[name] if size is None else size
    commands = []
    if name == "sweep":
        seeds = command_seeds(seed, COMMANDS[name])
        for group, modes in SWEEP_MODES.items():
            for mode, dim in modes:
                for j, cmd_seed in enumerate(seeds):
                    key = f"{mode}-d{dim}-{j}"
                    csv = str(workdir / f"{name}-{key}.csv")
                    argv = ("verify", "--mode", mode, "--dim", str(dim), "--trials", str(size),
                            "--samples-csv", csv, "--seed", str(cmd_seed), "--precision", PRECISION)
                    commands.append(Command(key, "verify", argv, size, csv, group))
        return commands
    if name in ELLIPSOID_SHAPE:
        n, k = ELLIPSOID_SHAPE[name]
        shared = ("ellipsoid", "--n", str(n), "--k", str(k), "--trials", str(size)) + ELLIPSOID_ARGS
        if name == "ellipsoid-large":
            sigma = workdir / f"{name}-sigma.json"
            write_sigma(sigma, n, seed)
            shared += ("--sigma-file", str(sigma))
        for j, cmd_seed in enumerate(command_seeds(seed, COMMANDS[name])):
            key = f"n{n}-k{k}-{j}"
            argv = shared + ("--seed", str(cmd_seed), "--precision", PRECISION)
            csv = None
            if name == "ellipsoid-small":
                csv = str(workdir / f"{name}-{key}-trials.csv")
                argv += ("--trials-csv", csv)
            commands.append(Command(key, "ellipsoid", argv, size, csv))
        return commands
    for i, (rho, lams) in enumerate(dual_table(seed, size)):
        for j, lam in enumerate(lams):
            argv = ("dual", "--rho", repr(rho), "--lambdas", repr(lam), "--grid", str(DUAL_GRID),
                    "--precision", PRECISION)
            commands.append(Command(f"rho{i}-lam{j}", "dual", argv, 1))
    return commands


def _csv_rows(text: str) -> list[list[float]]:
    return [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]


def values(cmd: Command, outcome: Outcome) -> dict:
    """The numbers the checks and the reference comparison read.

    Raises ValueError, KeyError, IndexError or TypeError on malformed output.
    """
    if cmd.kind == "verify":
        return {"gaps": [row[1] for row in _csv_rows(outcome.output_file)]}
    if cmd.kind == "ellipsoid":
        summary = json.loads(outcome.stdout)
        keys = ELLIPSOID_COVERAGE + ELLIPSOID_VOLUMES + ("residual_max", "region_inside")
        found = {key: summary[key] for key in keys}
        if cmd.output_file:
            found["trials"] = [row[1:] for row in _csv_rows(outcome.output_file)]
        return found
    rows = _csv_rows(outcome.stdout)
    return {"closed": [row[1] for row in rows], "oracle": [row[2] for row in rows]}


def failed_ops(cmd: Command, outcome: Outcome, reference: dict | None = None) -> int:
    """Failed ops of one command. An op fails when its command raised or
    exited non-zero, when its output is missing or malformed, when it breaks
    a check that holds on every seed, or, given the default-seed reference,
    when it disagrees with it."""
    if outcome.rc != 0:
        return cmd.ops
    try:
        found = values(cmd, outcome)
        if cmd.kind == "verify":
            bad = _verify_failures(found, reference)
        elif cmd.kind == "ellipsoid":
            bad = _ellipsoid_failures(cmd, found, reference)
        else:
            bad = _dual_failures(found, reference)
    except (ValueError, KeyError, IndexError, TypeError):
        return cmd.ops
    return sum(bad[: cmd.ops]) + max(0, cmd.ops - len(bad))


def _verify_failures(found: dict, reference: dict | None) -> list[bool]:
    gaps = found["gaps"]
    bad = [gap < -GAP_TOL for gap in gaps]
    if reference is not None:
        ref = reference["gaps"]
        bad = [b or i >= len(ref) or abs(gaps[i] - ref[i]) > REFERENCE_TOL for i, b in enumerate(bad)]
    return bad


def _ellipsoid_failures(cmd: Command, found: dict, reference: dict | None) -> list[bool]:
    ok = found["residual_max"] <= RESIDUAL_TOL and found["region_inside"] is True
    if ok and reference is not None:
        ok = all(found[key] == reference[key] for key in ELLIPSOID_COVERAGE) and all(
            abs(found[key] - reference[key]) <= REFERENCE_TOL for key in ELLIPSOID_VOLUMES
        )
    if not ok:
        return [True] * cmd.ops
    if "trials" not in found:
        return [False] * cmd.ops
    rows = found["trials"]
    if reference is None:
        return [len(row) != 4 for row in rows]
    ref = reference["trials"]
    # Per trial: covered fractions exactly, normalized volumes to REFERENCE_TOL.
    return [
        i >= len(ref) or row[:2] != ref[i][:2]
        or any(abs(a - b) > REFERENCE_TOL for a, b in zip(row[2:], ref[i][2:]))
        for i, row in enumerate(rows)
    ]


def _dual_failures(found: dict, reference: dict | None) -> list[bool]:
    closed, oracle = found["closed"], found["oracle"]
    bad = [
        abs(o - c) > DUAL_AGREE_TOL or o < c - DUAL_FLOOR_TOL for c, o in zip(closed, oracle)
    ]
    if reference is not None:
        ref = reference["closed"]
        bad = [b or i >= len(ref) or abs(closed[i] - ref[i]) > REFERENCE_TOL for i, b in enumerate(bad)]
    return bad
