"""Runs one workload in this process through gauss_extremal.cli.main and
computes its end-to-end or per-layer metrics.

A run is a warm-up pass followed by timed passes until the requested
seconds have elapsed. Every pass runs the same commands on the same
inputs, so a command's wall times over the passes are samples of one
quantity. Throughput is ops per pass over the sum of each command's
fastest time: the shared machine this was tuned on alternates between a
fast and a slow state every few seconds, and a median follows the share
of slow time in the run (45% run-to-run spread against 10% for the
fastest time, over six ellipsoid-small runs).

An untraced run reports the end-to-end metrics. A traced run alternates
untraced and traced passes: the traced passes give the per-layer metrics,
and the two sides together give the tracing overhead. Every pass's output
(stdout and CSV files) must be byte-identical to the warm-up pass's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from gauss_extremal import cli

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
REFERENCE = BENCH / "reference" / "seed0.json"

# Fresh interpreters per untraced run, spread evenly over its passes so
# that they sample the machine's fast and slow periods alike; setup_s is
# their median.
SETUP_STARTS = 15
MIN_PASSES = 4  # timed passes even when --seconds runs out first (2 per side when traced)
MAX_MESSAGES = 20  # failure messages kept per run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count/op"
        units[f"{layer}.self_s"] = "s/op"
    units.update({
        "extremal.scalar_dual_oracle.cells_per_s": "1/s",
        "sweep.scalar_ops_per_s": "sample/s",
        "sweep.vector_ops_per_s": "sample/s",
        "process.cpu_s": "s/op",
        "process.wall_s": "s/op",
        "trace.overhead_frac": "ratio",
    })
    return units


def oracle_cells(grid: int) -> int:
    """Nominal cells of one grid-oracle scan: the axis is the uniform grid
    plus the log refinement, squared. Computed from the grid size, not
    counted; np.unique may drop a few coinciding points."""
    return (grid + max(grid // 4, 16)) ** 2


def run_command(cmd: workloads.Command) -> tuple[workloads.Outcome, float, float]:
    """Run one command in-process with stdout and stderr captured.

    Returns the outcome, wall seconds and process CPU seconds (all threads).
    """
    if cmd.output_file:
        with contextlib.suppress(FileNotFoundError):
            os.remove(cmd.output_file)
    out, err = io.StringIO(), io.StringIO()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:  # argparse rejects argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed op: record it and keep running
        rc = None
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    written = ""
    if cmd.output_file:
        with contextlib.suppress(OSError):
            written = Path(cmd.output_file).read_text()
    return workloads.Outcome(rc, out.getvalue(), written, err.getvalue()), wall, cpu


class Run:
    """Passes of one workload, with failure counts and per-command timings."""

    def __init__(self, name: str, seed: int, size: int | None = None, reference: dict | None = None):
        OUT.mkdir(exist_ok=True)
        self.commands = workloads.build(name, seed, OUT, size)
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.expected: dict[str, str] = {}
        # Wall seconds per command key, for untraced (False) and traced (True) passes.
        self.walls = {side: {c.key: [] for c in self.commands} for side in (False, True)}
        self.cpu = 0.0  # process CPU seconds of the untraced timed passes
        self.ops = {False: 0, True: 0}
        self.command_id = 0

    def one_pass(self, tracer: tracing.Tracer | None = None, timed: bool = True) -> None:
        traced = tracer is not None
        for cmd in self.commands:
            self.command_id += 1
            if traced:
                tracer.command = self.command_id
            outcome, wall, cpu = run_command(cmd)
            bad = workloads.failed_ops(cmd, outcome, self.reference.get(cmd.key))
            message = f"{cmd.key}: {bad} of {cmd.ops} ops failed; rc={outcome.rc}; {outcome.stderr.strip()[-300:]}"
            signature = outcome.stdout + outcome.output_file
            if self.expected.setdefault(cmd.key, signature) != signature:
                bad = cmd.ops
                message = f"{cmd.key}: output differs from the warm-up pass (traced={traced})"
            if bad and len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)
            self.attempted += cmd.ops
            self.failed += bad
            if timed:
                self.walls[traced][cmd.key].append(wall)
                self.ops[traced] += cmd.ops
                if not traced:
                    self.cpu += cpu

    def ops_per_s(self, traced: bool = False, group: str | None = None) -> float:
        """Ops over the sum of each command's fastest time; 0.0 when no
        command is in the given group."""
        walls = self.walls[traced]
        commands = [c for c in self.commands if group is None or c.group == group]
        if not commands:
            return 0.0
        return sum(c.ops for c in commands) / sum(min(walls[c.key]) for c in commands)


def load_reference(name: str, seed: int, size: int | None) -> dict | None:
    """Reference outputs recorded at the default seed and input size."""
    if seed != 0 or size is not None:
        return None
    return json.loads(REFERENCE.read_text())[name]


def setup_seconds() -> float:
    """Wall time of a fresh interpreter from start through importing gauss_extremal.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gauss_extremal.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, trace: bool, size: int | None = None,
            reference: dict | None = None) -> dict:
    """One benchmark run. Returns counts, metrics and diagnostics."""
    run = Run(name, seed, size, reference if reference is not None else load_reference(name, seed, size))
    run.one_pass(timed=False)  # warm-up; also records the expected output
    tracer = tracing.Tracer() if trace else None
    setups = [] if trace else [setup_seconds()]
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        if trace and passes % 2 == 1:
            tracer.install()
            try:
                run.one_pass(tracer)
            finally:
                tracer.uninstall()
        else:
            run.one_pass()
        passes += 1
        if not trace and time.perf_counter() - start >= len(setups) * seconds / SETUP_STARTS:
            setups.append(setup_seconds())

    if trace:
        metrics = layer_metrics(run, tracer)
        tracer.write_spans(OUT / f"{name}.spans.csv")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": run.ops_per_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "ops_per_pass": sum(c.ops for c in run.commands),
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "metrics": metrics,
        "command_walls": run.walls[False],
        "missing_layers": tracer.missing if trace else [],
        "messages": run.messages,
    }


def layer_metrics(run: Run, tracer: tracing.Tracer) -> dict[str, float]:
    ops = run.ops[True]
    metrics = {}
    totals = tracer.layer_totals()
    for layer, (calls, self_s) in totals.items():
        metrics[f"{layer}.calls"] = calls / ops
        metrics[f"{layer}.self_s"] = self_s / ops
    oracle_calls, oracle_s = totals["extremal.scalar_dual_oracle"]
    metrics["extremal.scalar_dual_oracle.cells_per_s"] = (
        oracle_calls * oracle_cells(workloads.DUAL_GRID) / oracle_s if oracle_s > 0 else 0.0
    )
    # From the untraced passes, like the end-to-end ops_per_s.
    metrics["sweep.scalar_ops_per_s"] = run.ops_per_s(group="scalar")
    metrics["sweep.vector_ops_per_s"] = run.ops_per_s(group="vector")
    untraced_wall = sum(sum(walls) for walls in run.walls[False].values())
    metrics["process.cpu_s"] = run.cpu / run.ops[False]
    metrics["process.wall_s"] = untraced_wall / run.ops[False]
    metrics["trace.overhead_frac"] = 1.0 - run.ops_per_s(True) / run.ops_per_s(False)
    return metrics


def git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        return None
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def metadata(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }
