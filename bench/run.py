"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
src/ directory. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1, the per-layer metrics. The line
before it carries the run's metadata and diagnostics, which are also
written to bench/.out/. Exits 2, printing no result, when the checkout
has no package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    # One BLAS thread, set before numpy loads: on a shared 2-core machine a
    # second OpenBLAS thread tripled the run-to-run spread of ellipsoid-large
    # and did not raise its median throughput.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = SRC / "gauss_extremal"
    if not (package / "cli.py").is_file():
        print(f"error: no package sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gauss_extremal

    if Path(gauss_extremal.__file__).resolve().parent != package.resolve():
        print(f"error: imported gauss_extremal from {gauss_extremal.__file__}, not {package}",
              file=sys.stderr)
        return 2

    import harness

    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = harness.per_layer_units() if args.trace else harness.END_TO_END_UNITS
    record = dict(result, meta=harness.metadata(args.seed))
    (harness.OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k not in ("metrics", "command_walls")}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
