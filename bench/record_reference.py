"""Record the default-seed reference outputs the benchmark compares against.

    python3 bench/record_reference.py

Runs one pass of every workload at seed 0 and its default input size and
writes the parsed outputs to bench/reference/seed0.json. Rerun it only
when a change is meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # as in run.py
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    harness.OUT.mkdir(exist_ok=True)
    reference = {}
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for cmd in workloads.build(name, 0, harness.OUT):
            outcome, _, _ = harness.run_command(cmd)
            if outcome.rc != 0:
                print(f"error: {name} {cmd.key} exited {outcome.rc}\n{outcome.stderr}", file=sys.stderr)
                return 1
            reference[name][cmd.key] = workloads.values(cmd, outcome)
    harness.REFERENCE.parent.mkdir(exist_ok=True)
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
