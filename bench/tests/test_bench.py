"""Tests of the benchmark harness on tiny inputs.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
import workloads
from gauss_extremal import cli, ellipsoid_codec, extremal, gauss_model, rng


def traced(name, size, seed=1, reference=None):
    # seconds=0 runs the minimum number of timed passes, half of them traced.
    return harness.measure(name, seed, 0.0, True, size=size, reference=reference)


@pytest.mark.parametrize(
    "name, size, expected",
    [
        ("sweep", 2, {"rng.stream": 1}),
        ("ellipsoid-small", 2, {
            "rng.stream": 3,
            "ellipsoid_codec.build_shrunk_matrix": 2,
            "numpy.linalg.slogdet": 6,
        }),
        ("dual-oracle", 1, {"extremal.scalar_dual_oracle": 1}),
    ],
)
def test_calls_per_op_match_hand_derived_counts(name, size, expected):
    result = traced(name, size)
    assert result["failed"] == 0, result["messages"]
    assert result["missing_layers"] == []
    for layer, per_op in expected.items():
        assert result["metrics"][f"{layer}.calls"] == per_op, layer


@pytest.mark.parametrize("name, size", [("sweep", 2), ("ellipsoid-small", 2)])
def test_call_counts_repeat_across_traced_runs(name, size):
    first, second = traced(name, size), traced(name, size)
    calls = [{k: v for k, v in r["metrics"].items() if k.endswith(".calls")} for r in (first, second)]
    assert calls[0] == calls[1]
    assert first["failed"] == second["failed"] == 0


def reference_for(name, size, seed=1):
    harness.OUT.mkdir(exist_ok=True)
    return {
        cmd.key: workloads.values(cmd, harness.run_command(cmd)[0])
        for cmd in workloads.build(name, seed, harness.OUT, size)
    }


@pytest.mark.parametrize(
    "name, size, field",
    [("sweep", 2, "gaps"), ("ellipsoid-small", 2, "trials"), ("dual-oracle", 1, "closed")],
)
def test_corrupted_reference_value_is_a_failed_op(name, size, field):
    reference = reference_for(name, size)
    clean = traced(name, size, reference=reference)
    assert clean["failed"] == 0, clean["messages"]

    key = next(iter(reference))
    values = reference[key][field]
    if field == "trials":
        values[-1][-1] += 1e-9  # one trial's normalized volume
    else:
        values[-1] += 1e-9
    corrupted = traced(name, size, reference=reference)
    # One op fails in the warm-up pass and in every timed pass.
    assert corrupted["failed"] == corrupted["passes"] + 1
    assert corrupted["attempted"] == clean["attempted"]


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        "log_det": gauss_model.log_det,
        "stream": rng.stream,
        "scalar": vars(gauss_model.GaussianPairModel)["scalar"],
    }
    tracer = tracing.Tracer(tracing.LAYERS + ("extremal.no_such_function",))
    tracer.install()
    try:
        assert tracer.missing == ["extremal.no_such_function"]
        for module in (gauss_model, extremal, ellipsoid_codec):
            assert module.log_det is not originals["log_det"]
        for module in (rng, cli, ellipsoid_codec):
            assert module.stream is not originals["stream"]
        gauss_model.GaussianPairModel.scalar(0.5)
        extremal.scalar_extremal_gap(
            0.5,
            gauss_model.GaussianAuxChannel.scalar_corr(0.3, "x"),
            gauss_model.GaussianAuxChannel.degenerate_on("y"),
        )
    finally:
        tracer.uninstall()
    for module in (gauss_model, extremal, ellipsoid_codec):
        assert module.log_det is originals["log_det"]
    for module in (rng, cli, ellipsoid_codec):
        assert module.stream is originals["stream"]
    assert vars(gauss_model.GaussianPairModel)["scalar"] is originals["scalar"]
    totals = tracer.layer_totals()
    assert totals["gauss_model.GaussianPairModel.scalar"][0] == 2
    assert totals["extremal.scalar_extremal_gap"][0] == 1
    assert totals["extremal.no_such_function"] == (0, 0.0)
    # A parent's self time excludes its children's spans.
    assert all(self_s >= 0.0 for _, self_s in totals.values())


def test_untraced_run_reports_every_end_to_end_metric():
    result = harness.measure("ellipsoid-small", 1, 0.0, False, size=2)
    assert result["failed"] == 0, result["messages"]
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(value > 0 for value in result["metrics"].values())


def test_benchmark_json_names_match_the_metrics_reported():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_package_sources_exits_nonzero(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dual-oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_sweep_reports_scalar_and_vector_throughput():
    metrics = traced("sweep", 1)["metrics"]
    assert metrics["sweep.scalar_ops_per_s"] > 0.0
    assert metrics["sweep.vector_ops_per_s"] > 0.0
    assert traced("dual-oracle", 1)["metrics"]["sweep.scalar_ops_per_s"] == 0.0
