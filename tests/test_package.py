import ast
import importlib
from pathlib import Path

import pytest

from gauss_extremal import rng
from gauss_extremal.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gauss_extremal"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may rely on one.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), "package sources not found"
    assert found == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_stream_rejects_seed_outside_domain(seed):
    with pytest.raises(DomainError, match=r"\[0, 2\^64\)"):
        rng.stream(seed, 0, 0)


def test_stream_accepts_domain_ends():
    assert rng.stream(0, 0, 0).uniform() == rng.stream(0, 0, 0).uniform()
    rng.check_seed(2**64 - 1)


def test_names_the_benchmark_resolves_exist():
    # bench/tracing.py wraps its LAYERS by name and reports a missing one
    # instead of failing, and bench/tests names cli.run_verify_sweep and
    # the log_det and stream re-exports: a rename or deletion must fail here.
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    layers = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    )
    assert len(layers) > 20
    missing = []
    for name in (*layers, "cli.run_verify_sweep", "cli.stream", "ellipsoid_codec.stream", "ellipsoid_codec.log_det"):
        if name.startswith("numpy.linalg."):
            module, path = "numpy.linalg", name[len("numpy.linalg."):].split(".")
        else:
            head, *path = name.split(".")
            module = f"gauss_extremal.{head}"
        obj = importlib.import_module(module)
        for part in path:
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []
