import ast
from pathlib import Path

import pytest

from gauss_extremal import rng
from gauss_extremal.errors import DomainError

SRC = Path(__file__).resolve().parent.parent / "src" / "gauss_extremal"


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
