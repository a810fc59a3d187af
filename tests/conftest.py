import os
from pathlib import Path

import pytest

from frobrank import GF, QQ, Matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture(autouse=True)
def checkout_on_subprocess_path(monkeypatch):
    # `python -m frobrank` subprocesses import the package under test from
    # this checkout's src, not an installed copy, with or without PYTHONPATH.
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))


@pytest.fixture
def tight_triple():
    # Rank-2 triple where the inequality is tight; used as the golden case.
    a = Matrix(QQ, [[1, 1], [1, 1], [0, 0]])
    b = Matrix(QQ, [[1, 2, 3], [0, 1, 0]])
    c = Matrix(QQ, [[1, 1], [0, -1], [1, 0]])
    return a, b, c


@pytest.fixture
def strict_triple():
    a = Matrix(QQ, [[1, 0], [0, 0]])
    b = Matrix.identity(QQ, 2)
    c = Matrix(QQ, [[1, 0], [0, 0]])
    return a, b, c


@pytest.fixture
def strict_triple_gf2():
    f = GF(2)
    a = Matrix(f, [[1, 0], [0, 0]])
    b = Matrix.identity(f, 2)
    c = Matrix(f, [[1, 0], [0, 0]])
    return a, b, c
