import random
from fractions import Fraction

import pytest

from frobrank import (
    GF,
    QQ,
    Matrix,
    extend_basis,
    inverse,
    kernel_basis,
    pivot_column_basis,
    rank,
    rref,
    solve_right,
)
from frobrank.errors import DimensionMismatch, NotContained, NotIndependent


def test_rref_by_hand():
    res = rref(Matrix(QQ, [[1, 2, 3], [0, 1, 0]]))
    assert res.rref == Matrix(QQ, [[1, 0, 3], [0, 1, 0]])
    assert res.pivot_cols == (0, 1)
    assert res.rank == 2


def test_rref_identity_and_zero():
    eye = Matrix.identity(QQ, 3)
    assert rref(eye).rref == eye
    assert rref(eye).rank == 3
    zero = Matrix.zeros(QQ, 2, 2)
    res = rref(zero)
    assert res.rref == zero
    assert res.pivot_cols == ()
    assert res.rank == 0


def test_rref_over_gf5():
    res = rref(Matrix(GF(5), [[2, 4], [1, 2]]))
    assert res.rref == Matrix(GF(5), [[1, 2], [0, 0]])
    assert res.rank == 1


def test_rref_empty_shapes():
    assert rref(Matrix.zeros(QQ, 0, 3)).rank == 0
    assert rref(Matrix.zeros(QQ, 3, 0)).rank == 0


def test_kernel_basis_by_hand():
    # rows impose x + 3y = 0; the canonical kernel vector is (-3, 1).
    m = Matrix(QQ, [[1, 3], [1, 3], [0, 0]])
    k = kernel_basis(m)
    assert k == Matrix(QQ, [[-3], [1]])
    assert (m @ k).is_zero


def test_kernel_basis_trivial_and_full():
    assert kernel_basis(Matrix.identity(QQ, 2)).shape == (2, 0)
    assert kernel_basis(Matrix.zeros(QQ, 2, 2)) == Matrix.identity(QQ, 2)


def test_kernel_basis_free_column_order():
    m = Matrix(QQ, [[1, 0, 2], [0, 0, 0]])
    assert kernel_basis(m) == Matrix(QQ, [[0, -2], [1, 0], [0, 1]])


def test_pivot_column_basis():
    b = Matrix(QQ, [[1, 2, 3], [0, 1, 0]])
    assert pivot_column_basis(b) == Matrix(QQ, [[1, 2], [0, 1]])
    eye = Matrix.identity(QQ, 4)
    assert pivot_column_basis(eye) == eye
    assert pivot_column_basis(Matrix(QQ, [[1, 2], [2, 4]])) == Matrix(QQ, [[1], [2]])


def test_extend_basis_worked_example():
    partial = Matrix(QQ, [[-1], [1]])
    space = Matrix(QQ, [[1, 2, 3], [0, 1, 0]])
    assert extend_basis(partial, space) == Matrix(QQ, [[-1, 1], [1, 0]])


def test_extend_basis_from_empty_and_full():
    eye = Matrix.identity(QQ, 2)
    assert extend_basis(Matrix.zeros(QQ, 2, 0), eye) == eye
    assert extend_basis(eye, eye) == eye


def test_extend_basis_preconditions():
    eye = Matrix.identity(QQ, 2)
    with pytest.raises(NotIndependent):
        extend_basis(Matrix(QQ, [[1, 1], [1, 1]]), eye)
    with pytest.raises(NotContained):
        extend_basis(Matrix(QQ, [[0], [1]]), Matrix(QQ, [[1], [0]]))


def test_solve_right_worked_example():
    n = Matrix(QQ, [[4, -1], [0, -1]])
    m = Matrix(QQ, [[-1], [1]])
    z = solve_right(n, m)
    assert z == Matrix(QQ, [[Fraction(-1, 2)], [-1]])
    assert n @ z == m


def test_solve_right_identity_and_inconsistent():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert solve_right(Matrix.identity(QQ, 2), m) == m
    assert solve_right(Matrix(QQ, [[1], [0]]), Matrix(QQ, [[0], [1]])) is None


def test_solve_right_zero_columns():
    empty = Matrix.zeros(QQ, 2, 0)
    assert solve_right(empty, Matrix.zeros(QQ, 2, 1)) == Matrix.zeros(QQ, 0, 1)
    assert solve_right(empty, Matrix(QQ, [[1], [0]])) is None
    assert solve_right(empty, Matrix.zeros(QQ, 2, 0)).shape == (0, 0)


def test_solve_right_shape_guard():
    with pytest.raises(DimensionMismatch):
        solve_right(Matrix.zeros(QQ, 2, 2), Matrix.zeros(QQ, 3, 1))


def test_inverse():
    m = Matrix(QQ, [[4, -1], [0, -1]])
    inv = inverse(m)
    assert m @ inv == Matrix.identity(QQ, 2)
    assert inverse(Matrix(QQ, [[1, 2], [2, 4]])) is None
    with pytest.raises(DimensionMismatch):
        inverse(Matrix.zeros(QQ, 2, 3))


def test_rank_transpose_examples():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])
    assert rank(m) == rank(m.transpose()) == 2


def _greedy_extend_basis(partial, space):
    # The original scan, kept as the reference: append each pivot column
    # of ``space`` that raises the rank, until the span's rank is reached.
    if rank(partial) != partial.cols:
        raise NotIndependent("starting columns are linearly dependent")
    space_rank = rank(space)
    if partial.cols and rank(space.hstack(partial)) != space_rank:
        raise NotContained("starting columns leave the column span of space")
    result = partial
    have = partial.cols
    for c in rref(space).pivot_cols:
        if have == space_rank:
            break
        candidate = result.hstack(space.col(c))
        if rank(candidate) == have + 1:
            result = candidate
            have += 1
    return result


def _outcome(fn, partial, space):
    try:
        return fn(partial, space)
    except (NotIndependent, NotContained) as exc:
        return type(exc)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=lambda f: f.label)
def test_extend_basis_matches_greedy_scan(field):
    rng = random.Random(20191)

    def draw(rows, cols):
        if field.modulus is None:
            data = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)]
                    for _ in range(rows)]
        else:
            data = [[rng.randrange(field.modulus) for _ in range(cols)] for _ in range(rows)]
        return Matrix(field, data, shape=(rows, cols))

    seen = set()
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        # A thin product keeps most spaces rank-deficient.
        inner = rng.randint(0, min(rows, cols))
        space = draw(rows, inner) @ draw(inner, cols)
        inside = space @ draw(cols, rng.randint(0, 3))
        outside = draw(rows, rng.randint(0, 2))
        for partial in (inside, inside.hstack(outside), outside.hstack(inside)):
            expected = _outcome(_greedy_extend_basis, partial, space)
            assert _outcome(extend_basis, partial, space) == expected
            seen.add(expected if isinstance(expected, type) else Matrix)
        # Dependent columns that also leave the span: NotIndependent wins.
        both = outside.hstack(outside)
        if outside.cols and rank(space.hstack(outside)) > rank(space):
            assert _outcome(_greedy_extend_basis, both, space) is NotIndependent
            assert _outcome(extend_basis, both, space) is NotIndependent
            seen.add("both")
    assert seen == {Matrix, NotIndependent, NotContained, "both"}
