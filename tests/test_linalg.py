import random
from fractions import Fraction

import pytest

from frobrank import (
    GF,
    QQ,
    Matrix,
    echelon,
    solve_right,
)
from frobrank.errors import DimensionMismatch
from frobrank.linalg import rref


def test_rref_by_hand():
    m = Matrix(QQ, [[1, 2, 3], [0, 1, 0]])
    assert rref(m) == Matrix(QQ, [[1, 0, 3], [0, 1, 0]])
    assert echelon(m).pivot_cols == (0, 1)


def test_rref_identity_and_zero():
    eye = Matrix.identity(QQ, 3)
    assert rref(eye) == eye
    assert echelon(eye).pivot_cols == (0, 1, 2)
    zero = Matrix.zeros(QQ, 2, 2)
    assert rref(zero) == zero
    assert echelon(zero).pivot_cols == ()


def test_rref_over_gf5():
    m = Matrix(GF(5), [[2, 4], [1, 2]])
    assert rref(m) == Matrix(GF(5), [[1, 2], [0, 0]])
    assert echelon(m).pivot_cols == (0,)


def test_rref_empty_shapes():
    for shape in ((0, 3), (3, 0)):
        empty = Matrix.zeros(QQ, *shape)
        assert rref(empty) == empty
        assert echelon(empty).pivot_cols == ()


def test_kernel_basis_by_hand():
    # rows impose x + 3y = 0; the canonical kernel vector is (-3, 1).
    m = Matrix(QQ, [[1, 3], [1, 3], [0, 0]])
    k = echelon(m).kernel(m.cols)
    assert k == Matrix(QQ, [[-3], [1]])
    assert m @ k == Matrix.zeros(QQ, 3, 1)


def test_kernel_basis_trivial_and_full():
    eye, zero = Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2)
    assert echelon(eye).kernel(eye.cols).shape == (2, 0)
    assert echelon(zero).kernel(zero.cols) == eye


def test_kernel_basis_free_column_order():
    m = Matrix(QQ, [[1, 0, 2], [0, 0, 0]])
    assert echelon(m).kernel(m.cols) == Matrix(QQ, [[0, -2], [1, 0], [0, 1]])


def test_pivot_column_basis():
    b = Matrix(QQ, [[1, 2, 3], [0, 1, 0]])
    assert b.take_cols(echelon(b).pivot_cols) == Matrix(QQ, [[1, 2], [0, 1]])
    eye = Matrix.identity(QQ, 4)
    assert eye.take_cols(echelon(eye).pivot_cols) == eye
    m = Matrix(QQ, [[1, 2], [2, 4]])
    assert m.take_cols(echelon(m).pivot_cols) == Matrix(QQ, [[1], [2]])


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
    # The inverse of a square matrix is its solution against the identity.
    eye = Matrix.identity(QQ, 2)
    m = Matrix(QQ, [[4, -1], [0, -1]])
    inv = solve_right(m, eye)
    assert inv == Matrix(QQ, [[Fraction(1, 4), Fraction(-1, 4)], [0, -1]])
    assert m @ inv == eye
    assert solve_right(Matrix(QQ, [[1, 2], [2, 4]]), eye) is None


def test_rank_transpose_examples():
    m = Matrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 0]])
    assert len(echelon(m).pivot_cols) == len(echelon(m.transpose()).pivot_cols) == 2


def _greedy_scan(partial, space):
    # The reference: append each column of space that raises the rank of
    # the columns chosen so far, scanning left to right.
    chosen, cols = partial, []
    for j in range(space.cols):
        candidate = chosen.hstack(space.take_cols([j]))
        if len(_reference_rref(candidate)[1]) == candidate.cols:
            chosen, cols = candidate, cols + [j]
    return cols


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=lambda f: f.label)
def test_extend_basis_matches_greedy_scan(field):
    # For independent columns inside the span of space, the pivots of
    # [partial | space] are the partial's own columns, then the columns
    # of space that the greedy scan appends, rank(space) in all.
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
        spanned = space @ draw(cols, rng.randint(0, 3))
        partial = spanned.take_cols(echelon(spanned).pivot_cols)
        k = partial.cols
        pivots = echelon(partial.hstack(space)).pivot_cols
        assert pivots[:k] == tuple(range(k))
        assert [c - k for c in pivots[k:]] == _greedy_scan(partial, space)
        assert len(pivots) == len(_reference_rref(space)[1])
        seen.add((k > 0, len(pivots) > k))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _reference_rref(m):
    # The generic per-element Gauss-Jordan that the per-field kernels
    # replaced, kept as the reference they must match exactly.
    field = m.field
    work = [list(row) for row in m.entries]
    pivot_cols = []
    for col in range(m.cols):
        top = len(pivot_cols)
        hit = next((r for r in range(top, m.rows) if work[r][col] != 0), None)
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        pivot = work[top][col]
        inv = 1 / pivot if field.modulus is None else pow(pivot, -1, field.modulus)
        work[top] = [field.canon(inv * x) for x in work[top]]
        for r in range(m.rows):
            factor = work[r][col]
            if r != top and factor != 0:
                work[r] = [field.canon(x - factor * y) for x, y in zip(work[r], work[top])]
        pivot_cols.append(col)
    return Matrix(field, work, shape=m.shape), tuple(pivot_cols)


def _reference_matmul(lhs, rhs):
    field = lhs.field
    data = [
        [field.canon(sum((row[k] * rhs.entries[k][j] for k in range(lhs.cols)), field.zero))
         for j in range(rhs.cols)]
        for row in lhs.entries
    ]
    return Matrix(field, data, shape=(lhs.rows, rhs.cols))


# GF(2**61 - 1) and a prime just below the exact primality bound give the
# packed GF(p) kernels slots of 122 to 172 bits.
REFERENCE_FIELDS = [
    QQ, GF(2), GF(5), GF(101), GF(2305843009213693951), GF(3317044064679887385961783)
]


def _seeded_matrices(field, seed, count):
    # Full-rank, rank-deficient (thin products, repeated columns),
    # zero-column and empty shapes; zero and repeated columns force
    # skipped pivot columns.
    rng = random.Random(seed)

    def draw(rows, cols):
        if field.modulus is None:
            data = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
                    for _ in range(rows)]
        else:
            data = [[rng.randrange(field.modulus) for _ in range(cols)] for _ in range(rows)]
        return Matrix(field, data, shape=(rows, cols))

    for i in range(count):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        kind = i % 4
        if kind == 0:
            m = draw(rows, cols)
        elif kind == 1:
            inner = rng.randint(0, min(rows, cols))
            m = draw(rows, inner) @ draw(inner, cols)
        elif kind == 2:
            keep = [j for j in range(cols) if rng.random() < 0.6]
            full = draw(rows, cols)
            m = Matrix(field, [[row[j] if j in keep else 0 for j in range(cols)]
                               for row in full.entries], shape=(rows, cols))
        else:
            repeated = draw(rows, 2)
            m = repeated.hstack(repeated).hstack(draw(rows, cols % 3))
        yield m
    # Sparse matrices and thin products of sparse factors: rows with a
    # zero in the pivot column take no update there, which over Q still
    # needs the fraction-free rescale.
    def sparse(rows, cols):
        full = draw(rows, cols)
        return Matrix(field, [[x if rng.random() < 0.35 else 0 for x in row]
                              for row in full.entries], shape=(rows, cols))

    for i in range(count // 4):
        rows, cols = rng.randint(2, 10), rng.randint(2, 10)
        inner = rng.randint(1, min(rows, cols))
        yield sparse(rows, cols) if i % 2 else sparse(rows, inner) @ sparse(inner, cols)
    if field.modulus is None:
        # Columns scaled by large, mixed rationals, for the primitive
        # column scaling of the Q kernel: in each, one column takes a
        # large common content, one large coprime denominators (a
        # different prime per row) and one becomes zero.
        primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121]
        for i in range(count // 8):
            rows, cols = rng.randint(1, 8), rng.randint(3, 8)
            inner = rng.randint(1, min(rows, cols))
            m = draw(rows, cols) if i % 2 else draw(rows, inner) @ draw(inner, cols)
            content, coprime, zero = rng.sample(range(cols), 3)
            scale = Fraction(rng.choice([-1, 1]) * 3 ** 40 * 7 ** 25, rng.randint(1, 5))
            data = [list(row) for row in m.entries]
            for r, row in enumerate(data):
                row[content] *= scale
                row[coprime] *= Fraction(rng.randint(1, 2 ** 70), primes[r])
                row[zero] = 0
            yield Matrix(field, data, shape=(rows, cols))
        # Hilbert matrices, beside more columns and in thin products: the
        # back substitution divides minors with large, mixed denominators.
        for n in range(2, 10):
            hilbert = Matrix(field, [[Fraction(1, i + j + 1) for j in range(n)]
                                     for i in range(n)])
            yield hilbert.hstack(draw(n, n % 4))
            k = n // 2 + 1
            yield hilbert.take_cols(range(k)) @ hilbert.take_rows(range(k))
    if field.modulus == 2:
        # Rows and columns longer than a 64-bit word, for the packed kernels.
        for rows, cols in ((5, 70), (70, 130), (130, 66), (66, 66)):
            yield draw(rows, cols)
        yield draw(70, 40) @ draw(40, 70)
    if field.modulus is not None:
        # Entries all p-1 make every product slot reach its bound, and a
        # full-rank 40x40 matrix (unit lower times unit upper triangular)
        # gives each row up to 40 unreduced updates in the packed kernel.
        top = field.modulus - 1
        for rows, cols in ((40, 40), (5, 40), (40, 3)):
            yield Matrix(field, [[top] * cols] * rows, shape=(rows, cols))
        n = 40
        lower, upper = draw(n, n).entries, draw(n, n).entries
        lower = [[x if j < i else int(i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(lower)]
        upper = [[x if j > i else int(i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(upper)]
        yield _reference_matmul(Matrix(field, lower), Matrix(field, upper))


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=lambda f: f.label)
def test_rref_matches_reference_elimination(field):
    rng, beyond = random.Random(4099), random.Random(4111)
    shapes = set()
    full_40 = scaled = hilbert = past = False
    for m in _seeded_matrices(field, 30103, 400):
        form = rref(m)
        expected, pivots = _reference_rref(m)
        assert form == expected
        # The forward-only run finds the same pivots without reducing.
        assert echelon(m).pivot_cols == pivots
        # One record read more than once: the back phase leaves the
        # forward state as it was, so every read gives the same answer.
        once = echelon(m)
        kernel = once.kernel(m.cols)
        assert once.kernel(m.cols) == kernel == echelon(m).kernel(m.cols)
        assert m @ kernel == Matrix.zeros(field, m.rows, kernel.cols)
        assert once.pivot_cols == pivots
        # The columns of t = m @ r lie in the span of m, so [m | t] has no
        # pivot past m, and solve_right's Z is the reference RREF of [m | t]
        # at t's columns, placed at m's pivots, with zero free rows.
        r = Matrix(field, [[rng.randrange(field.modulus) if field.modulus
                            else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                            for _ in range(2)] for _ in range(m.cols)], shape=(m.cols, 2))
        t = m @ r
        augmented = echelon(m.hstack(t))
        assert all(c < m.cols for c in augmented.pivot_cols)
        z = solve_right(m, t)
        reduced = dict(zip(pivots, _reference_rref(m.hstack(t))[0].entries))
        assert z.entries == tuple(tuple(reduced[i][m.cols:]) if i in reduced
                                  else (field.zero,) * 2 for i in range(m.cols))
        assert m @ z == t
        # The first m.cols columns of [m | x] have m's pivots and kernel,
        # for x in the span of m and for x with pivots past m, whose
        # reduced rows the kernel of the first columns then leaves out;
        # solve_right gives None exactly when [m | x] has a pivot past m.
        x = Matrix(field, [[beyond.randrange(field.modulus or 7) for _ in range(2)]
                           for _ in range(m.rows)], shape=(m.rows, 2))
        for joined in (augmented, echelon(m.hstack(x))):
            assert joined.kernel(m.cols) == kernel
            assert tuple(c for c in joined.pivot_cols if c < m.cols) == pivots
        outside = any(c >= m.cols for c in _reference_rref(m.hstack(x))[1])
        assert (solve_right(m, x) is None) == outside
        past = past or (kernel.cols > 0 and outside)
        if field.modulus is None:
            assert all(type(x) is Fraction for row in form.entries for x in row)
            # Zero entries, zero rows included, share one Fraction(0).
            assert len({id(x) for row in form.entries for x in row if not x}) <= 1
            scaled = scaled or any(x.denominator > 10 ** 6 for row in m.entries for x in row)
            # The Hilbert matrix of order 9 beside a column: its reduced
            # form holds entries of the inverse, past 10**9.
            entries = [abs(x) for row in form.entries for x in row]
            hilbert = hilbert or (m.rows == len(pivots) == 9 and max(entries) > 10 ** 9)
        shapes.add((m.rows == 0, m.cols == 0, len(pivots) < min(m.rows, m.cols)))
        full_40 = full_40 or len(pivots) == 40
    assert {(True, False, False), (False, True, False), (False, False, True)} <= shapes
    assert full_40 or field.modulus is None
    assert scaled or field.modulus is not None
    assert hilbert or field.modulus is not None
    assert past


@pytest.mark.parametrize("field", REFERENCE_FIELDS, ids=lambda f: f.label)
def test_matmul_matches_reference_product(field):
    rng = random.Random(7919)
    matrices = list(_seeded_matrices(field, 7919, 200))
    pairs = [
        (lhs, rng.choice([m for m in matrices if m.rows == lhs.cols] or [lhs.transpose()]))
        for lhs in matrices
    ]
    # Inner dimension 0, and a 300-term dot product of entries p-1 that
    # fills its one slot to the bound.
    top = Matrix(field, [[(field.modulus or 10) - 1] * 300])
    pairs += [(Matrix.zeros(field, 3, 0), Matrix.zeros(field, 0, 4)),
              (Matrix.zeros(field, 0, 0), Matrix.zeros(field, 0, 2)),
              (top, top.transpose())]
    for lhs, rhs in pairs:
        product = lhs @ rhs
        assert product == _reference_matmul(lhs, rhs)
        if field.modulus is None:
            assert all(type(x) is Fraction for row in product.entries for x in row)


def test_rref_rational_growth_stays_exact():
    # A Hilbert matrix has large, mixed denominators and full rank.
    n = 9
    hilbert = Matrix(QQ, [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
    augmented = hilbert.hstack(Matrix.identity(QQ, n))
    assert echelon(augmented).pivot_cols == tuple(range(n))
    inv = rref(augmented).take_cols(range(n, 2 * n))
    assert inv.entries[0][0] == 81
    assert hilbert @ inv == Matrix.identity(QQ, n)
