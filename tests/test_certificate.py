from fractions import Fraction

import pytest

from frobrank import (
    GF,
    QQ,
    EqualityCertificate,
    InequalityWitness,
    Matrix,
    analyze,
    construct_certificate,
    rank,
    solution_family,
    verify_certificate,
)
from frobrank.errors import BaseInvalid, DimensionMismatch, FrobrankError


def published_pair():
    x = Matrix(QQ, [[0, Fraction(-1, 2), 0], [0, -1, 0]])
    y = Matrix(QQ, [[1, 0, 0], [0, 0, 0]])
    return x, y


def test_verify_accepts_published_pair(tight_triple):
    a, b, c = tight_triple
    x, y = published_pair()
    assert verify_certificate(a, b, c, x, y)


def test_verify_rejects_zero_pair(tight_triple):
    a, b, c = tight_triple
    assert not verify_certificate(
        a, b, c, Matrix.zeros(QQ, 2, 3), Matrix.zeros(QQ, 2, 3)
    )


def test_verify_identity_shortcut():
    b = Matrix(QQ, [[1, 2], [3, 4], [5, 6]])
    a = Matrix.identity(QQ, 3)
    c = Matrix.identity(QQ, 2)
    assert verify_certificate(a, b, c, Matrix.zeros(QQ, 2, 2), Matrix.identity(QQ, 3))


def test_verify_shape_guards(tight_triple):
    a, b, c = tight_triple
    with pytest.raises(DimensionMismatch):
        verify_certificate(a, b, c, Matrix.zeros(QQ, 3, 3), Matrix.zeros(QQ, 2, 3))
    with pytest.raises(DimensionMismatch):
        verify_certificate(a, b, c, Matrix.zeros(QQ, 2, 3), Matrix.zeros(QQ, 3, 3))


def test_construct_on_tight_example(tight_triple):
    a, b, c = tight_triple
    cert = construct_certificate(analyze(a, b, c))
    assert isinstance(cert, EqualityCertificate)
    assert verify_certificate(a, b, c, cert.X, cert.Y)
    # The canonical construction reproduces the known X for this triple.
    assert cert.X == Matrix(QQ, [[0, Fraction(-1, 2), 0], [0, -1, 0]])
    trace = cert.trace
    assert trace.column_basis == Matrix(QQ, [[1, 2], [0, 1]])
    assert trace.kernel_coords == Matrix(QQ, [[-3], [1]])
    assert trace.intersection_dim == 1
    assert trace.rank == 2
    assert trace.extended_basis == Matrix(QQ, [[-1, 1], [1, 0]])
    assert trace.bc_preimages == Matrix(QQ, [[Fraction(-1, 2)], [-1]])
    assert trace.preimage_map == Matrix(QQ, [[0, Fraction(-1, 2)], [0, -1]])


def test_trace_coherence(tight_triple):
    a, b, c = tight_triple
    cert = construct_certificate(analyze(a, b, c))
    t = cert.trace
    s = t.intersection_dim
    intersection = t.extended_basis.take_cols(range(s))
    assert (b @ c) @ t.bc_preimages == intersection
    assert (a @ intersection).is_zero
    assert rank(t.image_basis) == t.image_basis.cols == t.rank - s
    assert rank(t.image_basis) == rank(a @ b)


def test_construct_deterministic(tight_triple):
    a, b, c = tight_triple
    c1 = construct_certificate(analyze(a, b, c))
    c2 = construct_certificate(analyze(a, b, c))
    assert c1.X == c2.X and c1.Y == c2.Y
    assert c1.trace == c2.trace


def test_construct_zero_b():
    a = Matrix(QQ, [[1, 1], [0, 1]])
    b = Matrix.zeros(QQ, 2, 2)
    c = Matrix(QQ, [[1, 0], [0, 1]])
    cert = construct_certificate(analyze(a, b, c))
    assert cert.X == Matrix.zeros(QQ, 2, 2)
    assert cert.Y == Matrix.zeros(QQ, 2, 2)


def test_construct_returns_witness_on_strict(strict_triple):
    a, b, c = strict_triple
    out = construct_certificate(analyze(a, b, c))
    assert isinstance(out, InequalityWitness)
    assert out.vector == Matrix(QQ, [[0], [1]])


def test_construct_with_empty_b():
    a = Matrix(QQ, [[1, 0], [0, 1]])
    b = Matrix.zeros(QQ, 2, 0)
    c = Matrix.zeros(QQ, 0, 3)
    cert = construct_certificate(analyze(a, b, c))
    assert cert.X.shape == (3, 0)
    assert cert.Y.shape == (2, 2)
    assert verify_certificate(a, b, c, cert.X, cert.Y)


def test_family_counts_and_verification(tight_triple):
    a, b, c = tight_triple
    cert = construct_certificate(analyze(a, b, c))
    assert solution_family(a, b, c, cert, 0) == []
    fam = solution_family(a, b, c, cert, 1)
    assert len(fam) == 1
    x1, y1 = fam[0]
    # BC is invertible, so only Y moves; the first nudge adds the first
    # left kernel vector of AB to row 0 of Y.
    assert x1 == cert.X
    delta = y1 - cert.Y
    assert delta == Matrix(QQ, [[-1, 1, 0], [0, 0, 0]])
    assert (delta @ (a @ b)).is_zero
    assert verify_certificate(a, b, c, x1, y1)


def test_family_ten_distinct(tight_triple):
    a, b, c = tight_triple
    cert = construct_certificate(analyze(a, b, c))
    fam = solution_family(a, b, c, cert, 10)
    assert len(fam) == 10
    assert len(set(fam)) == 10
    assert all(verify_certificate(a, b, c, x, y) for x, y in fam)
    assert (cert.X, cert.Y) not in fam


def test_family_empty_when_kernels_trivial():
    eye = Matrix.identity(QQ, 2)
    cert = construct_certificate(analyze(eye, eye, eye))
    assert solution_family(eye, eye, eye, cert, 5) == []


def test_family_over_finite_field_exhausts():
    f = GF(2)
    a = Matrix.identity(f, 2)
    b = Matrix.identity(f, 2)
    c = Matrix(f, [[1, 0], [0, 0]])
    cert = construct_certificate(analyze(a, b, c))
    assert isinstance(cert, EqualityCertificate)
    fam = solution_family(a, b, c, cert, 100)
    # Ker(BC) is one-dimensional over GF(2) and AB has no left kernel:
    # one scalar, two column slots.
    assert len(fam) == 2
    assert all(verify_certificate(a, b, c, x, y) for x, y in fam)


def test_family_rejects_invalid_base(tight_triple):
    a, b, c = tight_triple
    bad = EqualityCertificate(X=Matrix.zeros(QQ, 2, 3), Y=Matrix.zeros(QQ, 2, 3))
    with pytest.raises(BaseInvalid):
        solution_family(a, b, c, bad, 1)


def test_family_rejects_negative_count(tight_triple):
    a, b, c = tight_triple
    cert = construct_certificate(analyze(a, b, c))
    with pytest.raises(FrobrankError):
        solution_family(a, b, c, cert, -1)
