"""Property-based checks of the algebraic invariants."""

import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from frobrank import (
    GF,
    QQ,
    EqualityCertificate,
    Matrix,
    analyze,
    certificate,
    construct_certificate,
    kernel_basis,
    rref,
    solve_right,
    verify_certificate,
)
from frobrank.analysis import _first_outside
from frobrank.linalg import echelon

FIELDS = (QQ, GF(2), GF(5))


def scalars(field):
    if field.modulus is None:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    return st.integers(0, field.modulus - 1)


def matrices(field, rows, cols):
    return st.lists(
        st.lists(scalars(field), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda data: Matrix(field, data, shape=(rows, cols)))


@st.composite
def any_matrix(draw, max_dim=4):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    return draw(matrices(field, rows, cols))


@st.composite
def chained_triples(draw, max_dim=3, fields=FIELDS):
    # Zero dimensions included on purpose; empty matrices are legal inputs.
    field = draw(st.sampled_from(fields))
    m, n, p, q = (draw(st.integers(0, max_dim)) for _ in range(4))
    return (
        draw(matrices(field, m, n)),
        draw(matrices(field, n, p)),
        draw(matrices(field, p, q)),
    )


@st.composite
def deficient_tight_triples(draw, field):
    # B = U @ V is a thin product of rank k, with U and V the identity on
    # their top and left k x k blocks; A of fewer than k rows leaves
    # Rg(B) ∩ Ker(A) nonzero, and C = [I | *] keeps Rg(BC) = Rg(B). So
    # the triple is tight and its X is not zero.
    k = draw(st.integers(1, 3))
    n, p = (k + draw(st.integers(0, 2)) for _ in range(2))
    m, q = draw(st.integers(0, k - 1)), p + draw(st.integers(0, 2))
    eye = Matrix.identity(field, k)
    u = eye.hstack(draw(matrices(field, k, n - k))).transpose()
    v = eye.hstack(draw(matrices(field, k, p - k)))
    c = Matrix.identity(field, p).hstack(draw(matrices(field, p, q - p)))
    return draw(matrices(field, m, n)), u @ v, c


@st.composite
def strict_triples(draw, field):
    # B = U @ V of rank 3, with U = [I_3 over *] and V = [I_3 | *], and U's
    # rows shuffled; A = e_j^T with j where U's first identity row went,
    # and C = [I_2 over 0]. Then AB, BC and ABC have ranks 1, 2 and 1: the
    # triple is strict, Rg(B) ∩ Ker(A) has dimension 2, Rg(BC) ∩ Ker(A)
    # dimension 1, and W_BC's pivot row is wherever U's second row went.
    n, p = (3 + draw(st.integers(0, 2)) for _ in range(2))
    eye = Matrix.identity(field, 3)
    rows = eye.hstack(draw(matrices(field, 3, n - 3))).transpose().entries
    order = draw(st.permutations(range(n)))
    u = Matrix(field, [rows[i] for i in order])
    v = eye.hstack(draw(matrices(field, 3, p - 3)))
    a = Matrix(field, [[int(i == 0) for i in order]])
    c = Matrix.identity(field, p).take_cols([0, 1])
    return a, u @ v, c


@settings(max_examples=40, deadline=None)
@given(deficient_tight_triples(QQ), st.sampled_from([GF(2), GF(5), GF(101)]).flatmap(
    deficient_tight_triples))
def test_x_is_the_traced_map_on_b(q_triple, gf_triple):
    for a, b, c in (q_triple, gf_triple):
        analysis = analyze(a, b, c)
        traced = construct_certificate(analysis)
        plain = construct_certificate(analysis, include_trace=False)
        assert plain == (traced.X, traced.Y, None)
        assert traced.trace.preimage_map @ b == traced.X
        assert traced.X != Matrix.zeros(b.field, *traced.X.shape)
        assert verify_certificate(a, b, c, traced.X, traced.Y)
        # The references the map against B's pivot columns replaced: the
        # same map solved against [W | completion], and X = P @ R_B[F, :]
        # with R_B the nonzero rows of rref(B) and F the positions of B's
        # pivots that are not pivots of AB.
        trace = traced.trace
        targets = trace.bc_preimages.hstack(
            Matrix.zeros(b.field, c.cols, trace.rank - trace.intersection_dim))
        assert certificate._map_on_basis(trace.extended_basis, targets) == trace.preimage_map
        reduced = rref(b)
        free = [row for row, col in zip(reduced.rref.entries, reduced.pivot_cols)
                if col not in analysis.ab_pivots]
        assert trace.bc_preimages @ Matrix(b.field, free, shape=(len(free), b.cols)) == traced.X


@given(any_matrix())
def test_rref_idempotent(m):
    once = rref(m).rref
    assert rref(once).rref == once


@given(any_matrix())
def test_rank_equals_transpose_rank(m):
    assert rref(m).rank == rref(m.transpose()).rank


@given(any_matrix())
def test_rank_nullity(m):
    k = kernel_basis(m)
    assert m @ k == Matrix.zeros(m.field, m.rows, k.cols)
    assert k.cols + rref(m).rank == m.cols
    assert rref(k).rank == k.cols


@given(any_matrix())
def test_pivot_columns_span(m):
    d = m.take_cols(rref(m).pivot_cols)
    assert rref(d).rank == d.cols == rref(m).rank
    assert rref(m.hstack(d)).rank == rref(m).rank


@given(any_matrix(), st.integers(0, 3))
def test_solve_right_consistency_criterion(n, extra_cols):
    m = n.take_cols(range(min(extra_cols, n.cols)))
    z = solve_right(n, m)
    assert z is not None
    assert n @ z == m


@given(any_matrix())
def test_solve_right_none_iff_rank_grows(m):
    if m.cols == 0:
        return
    target = Matrix.identity(m.field, m.rows)
    z = solve_right(m, target)
    assert (z is None) == (rref(m.hstack(target)).rank > rref(m).rank)
    if z is not None:
        assert m @ z == target
    # The span test takes N of full column rank, here m's pivot columns:
    # the first column of target outside the span of N is the first one
    # whose addition raises the rank, and every column before it is N @ Z.
    n = m.take_cols(rref(m).pivot_cols)
    first = next((j for j in range(target.cols)
                  if rref(n.hstack(target.take_cols(range(j + 1)))).rank > n.cols), None)
    outside, z = _first_outside(n, target)
    assert outside == first
    solved = target.cols if first is None else first
    assert (n @ z).take_cols(range(solved)) == target.take_cols(range(solved))


@given(any_matrix())
def test_operations_are_deterministic(m):
    assert rref(m) == rref(m)
    assert kernel_basis(m) == kernel_basis(m)


def chained_or_strict(max_dim=3, fields=FIELDS):
    # strict_triples always gives a strict triple with a nonempty W_BC,
    # which chained_triples rarely draws.
    return st.one_of(chained_triples(max_dim, fields), st.sampled_from(fields).flatmap(strict_triples))


@settings(max_examples=60, deadline=None)
@given(chained_or_strict())
def test_gap_never_negative(triple):
    prof = analyze(*triple).profile
    assert prof.gap >= 0
    assert prof.rank_bc <= prof.rank_b
    assert prof.rank_ab <= prof.rank_b
    assert prof.rank_abc <= min(prof.rank_ab, prof.rank_bc)


@settings(max_examples=60, deadline=None)
@given(chained_or_strict())
def test_rank_drop_equals_intersection_dim(triple):
    a, b, c = triple
    analysis = analyze(a, b, c)
    prof = analysis.profile
    assert prof.rank_ab == prof.rank_b - analysis.w_b.cols
    assert prof.rank_abc == prof.rank_bc - analysis.w_bc.cols
    # A maps Rg(B) onto Rg(AB), so the induced map is always onto.
    assert analysis.quotient_rank == prof.rank_ab - prof.rank_abc


@settings(max_examples=100, deadline=None)
@given(chained_or_strict(fields=FIELDS + (GF(3), GF(101))))
def test_criteria_agree_and_artifacts_check_out(triple):
    a, b, c = triple
    analysis = analyze(a, b, c)  # raises InternalDisagreement on any split
    crit = analysis.criteria
    booleans = {
        crit.gap_zero,
        crit.quotient_block_invertible,
        crit.kernel_intersections_equal,
        crit.intersection_factor_exists,
    }
    assert len(booleans) == 1
    out = construct_certificate(analysis)
    if crit.gap_zero:
        # Test 4's factor: W_B = W_BC @ Z.
        assert analysis.w_bc @ analysis.factor == analysis.w_b
        assert isinstance(out, EqualityCertificate)
        assert verify_certificate(a, b, c, out.X, out.Y)
    else:
        assert analysis.factor is None
        w = out.vector
        w_bc = analysis.w_bc
        assert a @ w == Matrix.zeros(a.field, a.rows, w.cols)
        assert rref(b.hstack(w)).rank == rref(b).rank
        assert rref(w_bc.hstack(w)).rank == w_bc.cols + 1


@settings(max_examples=150, deadline=None)
@given(chained_or_strict(max_dim=4, fields=(QQ, GF(2), GF(3), GF(101))))
def test_factor_solve_matches_one_pass_over_both_bases(triple):
    a, b, c = triple
    analysis = analyze(a, b, c)
    assert analysis == analyze(a, b, c)
    assert pickle.loads(pickle.dumps(analysis)) == analysis
    # The reference is each span test as one pass over both bases on B's
    # pivot rows: for test 4 over [W_BC | W_B], whose first pivot past W_BC
    # is the witness and whose canonical solution is the factor, and for
    # test 3 over [W_B | W_BC], whose first pivot past W_B is test 3's
    # first column outside: None, as Rg(BC) ∩ Ker(A) lies in Rg(B) ∩ Ker(A).
    rows_b = echelon(b).pivot_rows
    w_b, w_bc = analysis.w_b.take_rows(rows_b), analysis.w_bc.take_rows(rows_b)
    outside = next((j - w_bc.cols for j in echelon(w_bc.hstack(w_b)).pivot_cols
                    if j >= w_bc.cols), None)
    witness = analysis.criteria.witness
    assert (witness is None) == (outside is None) == analysis.criteria.gap_zero
    if witness is not None:
        assert witness.vector == analysis.w_b.col(outside)
    assert analysis.factor == solve_right(w_bc, w_b)
    assert _first_outside(w_b, w_bc)[0] == next(
        (j - w_b.cols for j in echelon(w_b.hstack(w_bc)).pivot_cols if j >= w_b.cols), None)
    # On W_BC's pivot rows the square solve always returns a Z; on a strict
    # triple only the product on all of B's pivot rows rejects it.
    r = echelon(w_bc).pivot_rows
    z = solve_right(w_bc.take_rows(r), w_b.take_rows(r))
    assert z is not None and w_bc.take_rows(r) @ z == w_b.take_rows(r)
    assert (w_bc @ z == w_b) == (outside is None)


@settings(max_examples=60, deadline=None)
@given(chained_or_strict())
def test_intersection_basis_lives_where_it_should(triple):
    a, b, c = triple
    analysis = analyze(a, b, c)
    for w, space in ((analysis.w_b, b), (analysis.w_bc, b @ c)):
        assert a @ w == Matrix.zeros(a.field, a.rows, w.cols)
        assert rref(space.hstack(w)).rank == rref(space).rank
        assert rref(w).rank == w.cols
    # A @ D is read off AB at the pivot columns of B; it must equal the product.
    assert analysis.column_basis == b.take_cols(rref(b).pivot_cols)
    assert analysis.kernel_coords == kernel_basis(a @ analysis.column_basis)


def test_failing_property_is_reported_not_internal_error(tmp_path):
    # On a failing property, hypothesis's report hook imports libcst, which
    # warns; under this project's warnings-as-errors settings the session
    # must still report the failure (exit 1), not stop with INTERNALERROR
    # (exit 3).
    (tmp_path / "test_failing.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n"
    )
    settings_file = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(settings_file), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output and "1 failed" in output
