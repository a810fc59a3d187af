"""Property-based checks of the algebraic invariants."""

import importlib
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from frobrank import (
    GF,
    QQ,
    EqualityCertificate,
    Matrix,
    analyze,
    certificate,
    construct_certificate,
    echelon,
    parse_instance,
    solve_right,
    verify_certificate,
)
from frobrank.analysis import _first_outside
from frobrank.errors import FrobrankError
from frobrank.linalg import rref

FIELDS = (QQ, GF(2), GF(5))
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
        free = [row for row, col in zip(rref(b).entries, echelon(b).pivot_cols)
                if col not in analysis.ab_pivots]
        assert trace.bc_preimages @ Matrix(b.field, free, shape=(len(free), b.cols)) == traced.X


@given(any_matrix())
def test_rref_idempotent(m):
    once = rref(m)
    assert rref(once) == once


@given(any_matrix())
def test_rank_equals_transpose_rank(m):
    assert len(echelon(m).pivot_cols) == len(echelon(m.transpose()).pivot_cols)


@given(any_matrix())
def test_rank_nullity(m):
    k = echelon(m).kernel(m.cols)
    assert m @ k == Matrix.zeros(m.field, m.rows, k.cols)
    assert k.cols + len(echelon(m).pivot_cols) == m.cols
    assert len(echelon(k).pivot_cols) == k.cols


@given(any_matrix())
def test_pivot_columns_span(m):
    pivots = echelon(m).pivot_cols
    d = m.take_cols(pivots)
    assert len(echelon(d).pivot_cols) == d.cols == len(pivots)
    assert len(echelon(m.hstack(d)).pivot_cols) == len(pivots)


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
    assert (z is None) == (len(echelon(m.hstack(target)).pivot_cols) > len(echelon(m).pivot_cols))
    if z is not None:
        assert m @ z == target
    # The span test takes N of full column rank, here m's pivot columns:
    # the first column of target outside the span of N is the first one
    # whose addition raises the rank, and every column before it is N @ Z.
    n = m.take_cols(echelon(m).pivot_cols)
    first = next((j for j in range(target.cols)
                  if len(echelon(n.hstack(target.take_cols(range(j + 1)))).pivot_cols) > n.cols),
                 None)
    outside, z = _first_outside(n, target)
    assert outside == first
    solved = target.cols if first is None else first
    assert (n @ z).take_cols(range(solved)) == target.take_cols(range(solved))


@given(any_matrix())
def test_operations_are_deterministic(m):
    assert rref(m) == rref(m)
    assert echelon(m).pivot_cols == echelon(m).pivot_cols
    assert echelon(m).kernel(m.cols) == echelon(m).kernel(m.cols)


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
    # The record is the four verdicts, the report's criteria keys.
    assert crit._fields == (
        "gap_zero", "quotient_block_invertible",
        "kernel_intersections_equal", "intersection_factor_exists",
    )
    assert (analysis.factor is None) != (analysis.witness is None)
    if crit.gap_zero:
        # Test 4's factor: W_B = W_BC @ Z.
        assert analysis.w_bc @ analysis.factor == analysis.w_b
        out = construct_certificate(analysis)
        assert isinstance(out, EqualityCertificate)
        assert verify_certificate(a, b, c, out.X, out.Y)
    else:
        assert analysis.factor is None
        with pytest.raises(FrobrankError):
            construct_certificate(analysis)
        w = analysis.witness
        w_bc = analysis.w_bc
        assert a @ w == Matrix.zeros(a.field, a.rows, w.cols)
        assert len(echelon(b.hstack(w)).pivot_cols) == len(echelon(b).pivot_cols)
        assert len(echelon(w_bc.hstack(w)).pivot_cols) == w_bc.cols + 1


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
    witness = analysis.witness
    assert (witness is None) == (outside is None) == analysis.criteria.gap_zero
    if witness is not None:
        assert witness == analysis.w_b.take_cols([outside])
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
        assert len(echelon(space.hstack(w)).pivot_cols) == len(echelon(space).pivot_cols)
        assert len(echelon(w).pivot_cols) == w.cols
    # A @ D is read off AB at the pivot columns of B; it must equal the product.
    assert analysis.b_pivots == echelon(b).pivot_cols
    ad = a @ b.take_cols(analysis.b_pivots)
    assert analysis.kernel_coords == echelon(ad).kernel(ad.cols)


def _check_transpose_dual(a, b, c):
    # The dual triple (C^T, B^T, A^T) has B's rank, rank(C^T B^T) = rank BC,
    # rank(B^T A^T) = rank AB and rank ABC, so the same verdicts.
    # Transposing B = BCX + YAB gives B^T = B^T A^T Y^T + X^T C^T B^T, so
    # (Y^T, X^T) solves the dual and the dual's pair, transposed and
    # swapped, solves the triple. The two pairs differ, so they are
    # compared through verify_certificate, not byte for byte.
    ct, bt, at = c.transpose(), b.transpose(), a.transpose()
    analysis, dual = analyze(a, b, c), analyze(ct, bt, at)
    r_b, r_ab, r_bc, r_abc = analysis.profile
    assert dual.profile == (r_b, r_bc, r_ab, r_abc)
    assert dual.criteria == analysis.criteria
    if analysis.criteria.gap_zero:
        x, y, _ = construct_certificate(analysis, include_trace=False)
        dual_x, dual_y, _ = construct_certificate(dual, include_trace=False)
        assert verify_certificate(ct, bt, at, y.transpose(), x.transpose())
        assert verify_certificate(a, b, c, dual_y.transpose(), dual_x.transpose())
    return analysis.criteria.gap_zero


@settings(max_examples=100, deadline=None)
@given(chained_or_strict(max_dim=4, fields=(QQ, GF(2), GF(3), GF(101))))
def test_transposed_triple_has_the_same_verdict_and_swapped_pair(triple):
    _check_transpose_dual(*triple)


@pytest.mark.parametrize("modulus, n", [(None, 40), (101, 60)], ids=["Q40", "GF101_60"])
def test_transposed_triple_at_the_top_of_the_scope(monkeypatch, modulus, n):
    # Each rank class at the top of the stated scope, built as the
    # benchmark's corpus builds a square class member.
    monkeypatch.syspath_prepend(str(BENCH))
    corpus = importlib.import_module("corpus")
    for klass in corpus.CLASSES:
        ranks = corpus.intended_ranks(klass, n, 1)
        inst = corpus.make_instance(klass, 11, modulus, (n,) * 4, ranks, klass)
        a, b, c = parse_instance(inst.document())
        assert _check_transpose_dual(a, b, c) == inst.tight, klass


def _rank(m):
    return len(echelon(m).pivot_cols)


def _check_change_of_basis(a, b, c, r, p, q, s):
    # r, p, q and s are (M, M^-1) for invertible M of A's rows, B's rows,
    # B's columns and C's columns. The moved triple (R A P^-1, P B Q,
    # Q^-1 C S) has products R AB Q, P BC S and R ABC S, so the same
    # ranks and verdicts. Multiplying B = BCX + YAB by P on the left and
    # Q on the right gives its equation with (S^-1 X Q, P Y R^-1); a
    # witness w, in Rg(B) ∩ Ker(A) and outside Rg(BC), moves to P w. Each
    # triple's own pair or witness is moved onto the other.
    (r, r_inv), (p, p_inv), (q, q_inv), (s, s_inv) = r, p, q, s
    a2, b2, c2 = r @ a @ p_inv, p @ b @ q, q_inv @ c @ s
    analysis, moved = analyze(a, b, c), analyze(a2, b2, c2)
    assert moved.profile == analysis.profile
    assert moved.criteria == analysis.criteria
    if analysis.criteria.gap_zero:
        x, y, _ = construct_certificate(analysis, include_trace=False)
        x2, y2, _ = construct_certificate(moved, include_trace=False)
        assert verify_certificate(a2, b2, c2, s_inv @ x @ q, p @ y @ r_inv)
        assert verify_certificate(a, b, c, s @ x2 @ q_inv, p_inv @ y2 @ r)
    else:
        for (ta, tb, tc), w in (((a2, b2, c2), p @ analysis.witness),
                                ((a, b, c), p_inv @ moved.witness)):
            assert ta @ w == Matrix.zeros(ta.field, ta.rows, 1)
            assert _rank(tb.hstack(w)) == _rank(tb)
            bc = tb @ tc
            assert _rank(bc.hstack(w)) == _rank(bc) + 1
    return analysis.criteria.gap_zero


@st.composite
def invertibles(draw, field, n):
    # A product of up to four elementary matrices, each a swap of two rows
    # or one entry off the diagonal, and its inverse: a sparse matrix or a
    # permutation.
    m = inverse = Matrix.identity(field, n)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        scale = draw(st.sampled_from([None, 1, -1, 2]))
        step = [[int(k == col) for col in range(n)] for k in range(n)]
        undo = [row[:] for row in step]
        if scale is None:
            step[i], step[j] = step[j], step[i]
            undo = step
        else:
            step[i][j], undo[i][j] = scale, -scale
        m, inverse = m @ Matrix(field, step), Matrix(field, undo) @ inverse
    return m, inverse


@settings(max_examples=100, deadline=None)
@given(chained_or_strict(max_dim=4, fields=(QQ, GF(2), GF(3), GF(101))), st.data())
def test_change_of_basis_keeps_the_verdict_and_moves_the_pair(triple, data):
    a, b, c = triple
    dims = (a.rows, b.rows, b.cols, c.cols)
    _check_change_of_basis(a, b, c, *(data.draw(invertibles(a.field, d)) for d in dims))


def _left_kernel_and_pivot_rows(m, kernel_first):
    # The rows of a basis of m's left kernel and the unit rows at m's pivot
    # rows, on which m has full row rank, so together invertible; with its
    # inverse.
    field, n = m.field, m.rows
    kernel = echelon(m.transpose()).kernel(n).transpose().entries
    units = Matrix.identity(field, n).take_rows(echelon(m).pivot_rows).entries
    t = Matrix(field, kernel + units if kernel_first else units + kernel, shape=(n, n))
    inverse = solve_right(t, Matrix.identity(field, n))
    assert t @ inverse == Matrix.identity(field, n)
    return t, inverse


@pytest.mark.parametrize("kernel_first", [True, False], ids=["AB_kernel_first", "AB_kernel_last"])
@pytest.mark.parametrize("modulus, n", [(None, 16), (101, 24), (2, 24)],
                         ids=["Q16", "GF101_24", "GF2_24"])
def test_change_of_basis_moves_the_pivot_rows(monkeypatch, modulus, n, kernel_first):
    # Generic triples keep their rank on any rank-many rows, so a pass run
    # on the wrong rows gives the same answers. Here P puts Rg(B) ∩ Ker(A)
    # on the last rows of the moved B, and R puts the left kernel of AB on
    # the first or the last rows of the moved AB, so that B's and AB's
    # pivot rows are where a generic triple's are not.
    monkeypatch.syspath_prepend(str(BENCH))
    corpus = importlib.import_module("corpus")
    for klass in corpus.CLASSES:
        ranks = corpus.intended_ranks(klass, n, 1)
        inst = corpus.make_instance(klass, 11, modulus, (n,) * 4, ranks, klass)
        a, b, c = parse_instance(inst.document())
        field = a.field
        same = [(Matrix.identity(field, d),) * 2 for d in (b.cols, c.cols)]
        r = _left_kernel_and_pivot_rows(a @ b, kernel_first)
        p = _left_kernel_and_pivot_rows(analyze(a, b, c).w_b, True)
        assert _check_change_of_basis(a, b, c, r, p, *same) == inst.tight, klass


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
