import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from frobrank import (
    GF,
    QQ,
    Matrix,
    analyze,
    echelon,
    linalg,
    parse_instance,
    solve_right,
)
from frobrank.linalg import rref
from frobrank.cli import main
from frobrank.errors import DimensionMismatch, FieldMismatch, InternalDisagreement

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_rank_profile_worked_example(tight_triple):
    prof = analyze(*tight_triple).profile
    assert (prof.rank_b, prof.rank_ab, prof.rank_bc, prof.rank_abc) == (2, 1, 2, 1)
    assert prof.lhs == prof.rhs == 3
    assert prof.gap == 0


def test_rank_profile_strict(strict_triple):
    prof = analyze(*strict_triple).profile
    assert (prof.rank_b, prof.rank_ab, prof.rank_bc, prof.rank_abc) == (2, 1, 1, 1)
    assert prof.gap == 1


def test_rank_profile_identity():
    eye = Matrix.identity(QQ, 2)
    prof = analyze(eye, eye, eye).profile
    assert (prof.rank_b, prof.rank_ab, prof.rank_bc, prof.rank_abc) == (2, 2, 2, 2)
    assert prof.gap == 0


def test_rank_profile_guards(tight_triple):
    a, b, c = tight_triple
    with pytest.raises(DimensionMismatch):
        analyze(a, Matrix.zeros(QQ, 3, 3), c)
    with pytest.raises(FieldMismatch):
        analyze(a, Matrix.zeros(GF(2), 2, 3), Matrix.zeros(GF(2), 3, 2))


def test_intersection_basis_worked_example(tight_triple):
    analysis = analyze(*tight_triple)
    assert analysis.w_b == Matrix(QQ, [[-1], [1]])
    assert analysis.w_bc == Matrix(QQ, [[1], [-1]])


def test_intersection_basis_degenerate_maps():
    b = Matrix(QQ, [[1, 2, 3], [0, 1, 0]])
    c = Matrix.identity(QQ, 3)
    zero_map = Matrix.zeros(QQ, 3, 2)
    # Ker(0) is everything, so the intersection is all of Rg(B).
    assert analyze(zero_map, b, c).w_b == Matrix(QQ, [[1, 2], [0, 1]])
    assert analyze(Matrix.identity(QQ, 2), b, c).w_b.shape == (2, 0)


def test_intersection_basis_properties(tight_triple):
    a, b, c = tight_triple
    w = analyze(a, b, c).w_b
    assert a @ w == Matrix.zeros(a.field, a.rows, w.cols)
    assert len(echelon(b.hstack(w)).pivot_cols) == len(echelon(b).pivot_cols)
    assert len(echelon(w).pivot_cols) == w.cols


def _quotient_dims(analysis):
    # (codomain, domain): Rg(AB)/Rg(ABC) and Rg(B)/Rg(BC).
    prof = analysis.profile
    return prof.rank_ab - prof.rank_abc, prof.rank_b - prof.rank_bc


def test_quotient_map_trivial_on_tight_example(tight_triple):
    analysis = analyze(*tight_triple)
    assert analysis.quotient_rank == 0
    assert _quotient_dims(analysis) == (0, 0)


def test_quotient_map_strict_shape(strict_triple):
    # Domain quotient has dimension 1, codomain quotient dimension 0.
    analysis = analyze(*strict_triple)
    assert analysis.quotient_rank == 0
    assert _quotient_dims(analysis) == (0, 1)


def test_quotient_map_identity_action():
    b = Matrix.identity(QQ, 2)
    c = Matrix(QQ, [[1], [0]])
    analysis = analyze(Matrix.identity(QQ, 2), b, c)
    assert analysis.quotient_rank == 1
    assert _quotient_dims(analysis) == (1, 1)


def _greedy_extension(partial, space):
    # Append each column of space that raises the rank, left to right.
    basis, cols = partial, []
    for j in range(space.cols):
        candidate = basis.hstack(space.take_cols([j]))
        if len(echelon(candidate).pivot_cols) == candidate.cols:
            basis, cols = candidate, cols + [j]
    return basis, cols


def _reference_block(a, b, c):
    # The matrix of the induced map, derived independently: extend a
    # basis of Rg(BC) to one of Rg(B) and a basis of Rg(ABC) to one of
    # Rg(AB), then solve for the images of the added domain vectors.
    ab, bc = a @ b, b @ c
    abc = ab @ c
    _, added = _greedy_extension(bc.take_cols(echelon(bc).pivot_cols), b)
    codomain, _ = _greedy_extension(abc.take_cols(echelon(abc).pivot_cols), ab)
    coords = solve_right(codomain, ab.take_cols(added))
    r = len(echelon(abc).pivot_cols)
    return Matrix(coords.field, coords.entries[r:], shape=(coords.rows - r, coords.cols))


def test_quotient_block_matches_reference():
    rng = random.Random(20198)
    fields = [QQ, GF(2), GF(3), GF(101)]

    def draw(field, rows, cols):
        if field.modulus is None:
            data = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)]
                    for _ in range(rows)]
        else:
            data = [[rng.randrange(field.modulus) for _ in range(cols)] for _ in range(rows)]
        return Matrix(field, data, shape=(rows, cols))

    def low_rank(field, rows, cols):
        inner = rng.randint(0, min(rows, cols))
        return draw(field, rows, inner) @ draw(field, inner, cols)

    seen = Counter()
    for i in range(400):
        field = fields[i % 4]
        m, n, p, q = (rng.randint(1, 5) for _ in range(4))
        a, b, c = low_rank(field, m, n), low_rank(field, n, p), low_rank(field, p, q)
        result = analyze(a, b, c)
        ref = _reference_block(a, b, c)
        assert ref.shape == _quotient_dims(result)
        assert result.quotient_rank == len(echelon(ref).pivot_cols)
        invertible = ref.rows == ref.cols == len(echelon(ref).pivot_cols)
        assert result.criteria.quotient_block_invertible == invertible
        if ref.rows * ref.cols:
            seen["tight" if result.criteria.gap_zero else "strict"] += 1
            seen[field.label] += 1
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


def _kernel_from_rref(m):
    # The canonical kernel read off the full RREF, on all rows of m.
    pivots = echelon(m).pivot_cols
    free = [j for j in range(m.cols) if j not in pivots]
    if not free:
        return Matrix.zeros(m.field, m.cols, 0)
    coords = [[-row[j] for j in free] for row in rref(m).entries[:len(pivots)]]
    placed = dict(zip(pivots, coords))
    placed.update((j, [int(j == k) for k in free]) for j in free)
    return Matrix(m.field, [placed[i] for i in range(m.cols)], shape=(m.cols, len(free)))


def test_pivot_rows_restriction_matches_full_rows():
    # The analysis keeps only B's pivot rows for matrices in Rg(B), and
    # only the pivot rows of A @ D for matrices in Rg(AB). Each restricted
    # answer must be the one the unrestricted matrix gives.
    rng = random.Random(31337)
    fields = [QQ, GF(2), GF(3), GF(101)]

    def draw(field, rows, cols):
        if field.modulus is None:
            data = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                    for _ in range(rows)]
        else:
            data = [[rng.randrange(field.modulus) for _ in range(cols)] for _ in range(rows)]
        return Matrix(field, data, shape=(rows, cols))

    def low_rank(field, rows, cols):
        inner = rng.randint(0, min(rows, cols))
        return draw(field, rows, inner) @ draw(field, inner, cols)

    seen = Counter()
    for i in range(320):
        field = fields[i % 4]
        m, n, p, q = (rng.randint(1, 6) for _ in range(4))
        a, b, c = low_rank(field, m, n), low_rank(field, n, p), low_rank(field, p, q)
        if i % 3 == 0:
            # Zero leading rows push B's pivot rows down, through swaps.
            lead = rng.randint(1, n)
            b = Matrix(field, [(0,) * p] * lead + list(b.entries[lead:]), shape=(n, p))
        ab, bc = a @ b, b @ c
        abc = ab @ c
        p_b, rows_b, *_ = echelon(b)
        square = b.take_rows(rows_b).take_cols(p_b)
        assert len(rows_b) == len(p_b) == len(echelon(square).pivot_cols)
        assert list(rows_b) == sorted(set(rows_b))
        assert echelon(bc.take_rows(rows_b)).pivot_cols == echelon(bc).pivot_cols

        ad = ab.take_cols(p_b)
        ad_pass = echelon(ad)
        q_ab, rows_ab, kernel_ab = ad_pass.pivot_cols, ad_pass.pivot_rows, ad_pass.kernel(ad.cols)
        assert tuple(p_b[k] for k in q_ab) == echelon(ab).pivot_cols
        assert kernel_ab == _kernel_from_rref(ad) == echelon(ad).kernel(ad.cols)

        p_bc = echelon(bc).pivot_cols
        abc_rows = a.take_rows(rows_ab) @ bc.take_cols(p_bc)
        abc_pass = echelon(abc_rows)
        q_abc, kernel_bc = abc_pass.pivot_cols, abc_pass.kernel(abc_rows.cols)
        assert tuple(p_bc[k] for k in q_abc) == echelon(abc).pivot_cols
        assert kernel_bc == _kernel_from_rref(abc.take_cols(p_bc))

        # A reference for test 2, two passes per quotient on all rows: BC's
        # pivots, then [BC at them | D], whose pivots past rank BC extend
        # Rg(BC) to Rg(B); ABC's pivots at BC's, then [ABC at its pivots |
        # AB at the added columns], whose pivots past rank ABC count the
        # images independent modulo Rg(ABC). The analysis reads both off
        # one pass per quotient on the pivot rows.
        analysis = analyze(a, b, c)
        r_bc, r_abc = len(p_bc), len(q_abc)
        domain = echelon(bc.take_cols(p_bc).hstack(b.take_cols(p_b))).pivot_cols
        assert domain[:r_bc] == tuple(range(r_bc)) and len(domain) == len(p_b)
        added = [j - r_bc for j in domain[r_bc:]]
        joined = abc.take_cols(p_bc).take_cols(q_abc).hstack(ad.take_cols(added))
        images = echelon(joined).pivot_cols
        assert images[:r_abc] == tuple(range(r_abc))
        assert analysis.profile.rank_bc == r_bc and analysis.profile.rank_abc == r_abc
        assert analysis.quotient_rank == len(images) - r_abc

        # Solves against matrices in Rg(B): one solvable, one not when
        # Rg(B) has room for a column outside the span.
        w_b = b.take_cols(p_b) @ kernel_ab
        w_bc = bc.take_cols(p_bc) @ kernel_bc
        # Test 4 runs on B's pivot rows; its factor is the full solve's.
        assert analysis.factor == solve_right(w_bc, w_b)
        basis = b @ draw(field, p, rng.randint(0, 3))
        rhs = basis @ draw(field, basis.cols, rng.randint(1, 3))
        beyond = rhs.hstack(b @ draw(field, p, 1))
        for left, right in ((w_bc, w_b), (basis, rhs), (basis, beyond)):
            full = solve_right(left, right)
            assert solve_right(left.take_rows(rows_b), right.take_rows(rows_b)) == full
            seen["solvable" if full is not None else "unsolvable"] += 1

        seen[field.label] += 1
        seen["rows swapped"] += rows_b != tuple(range(len(rows_b)))
        seen["rows dropped"] += len(rows_b) < n
        seen["m < n"] += m < n
        seen["m > n"] += m > n
        seen["kernels nonempty"] += kernel_ab.cols > 0 and kernel_bc.cols > 0
        seen["AB rows dropped"] += len(rows_ab) < m
    assert min(seen.values()) >= 20 and len(seen) == 12, seen


def test_broken_codomain_pivots_exit_three(monkeypatch, capsysbinary):
    instance = FIXTURES / "tight_rational.json"
    a, b, c = parse_instance(instance.read_bytes())
    # Rank BC equals rank B here, so the domain adds no column and the
    # pass over the images reduces ABC at BC's pivot columns, on the pivot
    # rows of A @ D, alone; no other pass of the analysis sees that matrix.
    # It gives rank ABC, BC's kernel and the rank of the induced map, so
    # dropping its last pivot corrupts tests 1 and 2 and the basis W_BC.
    p_b = echelon(b).pivot_cols
    rows_ab = echelon((a @ b).take_cols(p_b)).pivot_rows
    bc = b @ c
    p_bc = echelon(bc).pivot_cols
    assert len(p_bc) == len(p_b)
    images = a.take_rows(rows_ab) @ bc.take_cols(p_bc)
    assert images.rows < a.rows
    corrupted = []

    def drop_last_pivot(m):
        result = linalg.echelon(m)
        if m != images:
            return result
        corrupted.append(m)
        return result._replace(pivot_cols=result.pivot_cols[:-1])

    monkeypatch.setattr("frobrank.analysis.echelon", drop_last_pivot)
    with pytest.raises(InternalDisagreement):
        analyze(a, b, c)
    assert len(corrupted) == 1
    assert main(["certify", str(instance)]) == 3
    assert capsysbinary.readouterr().out == b""


def _wrong_span_solve_exits_three(monkeypatch, capsysbinary, pick, verdicts):
    # On a tight triple, the square solve of the span test that asks
    # whether M lies in the span of N, with (N, M) = pick(analysis), returns
    # Z with one added to every entry, so N @ Z misses M: the product, not
    # the solve, must reject it, and the analysis's cross-check must end
    # the command in exit 3 with the replay. B has full row rank, so the
    # span tests run on all rows, and W_B != W_BC, so only one solve is hit.
    instance = FIXTURES / "tight_rational.json"
    a, b, c = parse_instance(instance.read_bytes())
    analysis = analyze(a, b, c)
    assert analysis.criteria.gap_zero and analysis.factor is not None
    assert echelon(b).pivot_rows == tuple(range(b.rows)) and analysis.w_b != analysis.w_bc
    n, m = pick(analysis)
    rows = echelon(n).pivot_rows
    square = (n.take_rows(rows), m.take_rows(rows))
    corrupted = []

    def wrong_solve(left, right):
        z = linalg.solve_right(left, right)
        if (left, right) != square:
            return z
        corrupted.append(left)
        return Matrix(z.field, [[x + 1 for x in row] for row in z.entries], shape=z.shape)

    monkeypatch.setattr("frobrank.analysis.solve_right", wrong_solve)
    message = f"tightness tests disagree: gap_zero=True, quotient_block_invertible=True, {verdicts}"
    with pytest.raises(InternalDisagreement) as caught:
        analyze(a, b, c)
    assert str(caught.value) == message
    assert len(corrupted) == 1
    assert main(["certify", str(instance)]) == 3
    out, err = capsysbinary.readouterr()
    assert out == b""
    # After the error line, stderr holds the instance, which replays the case.
    line, replay = err.split(b"\n", 1)
    assert line == b"error: " + message.encode()
    assert parse_instance(replay) == (a, b, c)


def test_wrong_factor_test_exits_three(monkeypatch, capsysbinary):
    # The certificate reads the factor of test 4 without checking that it
    # exists, so a test 4 that finds a column of W_B outside W_BC must be
    # caught by the cross-check.
    _wrong_span_solve_exits_three(
        monkeypatch, capsysbinary, lambda analysis: (analysis.w_bc, analysis.w_b),
        "kernel_intersections_equal=True, intersection_factor_exists=False")


def test_wrong_containment_test_exits_three(monkeypatch, capsysbinary):
    # Test 3 alone finds a column of W_BC outside W_B.
    _wrong_span_solve_exits_three(
        monkeypatch, capsysbinary, lambda analysis: (analysis.w_b, analysis.w_bc),
        "kernel_intersections_equal=False, intersection_factor_exists=True")


def test_singular_square_solve_exits_three(monkeypatch, capsysbinary):
    # A basis is nonsingular on its pivot rows, so a square solve that
    # finds a column outside is a bug: exit 3, never a traceback.
    instance = FIXTURES / "tight_rational.json"
    a, b, c = parse_instance(instance.read_bytes())
    analysis = analyze(a, b, c)
    rows = echelon(analysis.w_bc).pivot_rows
    square = (analysis.w_bc.take_rows(rows), analysis.w_b.take_rows(rows))

    def singular(left, right):
        return None if (left, right) == square else linalg.solve_right(left, right)

    monkeypatch.setattr("frobrank.analysis.solve_right", singular)
    with pytest.raises(InternalDisagreement, match="a span test's basis is singular"):
        analyze(a, b, c)
    assert main(["certify", str(instance)]) == 3
    out, err = capsysbinary.readouterr()
    assert out == b""
    line, replay = err.split(b"\n", 1)
    assert line == b"error: a span test's basis is singular on its pivot rows"
    assert parse_instance(replay) == (a, b, c)


@pytest.mark.parametrize("name", ["tight_rational.json", "strict_gf2.json"])
def test_analysis_is_a_value(name):
    # Analysis holds matrices, tuples and ints only: it compares by value
    # and survives a pickle round trip.
    triple = parse_instance((FIXTURES / name).read_bytes())
    analysis = analyze(*triple)
    assert analysis == analyze(*triple)
    assert pickle.loads(pickle.dumps(analysis)) == analysis
    assert (analysis.factor is None) == (name == "strict_gf2.json")


def test_factor_solve_on_pivot_rows_past_the_first():
    # B = I_3 keeps every row, Ker(A) is spanned by e_2 and e_3, so W_B =
    # [e_2 | e_3]. With C = I_3, W_BC = W_B and its pivot rows are rows 1
    # and 2; with C = [e_1 | e_3], W_BC = e_3 and its pivot row is row 2.
    # Either way the square solve runs on rows past the first, and its Z
    # and first miss are those of one pass over [W_BC | W_B]: its canonical
    # solution and its first pivot past W_BC.
    eye = Matrix.identity(QQ, 3)
    a = Matrix(QQ, [[1, 0, 0]])
    cases = [(eye, (1, 2), None), (eye.take_cols([0, 2]), (2,), 0)]
    for c, pivot_rows, miss in cases:
        analysis = analyze(a, eye, c)
        w_b, w_bc = analysis.w_b, analysis.w_bc
        assert w_b == eye.take_cols([1, 2])
        assert echelon(w_bc).pivot_rows == pivot_rows
        pivots = echelon(w_bc.hstack(w_b)).pivot_cols
        assert next((j - w_bc.cols for j in pivots if j >= w_bc.cols), None) == miss
        assert analysis.factor == solve_right(w_bc, w_b)
        if miss is None:
            assert analysis.factor == Matrix.identity(QQ, 2)
            assert analysis.witness is None
        else:
            assert analysis.factor is None
            assert analysis.witness == w_b.take_cols([miss])
            # The square solve accepts Z = [0 1] on row 2; the product rejects it.
            z = solve_right(w_bc.take_rows(pivot_rows), w_b.take_rows(pivot_rows))
            assert z == Matrix(QQ, [[0, 1]]) and w_bc @ z != w_b


def test_criteria_tight(tight_triple):
    analysis = analyze(*tight_triple)
    crit = analysis.criteria
    assert crit.gap_zero
    assert crit.quotient_block_invertible
    assert crit.kernel_intersections_equal
    assert crit.intersection_factor_exists
    assert analysis.witness is None
    # W_B = (-1, 1) and W_BC = (1, -1), so the factor is the 1x1 matrix [-1].
    assert analysis.factor == solve_right(analysis.w_bc, analysis.w_b) == Matrix(QQ, [[-1]])


def test_criteria_strict(strict_triple):
    analysis = analyze(*strict_triple)
    crit = analysis.criteria
    assert not crit.gap_zero
    assert not crit.quotient_block_invertible
    assert not crit.kernel_intersections_equal
    assert not crit.intersection_factor_exists
    assert solve_right(analysis.w_bc, analysis.w_b) is None
    assert analysis.witness == Matrix(QQ, [[0], [1]])


def test_criteria_zero_b():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix.zeros(QQ, 2, 3)
    c = Matrix(QQ, [[1], [0], [0]])
    analysis = analyze(a, b, c)
    crit = analysis.criteria
    assert crit.gap_zero and crit.intersection_factor_exists
    assert analysis.witness is None


def test_criteria_over_gf2(strict_triple_gf2):
    analysis = analyze(*strict_triple_gf2)
    assert not analysis.criteria.gap_zero
    assert analysis.witness == Matrix(GF(2), [[0], [1]])
