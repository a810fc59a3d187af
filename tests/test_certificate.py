import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from frobrank import (
    GF,
    QQ,
    EqualityCertificate,
    InequalityWitness,
    Matrix,
    analyze,
    build_report,
    certificate,
    construct_certificate,
    linalg,
    parse_instance,
    random_instance,
    rref,
    solution_family,
    solve_right,
    verify_certificate,
)
from frobrank.errors import BaseInvalid, DimensionMismatch, FrobrankError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
    # With A 0x2 and C 3x0, X is 0x3 and Y 2x0: the equation's one
    # product has inner dimension 0, so it is zero and misses B != 0.
    for field in (QQ, GF(2), GF(5), GF(101)):
        b = Matrix(field, [[1, 2, 3], [0, 1, 0]])
        assert not verify_certificate(
            Matrix.zeros(field, 0, 2), b, Matrix.zeros(field, 3, 0),
            Matrix.zeros(field, 0, 3), Matrix.zeros(field, 2, 0),
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
    assert a @ intersection == Matrix.zeros(a.field, a.rows, s)
    assert rref(t.image_basis).rank == t.image_basis.cols == t.rank - s
    assert rref(t.image_basis).rank == rref(a @ b).rank


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
    assert solution_family(a, b, c, cert.X, cert.Y, 0) == []
    fam = solution_family(a, b, c, cert.X, cert.Y, 1)
    assert len(fam) == 1
    x1, y1 = fam[0]
    # BC is invertible, so only Y moves; the first nudge adds the first
    # left kernel vector of AB, (-1, 1, 0), to row 0 of Y.
    assert x1 == cert.X
    assert cert.Y == Matrix(QQ, [[0, 1, 0], [0, 0, 0]])
    assert y1 == Matrix(QQ, [[-1, 2, 0], [0, 0, 0]])
    assert Matrix(QQ, [[-1, 1, 0]]) @ (a @ b) == Matrix.zeros(QQ, 1, b.cols)
    assert verify_certificate(a, b, c, x1, y1)


def _seeded_tight_triples():
    # A is 5x3 and C 3x5, so AB has a left kernel and BC a kernel of
    # dimension at least 2 each: at least 12 nudges, 10 pairs over GF(2).
    for field in (QQ, GF(2), GF(3)):
        tight = []
        for seed in range(40):
            triple = random_instance(field, (5, 3, 3, 5), seed)
            if analyze(*triple).criteria.gap_zero:
                tight.append(triple)
        assert len(tight) >= 3, field
        yield from tight[:3]


def test_family_ten_distinct(tight_triple):
    for a, b, c in [tight_triple, *_seeded_tight_triples()]:
        cert = construct_certificate(analyze(a, b, c))
        fam = solution_family(a, b, c, cert.X, cert.Y, 10)
        assert len(fam) == 10
        assert len(set(fam)) == 10
        assert all(verify_certificate(a, b, c, x, y) for x, y in fam)
        assert (cert.X, cert.Y) not in fam


def test_family_ends_on_every_small_shape():
    # Every shape with dimensions 0-2, including those where BC has a
    # kernel but X has no column to add it to (B with no rows), or AB a
    # left kernel but Y no row: each family ends and every pair verifies.
    rng = random.Random(7)
    for field in (QQ, GF(2)):
        for m, n, p, q in itertools.product(range(3), repeat=4):
            a, b, c = (
                Matrix(field, [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)],
                       shape=(rows, cols))
                for rows, cols in ((m, n), (n, p), (p, q))
            )
            cert = construct_certificate(analyze(a, b, c))
            if not isinstance(cert, EqualityCertificate):
                continue
            fam = solution_family(a, b, c, cert.X, cert.Y, 3)
            assert len(set(fam)) == len(fam) <= 3
            assert (cert.X, cert.Y) not in fam
            assert all(verify_certificate(a, b, c, x, y) for x, y in fam)


def test_family_forms_each_product_once(monkeypatch):
    # BC and AB once each, for the base check and the kernels alike,
    # then [BC | Y] @ [X over AB]: the nudges themselves multiply nothing.
    _, a, b, c = parse_instance((FIXTURES / "tight_rational.json").read_bytes())
    cert = construct_certificate(analyze(a, b, c))
    products = []
    matmul = Matrix.__matmul__

    def counted(lhs, rhs):
        products.append((lhs.shape, rhs.shape))
        return matmul(lhs, rhs)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    assert len(solution_family(a, b, c, cert.X, cert.Y, 3)) == 3
    assert len(products) == 3, products


def _deficient(field, seed):
    # B of rank 3 and A of rank 2 on a 5-dimensional space meet in at
    # least a line, and an invertible C keeps the inequality tight.
    u, v, _ = random_instance(field, (5, 3, 5, 1), seed)
    a1, a2, c = random_instance(field, (4, 2, 5, 5), seed + 1)
    return a1 @ a2, u @ v, c


def test_certify_forms_each_product_once(monkeypatch):
    # The analysis forms AB once and eliminates A @ D as AB at B's pivot
    # columns D; the certificate takes its image basis and its equation
    # check from that AB, so A meets B's columns in one product.
    triples = [parse_instance((FIXTURES / "tight_rational.json").read_bytes())[1:],
               _deficient(QQ, 3), _deficient(GF(101), 5)]
    assert [analyze(*t).profile[:2] for t in triples[1:]] == [(3, 2), (3, 2)]
    products = []
    matmul = Matrix.__matmul__

    def recorded(lhs, rhs):
        products.append((lhs, rhs))
        return matmul(lhs, rhs)

    monkeypatch.setattr(Matrix, "__matmul__", recorded)
    for a, b, c in triples:
        products.clear()
        cert = construct_certificate(analyze(a, b, c))
        assert isinstance(cert, EqualityCertificate)
        assert cert.X != Matrix.zeros(b.field, *cert.X.shape)
        b_cols = set(b.transpose().entries)
        a_on_b = [rhs.shape for lhs, rhs in products
                  if lhs == a and set(rhs.transpose().entries) <= b_cols]
        assert a_on_b == [b.shape], a_on_b


def test_family_empty_when_kernels_trivial():
    eye = Matrix.identity(QQ, 2)
    cert = construct_certificate(analyze(eye, eye, eye))
    assert solution_family(eye, eye, eye, cert.X, cert.Y, 5) == []


def test_family_over_finite_field_exhausts():
    f = GF(2)
    a = Matrix.identity(f, 2)
    b = Matrix.identity(f, 2)
    c = Matrix(f, [[1, 0], [0, 0]])
    cert = construct_certificate(analyze(a, b, c))
    assert isinstance(cert, EqualityCertificate)
    fam = solution_family(a, b, c, cert.X, cert.Y, 100)
    # Ker(BC) is one-dimensional over GF(2) and AB has no left kernel:
    # one scalar, two column slots.
    assert len(fam) == 2
    assert all(verify_certificate(a, b, c, x, y) for x, y in fam)


def test_family_stops_at_budget(monkeypatch, tight_triple):
    a, b, c = tight_triple
    cert = construct_certificate(analyze(a, b, c))
    calls = Counter()
    add_to_row = certificate._add_to_row

    def counted(*args):
        calls["candidates"] += 1
        return add_to_row(*args)

    monkeypatch.setattr(certificate, "FAMILY_BUDGET", 3)
    monkeypatch.setattr(certificate, "_add_to_row", counted)
    fam = solution_family(a, b, c, cert.X, cert.Y, 10)
    assert calls["candidates"] == 3
    assert len(fam) == 3


def test_family_rejects_invalid_base(tight_triple):
    a, b, c = tight_triple
    zero = Matrix.zeros(QQ, 2, 3)
    with pytest.raises(BaseInvalid):
        solution_family(a, b, c, zero, zero, 1)


def test_family_rejects_negative_count(tight_triple):
    a, b, c = tight_triple
    cert = construct_certificate(analyze(a, b, c))
    with pytest.raises(FrobrankError):
        solution_family(a, b, c, cert.X, cert.Y, -1)


@pytest.mark.parametrize("count", [1.5, "3", None, True])
def test_family_rejects_count_that_is_not_an_int(tight_triple, count):
    # A float, a string or None would fail inside islice with a raw
    # ValueError or TypeError, and True would count as one pair.
    a, b, c = tight_triple
    cert = construct_certificate(analyze(a, b, c))
    with pytest.raises(FrobrankError, match=f"pair count must be an integer, got {count!r}"):
        solution_family(a, b, c, cert.X, cert.Y, count)


def _greedy_extension(partial, space):
    # Append each column of space that raises the rank, left to right.
    basis, cols = partial, ()
    for j in range(space.cols):
        candidate = basis.hstack(space.col(j))
        if rref(candidate).rank == candidate.cols:
            basis, cols = candidate, cols + (j,)
    return basis, cols


def _reference_construction(analysis):
    # The construction the pivot-row solves replaced, kept as the
    # reference they must match exactly: complete each basis by the
    # identity, invert the completed square basis, and map the added
    # standard vectors to zero.
    a, b, c = analysis.a, analysis.b, analysis.c
    field = a.field
    intersection = analysis.w_b
    s, r = intersection.cols, analysis.profile.rank_b
    extended, added = _greedy_extension(intersection, b)
    completion = b.take_cols(added)
    image_basis = (a @ b).take_cols(added)

    def zero_on_complement(basis, targets):
        n = basis.rows
        eye = Matrix.identity(field, n)
        domain, _ = _greedy_extension(basis, eye)
        padded = targets.hstack(Matrix.zeros(field, targets.rows, n - basis.cols))
        return padded @ solve_right(domain, eye)

    y = zero_on_complement(image_basis, completion)
    preimages = solve_right(analysis.bc, intersection)
    targets = preimages.hstack(Matrix.zeros(field, c.cols, r - s))
    preimage_map = zero_on_complement(extended, targets)
    return preimage_map @ b, y, preimage_map, extended


def _tight_triples():
    # Seeded random_instance triples with every dimension in 0..6: a
    # zero dimension is cut from a generated dimension of 1. Each seed
    # also gives its triple with a rank-1 B (every column B's first) and
    # with B = 0, which are tight far more often than a random B. With
    # m = q = 0, only B = 0 is tight, and the equation's product has
    # inner dimension 0.
    fields = [QQ, GF(2), GF(5), GF(101)]
    for seed in range(290):
        field = fields[seed % 4]
        dims = [(seed * 7 + k * 5 + seed // 11) % 7 for k in range(4)]
        if seed % 9 in (0, 2):
            dims[0] = 0
        if seed % 9 in (1, 2):
            dims[3] = 0
        m, n, p, q = dims
        a, b, c = random_instance(field, tuple(max(d, 1) for d in dims), seed)
        a = Matrix(field, [row[:n] for row in a.entries[:m]], shape=(m, n))
        b = Matrix(field, [row[:p] for row in b.entries[:n]], shape=(n, p))
        c = Matrix(field, [row[:q] for row in c.entries[:p]], shape=(p, q))
        thin = b.take_cols([0] * p)
        for bb in (b, thin, Matrix.zeros(field, n, p)):
            if analyze(a, bb, c).criteria.gap_zero:
                yield a, bb, c
    _, a, b, c = parse_instance((FIXTURES / "tight_rational.json").read_bytes())
    yield a, b, c


def test_pivot_row_construction_matches_identity_completion():
    seen = Counter()
    for a, b, c in _tight_triples():
        analysis = analyze(a, b, c)
        cert = construct_certificate(analysis)
        x, y, preimage_map, extended = _reference_construction(analysis)
        assert cert.X == x and cert.Y == y
        assert cert.trace.preimage_map == preimage_map
        assert cert.trace.extended_basis == extended
        # X is the traced map composed with B, with or without the trace.
        assert cert.trace.preimage_map @ b == cert.X
        assert construct_certificate(analysis, include_trace=False) == (cert.X, cert.Y, None)
        # rank B <= rank X + rank Y for every solution, as B = BCX + YAB;
        # the constructed pair meets the bound with equality.
        profile = analysis.profile
        assert rref(cert.X).rank == profile.rank_b - profile.rank_ab
        assert rref(cert.Y).rank == profile.rank_ab
        # The analysis's bases are the ones a basis extension and a solve
        # against BC would find.
        assert cert.trace.bc_preimages == solve_right(analysis.bc, analysis.w_b)
        assert _greedy_extension(analysis.w_b, b)[1] == analysis.ab_pivots
        seen[a.field.label] += 1
        seen["zero-row A"] += a.rows == 0
        seen["zero-column C"] += c.cols == 0
        seen["m = q = 0"] += a.rows == c.cols == 0
        seen["B = 0"] += b == Matrix.zeros(b.field, *b.shape) and b.rows * b.cols > 0
        # Each map nonzero, and zero on a nonempty complement.
        seen["Y"] += 0 < rref(y).rank < a.rows
        seen["preimage map"] += 0 < rref(preimage_map).rank < b.rows
    assert min(seen.values()) >= 5, seen


def _analysis_cells(triple, profile):
    # The rows x cols of each matrix the analysis eliminates: B, then A @ D
    # (AB at B's pivot columns), then the domain [BC | D] on B's r_b pivot
    # rows, and on the r_ab pivot rows of A @ D the images [ABC at BC's
    # pivot columns | A @ D at the r_b - r_bc added columns]; then the span
    # tests on B's pivot rows: test 3's pass over W_B for its pivot rows and
    # its square solve [W_B | W_BC] on the s_b pivot rows of W_B, and test
    # 4's pass over W_BC and its square solve [W_BC | W_B] on the s_bc pivot
    # rows of W_BC.
    a, b, c = triple
    r_b, r_ab, r_bc, r_abc = profile
    s_b, s_bc = r_b - r_ab, r_bc - r_abc
    return (b.rows * b.cols + a.rows * r_b + r_b * (c.cols + r_b) + r_ab * r_b
            + r_b * s_b + s_b * (s_b + s_bc) + r_b * s_bc + s_bc * (s_bc + s_b))


def _certify_cells(triple, profile):
    # Y's solve runs over AB's pivot columns transposed beside the
    # completion transposed; with s > 0, the selector's over D transposed
    # beside the units. The factor is test 4's solve in the analysis.
    a, b, _ = triple
    r_b, r_ab, _, _ = profile
    s_b = r_b - r_ab
    return r_ab * (a.rows + b.rows) + (r_b * (b.rows + s_b) if s_b else 0)


def test_tight_certify_full_reduction_count(monkeypatch):
    # Every elimination runs the forward pass; the back phase runs only
    # where reduced entries are read. An analysis makes 8 forward passes:
    # B, A @ D, the domain [BC | D], the images (test 2), and for each of
    # tests 3 and 4 a pass over its basis for its pivot rows and a square
    # solve; the pass over A @ D also gives the pivots of AB, and the
    # domain and the images those of BC and ABC. On every triple it runs
    # the two square solves' back phases (over no rows when the basis has
    # no columns), and at most 2 more: the kernels of A @ D and of ABC at
    # BC's pivot columns, each only when it is not empty, that is when
    # rank B > rank AB and rank BC > rank ABC. A tight certify reads Z off
    # the analysis and adds the solve for Y and, when the intersection is
    # nonzero, the solve for the map behind X, each a forward pass and a
    # back phase; the trace reuses that map and adds no elimination. So
    # [W_B | W_BC] and [W_BC | W_B] are only eliminated on the pivot rows
    # of their first block, once each. A strict certify returns the
    # analysis's witness and eliminates nothing more. The cells (rows x
    # cols) of the eliminated matrices are summed too, so that a pass over
    # more rows or columns than the rank needs shows here.
    calls = Counter()

    def counted(kernel):
        # Each field's kernel runs one forward pass over (entries, ncols)
        # and returns the back phase as a closure.
        def run(entries, ncols, *modulus):
            calls["forward"] += 1
            calls["cells"] += len(entries) * ncols
            pivots, rows, back = kernel(entries, ncols, *modulus)

            def counted_back():
                calls["back"] += 1
                return back()

            return pivots, rows, counted_back

        return run

    for name in ("_rational", "_packed", "_binary"):
        monkeypatch.setattr(linalg, name, counted(getattr(linalg, name)))
    fixture = {name: parse_instance((FIXTURES / name).read_bytes())[1:]
               for name in ("tight_rational.json", "strict_gf2.json")}
    # Full rank: both kernels are empty and s = 0, so the analysis's two
    # back phases are the empty square solves', and X and the map behind it
    # are zero with no map solve.
    full_rank = random_instance(QQ, (4, 4, 4, 4), 1)
    assert analyze(*full_rank).profile == (4, 4, 4, 4)
    # Rank-deficient and tight: B = U @ V of rank 2 and A of rank 1 give
    # a one-dimensional Rg(B) ∩ Ker(A), and C the identity keeps Rg(BC)
    # = Rg(B), so the kernel of ABC at BC's pivots is one-dimensional too.
    u, v, _ = random_instance(QQ, (4, 2, 4, 1), 3)
    a = random_instance(QQ, (1, 4, 1, 1), 5)[0]
    deficient = (a.transpose() @ a, u @ v, Matrix.identity(QQ, 4))
    assert analyze(*deficient).profile == (2, 1, 2, 1)
    x = construct_certificate(analyze(*deficient)).X
    assert x != Matrix.zeros(QQ, *x.shape)
    # (forward passes, back phases) in analyze, then after a certify with
    # the trace, and in a build_report without it.
    cases = [
        (fixture["tight_rational.json"], EqualityCertificate, [(8, 4), (10, 6), (10, 6)]),
        (fixture["strict_gf2.json"], InequalityWitness, [(8, 3), (8, 3), (8, 3)]),
        (full_rank, EqualityCertificate, [(8, 2), (9, 3), (9, 3)]),
        (deficient, EqualityCertificate, [(8, 4), (10, 6), (10, 6)]),
    ]
    for triple, kind, expected in cases:
        calls.clear()
        analysis = analyze(*triple)
        counts = [(calls["forward"], calls["back"])]
        cells = [calls["cells"]]
        certificate = construct_certificate(analysis)
        assert isinstance(certificate, kind)
        counts.append((calls["forward"], calls["back"]))
        cells.append(calls["cells"])
        calls.clear()
        report = build_report(*triple, include_certificate=True, include_trace=False)
        assert "trace" not in report
        counts.append((calls["forward"], calls["back"]))
        cells.append(calls["cells"])
        assert counts == expected, triple
        analysis_cells = _analysis_cells(triple, analysis.profile)
        certify_cells = analysis_cells
        if kind is EqualityCertificate:
            certify_cells += _certify_cells(triple, analysis.profile)
        assert cells == [analysis_cells, certify_cells, certify_cells], triple
