"""Differential oracle: frobrank against sympy's DomainMatrix.

sympy computes products, ranks and reduced row echelon forms with none
of frobrank's code. The RREF is unique and every product is exact, so
the two must agree entry for entry on every input.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from frobrank import GF, QQ, Matrix, analyze, rref  # noqa: E402

FIELDS = [QQ, GF(2), GF(101), GF(2305843009213693951)]


def _domain(field):
    if field.modulus is None:
        return sympy.QQ
    return sympy.GF(field.modulus, symmetric=False)


def _to_sympy(m):
    dom = _domain(m.field)
    if m.field.modulus is None:
        rows = [[dom(x.numerator, x.denominator) for x in row] for row in m.entries]
    else:
        rows = [[dom(x) for x in row] for row in m.entries]
    return DomainMatrix(rows, m.shape, dom)


def _from_sympy(dm, field):
    if field.modulus is None:
        rows = [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
                for row in dm.to_list()]
    else:
        rows = [[dm.domain.to_int(x) for x in row] for row in dm.to_list()]
    return Matrix(field, rows, shape=dm.shape)


def _factor(rng, field, rows, cols, rank):
    # A rows x cols matrix of rank at most ``rank``: a thin product,
    # multiplied out here in plain Python rather than by frobrank.
    def draw():
        if field.modulus is None:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randrange(field.modulus)

    left = [[draw() for _ in range(rank)] for _ in range(rows)]
    right = [[draw() for _ in range(cols)] for _ in range(rank)]
    data = [[sum(row[k] * right[k][j] for k in range(rank)) for j in range(cols)]
            for row in left]
    return Matrix(field, data, shape=(rows, cols))


def _triples(field, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m, n, p, q = (rng.randint(1, 30) for _ in range(4))
        yield (
            _factor(rng, field, m, n, rng.randint(0, min(m, n))),
            _factor(rng, field, n, p, rng.randint(0, min(n, p))),
            _factor(rng, field, p, q, rng.randint(0, min(p, q))),
        )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
def test_kernels_match_sympy(field):
    deficient = 0
    for a, b, c in _triples(field, 1968, 12):
        sa, sb, sc = _to_sympy(a), _to_sympy(b), _to_sympy(c)
        ab, bc = a @ b, b @ c
        abc = ab @ c
        assert ab == _from_sympy(sa * sb, field)
        assert bc == _from_sympy(sb * sc, field)
        assert abc == _from_sympy(sa * sb * sc, field)
        ranks = []
        for mine, theirs in ((b, sb), (ab, sa * sb), (bc, sb * sc), (abc, sa * sb * sc)):
            res = rref(mine)
            reduced, pivots = theirs.rref()
            assert res.rref == _from_sympy(reduced, field)
            assert res.pivot_cols == tuple(pivots)
            assert res.rank == theirs.rank()
            ranks.append(res.rank)
            deficient += res.rank < min(mine.shape)
        profile = analyze(a, b, c).profile
        assert [profile.rank_b, profile.rank_ab, profile.rank_bc, profile.rank_abc] == ranks
    assert deficient


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
def test_roth_rank_matches_verdict(field):
    # Roth (Proc. AMS 3, 1952): BC·X + Y·AB = B is solvable exactly when
    # [[BC, B], [0, AB]] is equivalent to [[BC, 0], [0, AB]], that is,
    # when its rank is rank BC + rank AB. Block elimination gives its
    # rank as rank B + rank ABC for every triple. sympy ranks the block
    # matrix, so the verdict is checked from the equation's side.
    verdicts = set()
    for a, b, c in _triples(field, 1968, 12):
        sa, sb, sc = _to_sympy(a), _to_sympy(b), _to_sympy(c)
        sab, sbc = sa * sb, sb * sc
        zero = DomainMatrix.zeros((a.rows, c.cols), sb.domain)
        block = sbc.hstack(sb).vstack(zero.hstack(sab)).rank()
        assert block == sb.rank() + (sab * sc).rank()
        tight = analyze(a, b, c).criteria.gap_zero
        assert (block == sbc.rank() + sab.rank()) == tight
        verdicts.add(tight)
    assert verdicts == {True, False}
