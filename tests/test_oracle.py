from fractions import Fraction
from pathlib import Path

import pytest

from frobrank import (
    GF,
    QQ,
    Matrix,
    brute_force_solvable,
    analyze,
    parse_instance,
    random_instance,
)
from frobrank.errors import BudgetExceeded, DimensionMismatch, FrobrankError, NotFiniteField

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_strict_instance_unsolvable(strict_triple_gf2):
    assert brute_force_solvable(*strict_triple_gf2) is False


def test_identity_instance_solvable():
    eye = Matrix.identity(GF(2), 2)
    assert brute_force_solvable(eye, eye, eye) is True


def test_budget_guard():
    f = GF(3)
    m = Matrix.zeros(f, 3, 3)
    with pytest.raises(BudgetExceeded):
        brute_force_solvable(m, m, m)
    # A raised budget admits the same instance (and B = 0 is solvable).
    assert brute_force_solvable(m, m, m, budget=3**18) is True
    with pytest.raises(BudgetExceeded):
        brute_force_solvable(m, m, m, budget=3**18 - 1)
    # 101**2178 has more decimal digits than a string conversion allows;
    # the guard neither forms nor prints it.
    a, b, c = random_instance(GF(101), (33, 33, 33, 33), 1)
    with pytest.raises(BudgetExceeded) as info:
        brute_force_solvable(a, b, c)
    assert str(info.value) == "101**2178 candidate pairs exceed budget 1048576"


@pytest.mark.parametrize("budget", [1.5, "10", None, True])
def test_budget_that_is_not_an_int_rejected(budget):
    # Checked before the budget's bit length is read.
    eye = Matrix.identity(GF(2), 1)
    with pytest.raises(FrobrankError, match=f"budget must be an integer, got {budget!r}"):
        brute_force_solvable(eye, eye, eye, budget=budget)


def test_rationals_rejected():
    m = Matrix.zeros(QQ, 1, 1)
    with pytest.raises(NotFiniteField):
        brute_force_solvable(m, m, m)


def test_shape_checks_match_analyze():
    # Triples that do not chain at A|B, at B|C, or share no field: the
    # oracle refuses each with the error and message of analyze.
    f = GF(2)
    eye = Matrix.identity(f, 2)
    wide = Matrix.zeros(f, 2, 3)
    for triple in ((wide, eye, eye), (eye, wide, eye), (eye, eye, Matrix.identity(GF(3), 2))):
        with pytest.raises(FrobrankError) as expected:
            analyze(*triple)
        with pytest.raises(type(expected.value)) as got:
            brute_force_solvable(*triple)
        assert str(got.value) == str(expected.value)


def test_oracle_matches_gap_on_random_gf3():
    f = GF(3)
    for seed in range(40):
        a, b, c = random_instance(f, (2, 2, 2, 1), seed=seed)
        analysis = analyze(a, b, c)
        gap = analysis.profile.gap
        assert brute_force_solvable(a, b, c) == (gap == 0)
        assert analysis.criteria.gap_zero == (gap == 0)


@pytest.mark.parametrize("dims", [(17, 1, 1, 1), (1, 1, 1, 17)])
def test_one_sided_shapes_at_the_default_budget(dims):
    # One side of the equation has 2**17 candidates and the other 2, so
    # the set holds the two and a strict triple scans all 2**17 others.
    f = GF(2)
    m, n, p, q = dims
    b = Matrix.identity(f, 1)
    alternating = [[(i + j) % 2 for j in range(q)] for i in range(p)]
    tight = (Matrix(f, [[1 - i % 2] * n for i in range(m)]), b, Matrix(f, alternating))
    strict = (Matrix.zeros(f, m, n), b, Matrix.zeros(f, p, q))
    for triple, solvable in ((tight, True), (strict, False)):
        assert brute_force_solvable(*triple) is solvable
        assert analyze(*triple).criteria.gap_zero is solvable


def test_oracle_forms_its_own_products(monkeypatch):
    # The oracle checks the analysis, so it shares no product kernel with
    # it: with Matrix.__matmul__ broken it still decides a strict triple
    # and a tight one whose AB and BC are both nonzero.
    f = GF(3)
    tight = (Matrix(f, [[1, 0], [0, 0]]), Matrix.identity(f, 2), Matrix(f, [[0, 0], [0, 1]]))
    assert analyze(*tight).criteria.gap_zero
    strict = parse_instance((FIXTURES / "strict_gf2.json").read_bytes())

    def broken(lhs, rhs):
        raise AssertionError("the oracle multiplied with Matrix.__matmul__")

    monkeypatch.setattr(Matrix, "__matmul__", broken)
    assert brute_force_solvable(*strict) is False
    assert brute_force_solvable(*tight) is True


def test_random_instance_shapes_and_determinism():
    a, b, c = random_instance(QQ, (3, 2, 2, 2), seed=7)
    assert a.shape == (3, 2) and b.shape == (2, 2) and c.shape == (2, 2)
    assert random_instance(QQ, (3, 2, 2, 2), seed=7) == (a, b, c)
    different = random_instance(QQ, (3, 2, 2, 2), seed=8)
    assert different != (a, b, c)


def test_random_instance_entry_pool():
    a, b, c = random_instance(QQ, (4, 4, 4, 4), seed=123)
    for m in (a, b, c):
        for row in m.entries:
            for x in row:
                assert isinstance(x, Fraction)
                assert abs(x.numerator) <= 3
                assert x.denominator in (1, 2)


def test_random_instance_prime_field_entries():
    a, b, c = random_instance(GF(5), (3, 3, 3, 3), seed=11)
    assert all(0 <= x < 5 for m in (a, b, c) for row in m.entries for x in row)


def _documented_below(seed):
    # The generator as README "Reproducible generation" states it: the MMIX
    # LCG, top 31 bits per draw, and max(1, ceil(bitlen(n - 1) / 31)) draws
    # per value below n, joined most significant first, modulo n.
    state = seed

    def below(n):
        nonlocal state
        value = 0
        for _ in range(max(1, -(-(n - 1).bit_length() // 31))):
            state = (6364136223846793005 * state + 1442695040888963407) % 2**64
            value = value * 2**31 + state // 2**33
        return value % n

    return below


@pytest.mark.parametrize("field, bounds", [
    (GF(2), None), (GF(101), None), (GF(2**31 - 1), None), (GF(2**61 - 1), None),
    (QQ, (3, 2)), (QQ, (2**30 - 1, 2**31)), (QQ, (10**20, 2**40 + 1)),
], ids=["GF(2)", "GF(101)", "GF(2^31-1)", "GF(2^61-1)", "Q-3-2", "Q-2^30", "Q-10^20"])
def test_random_instance_follows_the_documented_draws(field, bounds):
    # Up to 2**31 a value is one draw, as it has always been, so every
    # seeded corpus stays as it was; past it, two or three draws cover it.
    a, b, c = random_instance(field, (2, 3, 2, 2), 5, *(bounds or ()))
    drawn = [x for m in (a, b, c) for row in m.entries for x in row]
    below = _documented_below(5)
    if bounds is None:
        expected = [below(field.modulus) for _ in drawn]
    else:
        num, den = bounds
        expected = [Fraction(below(2 * num + 1) - num, 1 + below(den)) for _ in drawn]
    assert drawn == expected


def test_random_instance_reaches_a_range_past_31_bits():
    # One 31-bit draw reduced modulo the range would give every GF(2**61 - 1)
    # entry at most 31 bits, and every numerator within 2**31 of -bound.
    a, b, c = random_instance(GF(2**61 - 1), (6,) * 4, 1)
    assert max(x.bit_length() for m in (a, b, c) for row in m.entries for x in row) == 61
    bound = 10**12
    a, b, c = random_instance(QQ, (6,) * 4, 1, numerator_bound=bound, denominator_bound=1)
    nums = [x.numerator for m in (a, b, c) for row in m.entries for x in row]
    assert all(abs(x) <= bound for x in nums)
    assert sum(x > 0 for x in nums) >= 40 and sum(x < 0 for x in nums) >= 40


def test_spec_validation():
    with pytest.raises(DimensionMismatch, match="dims must be four positive counts"):
        random_instance(QQ, (0, 1, 1, 1), seed=0)
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        random_instance(QQ, (1, 1, 1, 1), seed=-1)
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        random_instance(QQ, (1, 1, 1, 1), seed=1 << 64)
    with pytest.raises(ValueError, match="entry pool bounds out of range"):
        random_instance(QQ, (1, 1, 1, 1), seed=0, denominator_bound=0)


@pytest.mark.parametrize("bad", [1.5, "2", True], ids=repr)
def test_spec_validation_rejects_non_integers(bad):
    # The same exception kinds as the range checks, not a raw TypeError.
    with pytest.raises(DimensionMismatch, match="dims must be four positive counts"):
        random_instance(QQ, (bad, 1, 1, 1), seed=0)
    with pytest.raises(DimensionMismatch, match="dims must be four positive counts"):
        random_instance(QQ, (1, 1, 1, bad), seed=0)
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        random_instance(QQ, (1, 1, 1, 1), seed=bad)
    with pytest.raises(ValueError, match="entry pool bounds out of range"):
        random_instance(QQ, (1, 1, 1, 1), seed=0, numerator_bound=bad)
