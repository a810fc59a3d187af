from fractions import Fraction

import pytest

from frobrank import (
    GF,
    QQ,
    Matrix,
    brute_force_solvable,
    analyze,
    random_instance,
)
from frobrank.errors import BudgetExceeded, DimensionMismatch, FrobrankError, NotFiniteField


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
