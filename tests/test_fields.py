import copy
import pickle
import time
from fractions import Fraction

import pytest

from frobrank import GF, QQ, Field, parse_field_tag
from frobrank.errors import FieldError, ScalarError


def test_rationals_label_and_zero_one():
    assert QQ.label == "Q"
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert not QQ.is_prime_field


def test_prime_field_construction():
    f = GF(7)
    assert f.label == "GF(7)"
    assert f.modulus == 7
    assert f.is_prime_field


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 91])
def test_composite_modulus_rejected(bad):
    with pytest.raises(FieldError):
        Field(bad)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97])
def test_prime_modulus_accepted(p):
    assert Field(p).modulus == p


def test_parse_field_tag():
    assert parse_field_tag("Q") == QQ
    assert parse_field_tag("GF(5)") == GF(5)
    with pytest.raises(FieldError):
        parse_field_tag("GF(4)")
    with pytest.raises(FieldError):
        parse_field_tag("R")


def test_rational_parse_is_canonical():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.parse("-6/4") == Fraction(-3, 2)
    assert QQ.parse("-3") == Fraction(-3)
    assert str(QQ.parse("2/4")) == "1/2"
    assert str(QQ.parse("4/2")) == "2"


@pytest.mark.parametrize("bad", ["", "1.5", "a", "1/0", "1e3", "1/2/3"])
def test_unparseable_scalars(bad):
    with pytest.raises(ScalarError):
        QQ.parse(bad)


def test_prime_field_parse_reduces_fractions():
    f = GF(7)
    assert f.parse("1/2") == 4  # 2 * 4 = 8 = 1 mod 7
    assert f.parse("-1") == 6
    assert f.parse("10") == 3
    with pytest.raises(ScalarError):
        f.parse("1/7")


def test_coerce_rejects_floats():
    with pytest.raises(ScalarError):
        QQ.coerce(0.5)
    with pytest.raises(ScalarError):
        GF(3).coerce(1.0)


def test_prime_field_arithmetic():
    f = GF(5)
    assert f.canon(3 + 4) == 2
    assert f.canon(1 - 3) == 3
    assert f.canon(2 * 4) == 3
    assert f.canon(-2) == 3


def test_rational_arithmetic_exact():
    a = QQ.coerce(Fraction(1, 3))
    b = QQ.coerce(Fraction(1, 6))
    assert QQ.canon(a + b) == Fraction(1, 2)
    assert QQ.canon(a * b) == Fraction(1, 18)


def test_large_prime_tag_parses_quickly():
    start = time.monotonic()
    assert parse_field_tag("GF(1000000000000000003)").modulus == 10**18 + 3
    assert Field(2**61 - 1).modulus == 2**61 - 1
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("pseudoprime", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(pseudoprime):
    # Strong pseudoprimes to the bases 2, 3, 5, 7 and to 2 through 31.
    with pytest.raises(FieldError):
        Field(pseudoprime)


def test_modulus_beyond_exact_primality_range_rejected():
    # 2**89 - 1 is prime but above the bound where the test is exact.
    with pytest.raises(FieldError, match="too large"):
        parse_field_tag(f"GF({2**89 - 1})")


def test_field_is_a_read_only_value():
    with pytest.raises(AttributeError):
        setattr(GF(5), "modulus", 7)
    with pytest.raises(AttributeError):
        delattr(GF(5), "modulus")
    assert GF(5) == Field(5) and GF(5) != GF(7) and GF(5) != QQ and QQ == Field()
    assert len({GF(5), Field(5), QQ, Field(None)}) == 2


@pytest.mark.parametrize("modulus", [2.0, Fraction(5), "5", True])
def test_non_integer_modulus_rejected(modulus):
    # 2.0 and Fraction(5) pass the prime test, but would make a field of
    # inexact or non-canonical scalars.
    with pytest.raises(FieldError, match="is not an integer"):
        Field(modulus)
    assert GF(2).modulus == 2 and type(GF(2).modulus) is int


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["GF5", "Q"])
def test_field_pickle_and_deepcopy_round_trip(field):
    for copied in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
        assert copied == field and hash(copied) == hash(field)
        assert copied.modulus == field.modulus


def test_unpickled_field_is_validated_again():
    data = pickle.dumps(GF(5), protocol=0)
    # Protocol 0 writes the modulus as the decimal line "I5".
    assert data.count(b"I5\n") == 1
    with pytest.raises(FieldError, match="modulus 4 is not prime"):
        pickle.loads(data.replace(b"I5\n", b"I4\n"))
