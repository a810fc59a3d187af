"""Exact coefficient fields: the rationals and prime fields GF(p).

Scalars are plain Python values: ``fractions.Fraction`` over the
rationals, ``int`` residues in ``[0, p)`` over GF(p). Both forms are
canonical, so equal scalars always have identical representations and
can be compared, hashed, and serialized without normalisation passes.
No floating point is accepted anywhere; arithmetic never rounds.

``Field`` is a read-only value class whose modulus must be ``None`` or
a prime ``int``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import FieldError, ScalarError

Scalar = Fraction | int

_SCALAR_RE = re.compile(r"([+-]?\d+)(?:\s*/\s*([+-]?\d+))?\Z")
_FIELD_TAG_RE = re.compile(r"GF\((\d+)\)\Z")


# Deterministic Miller-Rabin: the first 13 primes as bases decide
# primality exactly below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_int(value) -> bool:
    # bool is an int subclass, but no count, seed, budget or modulus.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (``modulus is None``) or GF(modulus) for a prime.

    Fields compare, hash and pickle by modulus; unpickling runs the
    constructor, so the modulus is validated again.
    """

    __slots__ = ("modulus",)

    def __init__(self, modulus: int | None = None) -> None:
        if modulus is not None:
            # A float or Fraction equal to a prime would pass the prime
            # test but bring inexact scalars.
            if not _is_int(modulus):
                raise FieldError(f"modulus {modulus!r} is not an integer")
            if modulus >= _MR_LIMIT:
                raise FieldError(
                    f"modulus {modulus!r} is too large: prime moduli must be below {_MR_LIMIT}"
                )
            if not _is_prime(modulus):
                raise FieldError(f"modulus {modulus!r} is not prime")
        object.__setattr__(self, "modulus", modulus)

    def __eq__(self, other) -> bool:
        if type(other) is not Field:
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Field is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: Field is immutable")

    def __reduce__(self):
        return Field, (self.modulus,)

    def __repr__(self) -> str:
        return f"Field({self.label})"

    @property
    def label(self) -> str:
        return "Q" if self.modulus is None else f"GF({self.modulus})"

    @property
    def zero(self) -> Scalar:
        return 0 if self.modulus is not None else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.modulus is not None else Fraction(1)

    def coerce(self, value) -> Scalar:
        """Canonicalize ``value`` into this field.

        Ints and Fractions are accepted (a Fraction over GF(p) means
        numerator times inverse denominator, and the denominator must
        be invertible). Anything inexact is rejected.
        """
        p = self.modulus
        if p is None:
            if type(value) is Fraction:
                return value
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
        else:
            if isinstance(value, int):
                return value % p
            if isinstance(value, Fraction):
                den = value.denominator % p
                if den == 0:
                    raise ScalarError(
                        f"denominator of {value} is not invertible modulo {p}"
                    )
                return (value.numerator % p) * pow(den, -1, p) % p
        raise ScalarError(f"cannot represent {value!r} exactly in {self.label}")

    def canon(self, value: Scalar) -> Scalar:
        """Reduce a raw arithmetic result back to canonical form."""
        return value % self.modulus if self.modulus is not None else value

    def parse(self, text: str) -> Scalar:
        """Parse an exact scalar literal: an integer or a fraction a/b."""
        match = _SCALAR_RE.fullmatch(text.strip())
        if match is None:
            raise ScalarError(f"cannot parse scalar {text!r}")
        num_text, den_text = match.groups()
        try:
            num = int(num_text)
            den = None if den_text is None else int(den_text)
        except ValueError:
            raise ScalarError(too_many_digits("a scalar literal")) from None
        if den is None:
            return num % self.modulus if self.modulus is not None else Fraction(num)
        if den == 0:
            raise ScalarError(f"zero denominator in {text!r}")
        return self.coerce(Fraction(num, den))


def too_many_digits(what: str) -> str:
    """The message for an integer past Python's int/str conversion limit,
    which bounds every integer read from or written to a document."""
    return (
        f"{what} has an integer of more than {sys.get_int_max_str_digits()} "
        "decimal digits, the most a document may hold"
    )


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n and a positive d with values[i] == n[i] / d, where d is
    the lcm of the denominators."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


QQ = Field()


def GF(p: int) -> Field:
    """The finite field with p elements, p prime."""
    return Field(p)


def parse_field_tag(tag: str) -> Field:
    """Turn a wire-format field tag ("Q" or "GF(p)") into a Field."""
    text = tag.strip()
    if text == "Q":
        return QQ
    match = _FIELD_TAG_RE.fullmatch(text)
    if match is None:
        raise FieldError(f"unknown field tag {tag!r} (expected 'Q' or 'GF(p)')")
    try:
        modulus = int(match.group(1))
    except ValueError:
        raise FieldError(too_many_digits("the field tag")) from None
    return Field(modulus)
