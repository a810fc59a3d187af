"""Immutable dense matrices with exact entries.

Entries are stored row-major as nested tuples in canonical form, so
equal matrices compare and hash identically. ``Matrix(field, entries)``
canonicalizes and validates what it is given; results computed here and
in the kernels are canonical already and skip that pass. Zero-row
and zero-column shapes are allowed; a matrix with no columns doubles as
the empty basis of the trivial subspace.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field, clear_denominators

# The most rows or columns a matrix read from a document, or generated
# from a seed, may have. It bounds the memory and time an input can ask
# for, and is far above the dense sizes this package is meant for.
MAX_DIM = 256


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(
        self,
        field: Field,
        entries: Iterable[Iterable],
        shape: tuple[int, int] | None = None,
    ):
        data = tuple(tuple(field.coerce(x) for x in row) for row in entries)
        if shape is not None:
            nrows, ncols = shape
        else:
            nrows = len(data)
            ncols = len(data[0]) if data else 0
        if nrows < 0 or ncols < 0:
            raise DimensionMismatch(f"negative shape {nrows}x{ncols}")
        if len(data) != nrows or any(len(row) != ncols for row in data):
            raise DimensionMismatch("entries do not match the declared shape")
        self.field = field
        self.rows = nrows
        self.cols = ncols
        self.entries = data

    # -- constructors --------------------------------------------------

    @classmethod
    def _canonical(cls, field: Field, rows: int, cols: int, data: Iterable[Iterable]) -> "Matrix":
        """A rows x cols matrix whose entries are canonical in ``field``
        already: the rows are taken as they are, without coercion or
        shape checks."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.entries = tuple(map(tuple, data))
        return m

    @classmethod
    def _placed(
        cls, field: Field, rows: int, cols: int, indices: Iterable[int], data: Iterable[Iterable]
    ) -> "Matrix":
        """A rows x cols matrix with the canonical rows of ``data`` at the
        row ``indices``, paired in order, and zero rows elsewhere."""
        zero = (field.zero,) * cols
        placed = dict(zip(indices, map(tuple, data)))
        return cls._canonical(field, rows, cols, [placed.get(i, zero) for i in range(rows)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._canonical(field, rows, cols, [(field.zero,) * cols] * rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._canonical(
            field, n, n, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    # -- basic queries ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(map(str, row)) + "]"
            for row in self.entries
        )
        return f"Matrix({self.field.label}, {self.rows}x{self.cols}, [{body}])"

    def _check_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch(
                f"operands over {self.field.label} and {other.field.label}"
            )

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Over GF(2) A's rows and B's columns are packed into integers and
        # each entry is the parity of their AND. Over GF(p) B's rows are
        # packed into slots wide enough to hold a sum of self.cols products
        # of entries below p without a carry (rounded up by slot_width, so
        # that packing is one array), so row i of A @ B is one sum
        # of B's packed rows scaled by A's row i, reduced mod p once per
        # entry. Over Q A's rows and B's columns are scaled to integers and
        # each dot product is divided by both scales in one Fraction.
        p = self.field.modulus
        left = self.entries
        if p == 2:
            left = [pack(row, 1) for row in left]
            right = [pack(col, 1) for col in other.transpose().entries]
            out = [[(row & col).bit_count() & 1 for col in right] for row in left]
        elif p is not None:
            width = slot_width(self.cols * (p - 1) ** 2)
            right = [pack(row, width) for row in other.entries]
            n = other.cols
            out = [
                [x % p for x in unpack(sum(map(mul, row, right)), n, width)]
                for row in left
            ]
        else:
            left = [clear_denominators(row) for row in left]
            right = [clear_denominators(col) for col in other.transpose().entries]
            out = [
                [Fraction(sum(map(mul, row, col)), rd * cd) for col, cd in right]
                for row, rd in left
            ]
        return Matrix._canonical(self.field, self.rows, other.cols, out)

    # -- shuffling ----------------------------------------------------------

    def transpose(self) -> "Matrix":
        data = zip(*self.entries) if self.rows else [()] * self.cols
        return Matrix._canonical(self.field, self.cols, self.rows, data)

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.rows != other.rows:
            raise DimensionMismatch(
                f"cannot augment {self.rows} rows with {other.rows} rows"
            )
        data = [ra + rb for ra, rb in zip(self.entries, other.entries)]
        return Matrix._canonical(self.field, self.rows, self.cols + other.cols, data)

    def take_cols(self, indices: Iterable[int]) -> "Matrix":
        idx = list(indices)
        return Matrix._canonical(self.field, self.rows, len(idx), map(_picker(idx), self.entries))

    def take_rows(self, indices: Iterable[int]) -> "Matrix":
        """The rows at ``indices``, in that order; the row tuples are
        shared with this matrix, not copied."""
        idx = list(indices)
        return Matrix._canonical(self.field, len(idx), self.cols, _picker(idx)(self.entries))


def _picker(idx: list[int]):
    # A function from a sequence to its items at idx, as a tuple. For two
    # or more indices it is itemgetter, one C call; for one, itemgetter
    # would return a bare item, and it takes no empty index list.
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


# Byte tables between the entries 0, 1 and the binary digits "0", "1":
# width-1 packing and unpacking go through one binary string and one
# bytes.translate instead of a Python loop over the entries.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

# The array type code of each slot width an unsigned machine integer
# has: 8, 16, 32 and 64 bits. At these widths a word is the bytes of one
# array of its slots, in native byte order, so packing and unpacking are
# one array plus one int.from_bytes or int.to_bytes. A little-endian
# word holds its lowest slot first, so there the array is reversed.
_SLOT_CODES = {array(code).itemsize * 8: code for code in "BHILQ"}
_LITTLE = sys.byteorder == "little"


def slot_width(bound: int) -> int:
    """The width of a slot that holds every value up to ``bound``: its
    bit length rounded up to the next width in ``_SLOT_CODES``, where
    pack and unpack take the array path, or the bit length itself when
    it is past 64 bits."""
    bits = bound.bit_length()
    return next((w for w in sorted(_SLOT_CODES) if w >= bits), bits)


def pack(values: Sequence[int], width: int) -> int:
    """Non-negative integers v_0 .. v_(n-1), each below 2**width, as one
    integer with v_j in the width-bit slot at bit (n-1-j)*width, so an
    operation on a whole row or column is one integer operation.

    Width 1 goes through one binary string, and the widths in
    ``_SLOT_CODES`` through one array; any other width takes one shift
    and one or per value."""
    if width == 1:
        return int(b"0" + bytes(values).translate(_BIT_DIGITS), 2)
    code = _SLOT_CODES.get(width)
    if code is not None:
        return int.from_bytes(array(code, values[::-1] if _LITTLE else values), sys.byteorder)
    word = 0
    for v in values:
        word = word << width | v
    return word


def unpack(word: int, n: int, width: int) -> Sequence[int]:
    """The lowest n width-bit slots of ``word``, most significant first:
    the values ``pack`` packed, for a word it made of n values. Slots
    above the lowest n are ignored. The paths are those of ``pack``."""
    if width == 1:
        # With bit n set the digit string has more than n digits, so its
        # last n digits are the lowest n bits, also when n is 0.
        digits = format(word | 1 << n, "b").encode()
        return tuple(digits[len(digits) - n:].translate(_BIT_VALUES))
    code = _SLOT_CODES.get(width)
    if code is not None:
        bits = n * width
        slots = array(code, (word & (1 << bits) - 1).to_bytes(bits // 8, sys.byteorder))
        if _LITTLE:
            slots.reverse()
        return slots.tolist()
    mask = (1 << width) - 1
    return [word >> s & mask for s in range((n - 1) * width, -1, -width)]
