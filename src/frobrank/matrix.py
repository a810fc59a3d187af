"""Immutable dense matrices with exact entries.

Entries are stored row-major as nested tuples in canonical form, so
equal matrices compare and hash identically. ``Matrix(field, entries)``
canonicalizes and validates what it is given; results computed here and
in the kernels are canonical already and skip that pass. Zero-row
and zero-column shapes are allowed; a matrix with no columns doubles as
the empty basis of the trivial subspace.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field, Scalar, clear_denominators

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
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls._canonical(field, rows, cols, [(field.zero,) * cols] * rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._canonical(
            field, n, n, [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @classmethod
    def column(cls, field: Field, values: Sequence) -> "Matrix":
        return cls(field, [[v] for v in values], shape=(len(values), 1))

    @classmethod
    def from_columns(
        cls, field: Field, columns: Sequence[Sequence], rows: int
    ) -> "Matrix":
        """Assemble a matrix from column vectors; ``rows`` fixes the
        height when ``columns`` is empty."""
        data = [[col[i] for col in columns] for i in range(rows)]
        return cls(field, data, shape=(rows, len(columns)))

    # -- basic queries ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for row in self.entries for x in row)

    def __getitem__(self, key: tuple[int, int]) -> Scalar:
        i, j = key
        return self.entries[i][j]

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

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        canon = self.field.canon
        return Matrix._canonical(
            self.field,
            self.rows,
            self.cols,
            [[canon(a + b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {other.shape} from {self.shape}")
        canon = self.field.canon
        return Matrix._canonical(
            self.field,
            self.rows,
            self.cols,
            [[canon(a - b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # One integer dot product per entry. Over GF(2) A's rows and B's
        # columns are packed into integers and the dot product is the
        # parity of their AND; over GF(p) it is reduced once mod p; over Q
        # it pairs A's rows and B's columns scaled to integers and is
        # divided by both scales in one Fraction.
        p = self.field.modulus
        left = self.entries
        right = list(zip(*other.entries)) if other.rows else [()] * other.cols
        if p == 2:
            left = list(map(pack_bits, left))
            right = list(map(pack_bits, right))
            out = [[(row & col).bit_count() & 1 for col in right] for row in left]
        elif p is not None:
            out = [[sum(map(mul, row, col)) % p for col in right] for row in left]
        else:
            left = [clear_denominators(row) for row in left]
            right = [clear_denominators(col) for col in right]
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
        data = [[row[j] for j in idx] for row in self.entries]
        return Matrix._canonical(self.field, self.rows, len(idx), data)

    def col(self, j: int) -> "Matrix":
        return self.take_cols([j])

    def submatrix(self, row_indices: Iterable[int], col_indices: Iterable[int]) -> "Matrix":
        ri = list(row_indices)
        ci = list(col_indices)
        data = [[self.entries[i][j] for j in ci] for i in ri]
        return Matrix._canonical(self.field, len(ri), len(ci), data)


def pack_bits(bits: Sequence[int]) -> int:
    """GF(2) entries b_0 .. b_(n-1) as one integer, b_j at bit n-1-j, so
    a row or column operation is one integer operation."""
    return int("0" + "".join(map(str, bits)), 2)


def unpack_bits(word: int, n: int) -> tuple[int, ...]:
    """The n entries that ``pack_bits`` packed into ``word``."""
    return tuple(word >> s & 1 for s in range(n - 1, -1, -1))


def matmul(lhs: Matrix, rhs: Matrix) -> Matrix:
    """Exact matrix product; function form of ``lhs @ rhs``."""
    return lhs @ rhs
