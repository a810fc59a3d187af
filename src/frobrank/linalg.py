"""Canonical exact linear algebra: RREF, kernels, column bases.

Everything here is deterministic. Pivots are chosen by a fixed rule
(leftmost column, topmost eligible row), kernel vectors follow the
free-variable parametrization in column order, and particular solutions
set all free variables to zero. Identical inputs therefore produce
identical outputs, which keeps every downstream construction
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, FieldMismatch, NotContained, NotIndependent
from .matrix import Matrix


@dataclass(frozen=True)
class RrefResult:
    rref: Matrix
    pivot_cols: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Scans columns left to right; for each column the topmost not yet
    used row with a nonzero entry becomes the pivot row, is scaled to a
    unit pivot, and clears its column everywhere else. Exact arithmetic
    throughout, no pivot-size heuristics.
    """
    field = m.field
    zero = field.zero
    work = [list(row) for row in m.entries]
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(m.cols):
        if pivot_row == m.rows:
            break
        hit = next((r for r in range(pivot_row, m.rows) if work[r][col] != zero), None)
        if hit is None:
            continue
        if hit != pivot_row:
            work[pivot_row], work[hit] = work[hit], work[pivot_row]
        pivot = work[pivot_row][col]
        if pivot != field.one:
            inv = field.inv(pivot)
            work[pivot_row] = [field.mul(inv, x) for x in work[pivot_row]]
        lead = work[pivot_row]
        for r in range(m.rows):
            if r != pivot_row and work[r][col] != zero:
                factor = work[r][col]
                work[r] = [field.sub(x, field.mul(factor, y)) for x, y in zip(work[r], lead)]
        pivot_cols.append(col)
        pivot_row += 1
    reduced = Matrix(field, work, shape=(m.rows, m.cols))
    return RrefResult(reduced, tuple(pivot_cols), len(pivot_cols))


def rank(m: Matrix) -> int:
    return rref(m).rank


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of the right null space {x : m @ x = 0}.

    One column per free (non-pivot) column of ``m``, in increasing
    column order: that free variable is set to one, every other free
    variable to zero, and the pivot variables follow from the RREF.
    The result has ``cols(m) - rank(m)`` columns and full column rank;
    a trivial kernel yields a matrix with no columns.
    """
    field = m.field
    res = rref(m)
    pivot_set = set(res.pivot_cols)
    columns = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [field.zero] * m.cols
        v[free] = field.one
        for i, pc in enumerate(res.pivot_cols):
            v[pc] = field.neg(res.rref[i, free])
        columns.append(v)
    return Matrix.from_columns(field, columns, rows=m.cols)


def pivot_column_basis(m: Matrix) -> Matrix:
    """The leftmost maximal set of linearly independent columns of ``m``
    (its pivot columns), spanning the same column space."""
    return m.take_cols(rref(m).pivot_cols)


def extend_basis(partial: Matrix, space: Matrix) -> Matrix:
    """Grow independent columns into a basis of the column span of ``space``.

    Returns ``[partial | added]``, where ``added`` are the pivot columns
    of ``[partial | space]`` past ``partial``: exactly the columns of
    ``space`` that a left-to-right scan appends because they are
    independent of everything chosen before them.

    Raises NotIndependent when ``partial`` has dependent columns, and
    NotContained when some column of ``partial`` falls outside the
    column span of ``space``.
    """
    if partial.field != space.field:
        raise FieldMismatch("partial basis and space must share a field")
    if partial.rows != space.rows:
        raise DimensionMismatch(
            f"partial has {partial.rows} rows but space has {space.rows}"
        )
    k = partial.cols
    res = rref(partial.hstack(space))
    if res.pivot_cols[:k] != tuple(range(k)):
        raise NotIndependent("starting columns are linearly dependent")
    if res.rank != rank(space):
        raise NotContained("starting columns leave the column span of space")
    return partial.hstack(space.take_cols(c - k for c in res.pivot_cols[k:]))


def solve_right(n: Matrix, m: Matrix) -> Matrix | None:
    """Canonical particular solution Z of ``n @ Z = m``, or None.

    Returns None when some column of ``m`` lies outside the column span
    of ``n``. Otherwise each column of Z is the solution with all free
    variables set to zero, read off the RREF of the augmented matrix.
    """
    if n.field != m.field:
        raise FieldMismatch("operands must share a field")
    if n.rows != m.rows:
        raise DimensionMismatch(f"{n.rows} rows on the left, {m.rows} on the right")
    res = rref(n.hstack(m))
    if res.pivot_cols and res.pivot_cols[-1] >= n.cols:
        return None
    field = n.field
    columns = []
    for j in range(m.cols):
        v = [field.zero] * n.cols
        for i, pc in enumerate(res.pivot_cols):
            v[pc] = res.rref[i, n.cols + j]
        columns.append(v)
    return Matrix.from_columns(field, columns, rows=n.cols)


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise DimensionMismatch(f"cannot invert a {m.rows}x{m.cols} matrix")
    return solve_right(m, Matrix.identity(m.field, m.rows))
