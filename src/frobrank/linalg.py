"""Canonical exact linear algebra: RREF, kernels, column bases.

Everything here is deterministic. Pivots are chosen by a fixed rule
(leftmost column, topmost eligible row), kernel vectors follow the
free-variable parametrization in column order, and particular solutions
set all free variables to zero. Identical inputs therefore produce
identical outputs, which keeps every downstream construction
reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionMismatch, FieldMismatch, NotContained, NotIndependent
from .fields import clear_denominators
from .matrix import Matrix, pack_bits, unpack_bits


class RrefResult(NamedTuple):
    rref: Matrix
    pivot_cols: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Scans columns left to right; for each column the topmost not yet
    used row with a nonzero entry becomes the pivot row and clears its
    column everywhere else. The RREF is unique, so the kernel that runs
    depends only on the field: fraction-free integer elimination over
    the rationals, integer rows reduced mod p over GF(p), and rows
    packed into single integers and reduced by XOR over GF(2).
    """
    p = m.field.modulus
    if p is None:
        rows, pivots = _rref_rational(m.entries, m.cols)
    elif p == 2:
        rows, pivots = _rref_binary(m.entries, m.cols)
    else:
        rows, pivots = _rref_prime(m.entries, m.cols, p)
    return RrefResult(Matrix._canonical(m.field, m.rows, m.cols, rows), pivots, len(pivots))


def _pivot_search(work: list, top: int, test) -> int | None:
    return next((r for r in range(top, len(work)) if test(work[r])), None)


def _rref_rational(entries, ncols: int) -> tuple[list, tuple[int, ...]]:
    # Clearing each row's denominators scales the row, which leaves the
    # RREF unchanged. Fraction-free Gauss-Jordan (Bareiss) then keeps
    # every entry a minor of the scaled matrix, so the division by the
    # previous pivot is exact, and all pivots end up equal to the last.
    work = [clear_denominators(row)[0] for row in entries]
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        top = len(pivots)
        hit = _pivot_search(work, top, lambda row: row[col])
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        lead = work[top]
        pv = lead[col]
        for r, row in enumerate(work):
            if r == top:
                continue
            rv = row[col]
            if rv:
                work[r] = [(pv * x - rv * y) // prev for x, y in zip(row, lead)]
            elif pv != prev:
                work[r] = [pv * x // prev for x in row]
        prev = pv
        pivots.append(col)
    return [[Fraction(x, prev) for x in row] for row in work], tuple(pivots)


def _rref_prime(entries, ncols: int, p: int) -> tuple[list, tuple[int, ...]]:
    # Rows at and below the pivot row are zero left of the pivot column,
    # so only the entries from that column on change.
    work = [list(row) for row in entries]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        hit = _pivot_search(work, top, lambda row: row[col])
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        inv = pow(work[top][col], -1, p)
        tail = [x * inv % p for x in work[top][col:]]
        work[top][col:] = tail
        for r, row in enumerate(work):
            rv = row[col]
            if rv and r != top:
                row[col:] = [(x - rv * y) % p for x, y in zip(row[col:], tail)]
        pivots.append(col)
    return work, tuple(pivots)


def _rref_binary(entries, ncols: int) -> tuple[list, tuple[int, ...]]:
    # Each row is one integer from pack_bits, column j at bit ncols-1-j;
    # a row operation is one XOR instead of a pass over the row, which
    # about halves the time _rref_prime takes at p = 2.
    work = list(map(pack_bits, entries))
    shifts = range(ncols - 1, -1, -1)
    pivots: list[int] = []
    for col, shift in enumerate(shifts):
        top = len(pivots)
        bit = 1 << shift
        hit = _pivot_search(work, top, lambda row: row & bit)
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        lead = work[top]
        for r, row in enumerate(work):
            if row & bit and r != top:
                work[r] = row ^ lead
        pivots.append(col)
    return [unpack_bits(row, ncols) for row in work], tuple(pivots)


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
            v[pc] = field.canon(-res.rref[i, free])
        columns.append(v)
    return Matrix._canonical(field, len(columns), m.cols, columns).transpose()


def pivot_column_basis(m: Matrix) -> Matrix:
    """The leftmost maximal set of linearly independent columns of ``m``
    (its pivot columns), spanning the same column space."""
    return m.take_cols(rref(m).pivot_cols)


def extend_basis(
    partial: Matrix, space: Matrix, space_rank: int
) -> tuple[Matrix, tuple[int, ...]]:
    """Grow independent columns into a basis of the column span of ``space``.

    ``space_rank`` must be ``rank(space)``; callers hold it from their
    own elimination of ``space``. Returns ``([partial | added], cols)``:
    ``added`` are the columns of ``space`` at indices ``cols``, the pivot
    columns of ``[partial | space]`` past ``partial``, which are exactly
    the columns a left-to-right scan appends because they are
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
    if res.rank != space_rank:
        raise NotContained("starting columns leave the column span of space")
    cols = tuple(c - k for c in res.pivot_cols[k:])
    return partial.hstack(space.take_cols(cols)), cols


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
    return Matrix._canonical(field, len(columns), n.cols, columns).transpose()


def inverse(m: Matrix) -> Matrix | None:
    """Exact inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise DimensionMismatch(f"cannot invert a {m.rows}x{m.cols} matrix")
    return solve_right(m, Matrix.identity(m.field, m.rows))
