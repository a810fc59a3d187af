"""Canonical exact linear algebra: RREF, kernels, column bases.

Everything here is deterministic. Pivots are chosen by a fixed rule
(leftmost column, topmost eligible row), kernel vectors follow the
free-variable parametrization in column order, and particular solutions
set all free variables to zero. Identical inputs therefore produce
identical outputs, which keeps every downstream construction
reproducible.

Each field's kernel runs in one of two modes. ``rref`` reduces fully,
for ``kernel_basis`` and ``solve_right``, which read the reduced
entries. ``pivot_cols`` runs forward only: it clears below each pivot
and returns the pivot columns, which is all that ``rank``, the
analysis's ranks and basis extensions and every span test read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import DimensionMismatch, FieldMismatch
from .fields import clear_denominators
from .matrix import Matrix, pack, slot_width, unpack


class RrefResult(NamedTuple):
    rref: Matrix
    pivot_cols: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form by Gauss-Jordan elimination.

    Scans columns left to right; for each column the topmost not yet
    used row with a nonzero entry becomes the pivot row and clears its
    column everywhere else. The RREF is unique, so the kernel that runs
    depends only on the field: over the rationals, fraction-free
    integer elimination of the matrix with each column scaled to a
    primitive integer vector; over GF(p), the packed kernel, which holds
    each row in one integer, updates it with one multiply-add and
    reduces mod p lazily; and over GF(2), rows packed one bit per entry
    and reduced by XOR. Only ``kernel_basis`` and ``solve_right`` call it, as they
    read the reduced entries; callers that read only pivots or the rank
    use ``pivot_cols``.
    """
    rows, pivots = _eliminate(m, True)
    return RrefResult(Matrix._canonical(m.field, m.rows, m.cols, rows), pivots, len(pivots))


def pivot_cols(m: Matrix) -> tuple[int, ...]:
    """The pivot columns of ``rref(m)``, by forward elimination only:
    the same kernel and pivot rule, but each pivot clears only the rows
    below it, and no reduced entry (no Fraction, no residue) is formed."""
    return _eliminate(m, False)[1]


def _eliminate(m: Matrix, full: bool) -> tuple[list | None, tuple[int, ...]]:
    p = m.field.modulus
    if p is None:
        return _rref_rational(m.entries, m.cols, full)
    if p == 2:
        return _rref_binary(m.entries, m.cols, full)
    return _rref_packed(m.entries, m.cols, p, full)


def _pivot_search(work: list, top: int, test) -> int | None:
    return next((r for r in range(top, len(work)) if test(work[r])), None)


def _rref_rational(entries, ncols: int, full: bool) -> tuple[list | None, tuple[int, ...]]:
    # Scaling column j by a nonzero s_j leaves the pivots unchanged, and
    # rref(M S) = diag(1/s_{p_i}) rref(M) S for S = diag(s), so
    # rref(M)[i, j] = rref(M S)[i, j] * s_{p_i} / s_j. Each column is
    # scaled to a primitive integer vector: s_j is the lcm of its
    # denominators over the gcd of the cleared numerators. Fraction-free
    # elimination (Bareiss) then keeps every entry a minor of M S, so the
    # division by the previous pivot is exact, also when the rows above
    # each pivot are left alone; a full reduction ends with all pivots
    # equal to the last.
    scales = []
    columns = []
    for column in zip(*entries):
        ints, den = clear_denominators(column)
        content = gcd(*ints) or 1
        scales.append((den, content))
        columns.append([x // content for x in ints])
    work = [list(row) for row in zip(*columns)] if columns else [[] for _ in entries]
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
        # A full reduction clears every other row, a forward run only the
        # rows below the pivot.
        for r in range(0 if full else top + 1, len(work)):
            if r == top:
                continue
            row = work[r]
            rv = row[col]
            if rv:
                work[r] = [(pv * x - rv * y) // prev for x, y in zip(row, lead)]
            elif pv != prev:
                work[r] = [pv * x // prev for x in row]
        prev = pv
        pivots.append(col)
    if not full:
        return None, tuple(pivots)
    # Row i of rref(M S) is work[i] / prev; with s_j = den_j / content_j,
    # entry (i, j) of rref(M) is work[i][j] * den_{p_i} * content_j over
    # prev * content_{p_i} * den_j. Zero entries and the zero rows below
    # the rank share one Fraction(0).
    zero = Fraction(0)
    reduced = []
    for row, col in zip(work, pivots):
        lead_den, lead_content = scales[col]
        divisor = prev * lead_content
        reduced.append([Fraction(x * lead_den * content, divisor * den) if x else zero
                        for x, (den, content) in zip(row, scales)])
    reduced += [[zero] * ncols for _ in range(len(work) - len(pivots))]
    return reduced, tuple(pivots)


def _rref_packed(entries, ncols: int, p: int, full: bool) -> tuple[list | None, tuple[int, ...]]:
    # Each row is one integer from pack, column j in the width-bit slot
    # at shift (ncols-1-j)*width, and a row update is one multiply-add,
    # row + (p - rv)*lead, left unreduced. No carry crosses a slot: a slot
    # starts below p, the lead is reduced, and a row takes at most one
    # update per pivot, each adding at most (p-1)**2 to a slot. So every
    # slot stays below (rank+1)*p*p, which width bits hold. slot_width
    # rounds the width up to 8, 16, 32 or 64 bits, which only adds
    # headroom, so that pack and unpack are one array each; for p past
    # about 2**28 the slots are wider than 64 bits and both loop per slot.
    width = slot_width((min(len(entries), ncols) + 1) * p * p)
    mask = (1 << width) - 1
    work = [pack(row, width) for row in entries]
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        shift = (ncols - 1 - col) * width
        hit = _pivot_search(work, top, lambda row: (row >> shift & mask) % p)
        if hit is None:
            continue
        work[top], work[hit] = work[hit], work[top]
        # The lead is zero mod p left of the pivot column, so only its
        # last ncols - col slots are read, reduced and scaled; the slots
        # before them become 0.
        inv = pow(work[top] >> shift & mask, -1, p)
        tail = unpack(work[top], ncols - col, width)
        lead = work[top] = pack([x * inv % p for x in tail], width)
        for r in range(0 if full else top + 1, len(work)):
            row = work[r]
            rv = (row >> shift & mask) % p
            if rv and r != top:
                work[r] = row + (p - rv) * lead
        pivots.append(col)
    if not full:
        return None, tuple(pivots)
    return [[x % p for x in unpack(row, ncols, width)] for row in work], tuple(pivots)


def _rref_binary(entries, ncols: int, full: bool) -> tuple[list | None, tuple[int, ...]]:
    # Each row is one integer from pack at width 1, column j at bit
    # ncols-1-j; a row operation is one XOR, with no slot to reduce.
    work = [pack(row, 1) for row in entries]
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
        for r in range(0 if full else top + 1, len(work)):
            if work[r] & bit and r != top:
                work[r] ^= lead
        pivots.append(col)
    if not full:
        return None, tuple(pivots)
    return [unpack(row, ncols, 1) for row in work], tuple(pivots)


def rank(m: Matrix) -> int:
    return len(pivot_cols(m))


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
    free = [j for j in range(m.cols) if j not in res.pivot_cols]
    # Row pc is minus the RREF row with pivot pc at the free columns.
    rows = [[field.canon(-row[j]) for j in free] for row in res.rref.entries[:res.rank]]
    rows += Matrix.identity(field, len(free)).entries
    return Matrix._placed(field, m.cols, len(free), res.pivot_cols + tuple(free), rows)


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
    # Row pc of Z is the augmented part of the RREF row whose pivot is pc.
    tails = (row[n.cols:] for row in res.rref.entries)
    return Matrix._placed(n.field, n.cols, m.cols, res.pivot_cols, tails)

