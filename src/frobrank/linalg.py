"""Canonical exact linear algebra: RREF, kernels, solutions.

Everything here is deterministic. Pivots are chosen by a fixed rule
(leftmost column, topmost eligible row), kernel vectors follow the
free-variable parametrization in column order, and particular solutions
set all free variables to zero. Identical inputs therefore produce
identical outputs, which keeps every downstream construction
reproducible.

Each field's kernel runs in two phases, and ``echelon`` gives both in
one ``Echelon`` record. The forward pass clears below each pivot and
finds the pivot columns and the rows of the matrix that become the
pivot rows. Every rank and basis extension of the analysis is read off
it alone: over an augmented ``[N | M]``, the pivots past N are the
columns of M that extend the span of N. The back phase then reduces the
pivot rows, and runs only where reduced entries are read: ``rref``, a
kernel that is not empty, and ``solve_right``, the one solver.

The pivot rows matter because they carry the rank: with R the pivot
rows of M, M[R, pivot columns] is nonsingular, so keeping only the rows
R is injective on the column space of M. Pivots, reduced rows, kernels
and canonical solutions of any matrix whose columns lie in that space
are the same on the rows R as on all rows.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, NamedTuple

from .fields import Field
from .matrix import Matrix, pack, slot_width, unpack

_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


class RrefResult(NamedTuple):
    rref: Matrix
    pivot_cols: tuple[int, ...]
    rank: int


class Echelon(NamedTuple):
    """One forward pass over a matrix: its pivot columns, the rows of the
    matrix that became pivot rows, in increasing order, the back phase,
    which gives row i of the RREF at the non-pivot columns, in order, and
    the matrix's field. ``kernel`` runs the back phase on each call; it
    never changes the forward state, so reads are repeatable."""

    pivot_cols: tuple[int, ...]
    pivot_rows: tuple[int, ...]
    back: Callable[[], list]
    field: Field

    def kernel(self, split: int) -> Matrix:
        """``kernel_basis(N)`` for ``[N | M]`` with N its first ``split`` columns."""
        field, pivots = self.field, tuple(c for c in self.pivot_cols if c < split)
        free = _free(split, pivots)
        # The RREF of N is [N | M]'s at the first split columns: row pc is
        # minus the RREF row with pivot pc at N's free columns, the first.
        rows = self.back()[:len(pivots)] if free else []
        data = [[field.canon(-x) for x in row[:len(free)]] for row in rows]
        data += Matrix.identity(field, len(free)).entries
        return Matrix._placed(field, split, len(free), pivots + tuple(free), data)


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form: the forward pass and the back phase of
    the field's kernel.

    Scans columns left to right; for each column the topmost not yet
    used row with a nonzero entry becomes the pivot row and clears its
    column below; the back phase then clears the pivot columns above.
    The RREF is unique, so the kernel that runs depends only on the
    field: over the rationals, fraction-free integer elimination and
    back substitution of the matrix with each column scaled to a
    primitive integer vector; over GF(p), the packed kernel, which holds
    each row in one integer, updates it with one multiply-add and
    reduces mod p lazily; and over GF(2), rows packed one bit per entry
    and reduced by XOR.
    """
    pivots, _, back, field = echelon(m)
    zero, one = field.zero, field.one
    free = _free(m.cols, pivots)
    rows = []
    for col, values in zip(pivots, back()):
        row = [zero] * m.cols
        row[col] = one
        for j, x in zip(free, values):
            if x:
                row[j] = x
        rows.append(row)
    rows += [[zero] * m.cols] * (m.rows - len(pivots))
    return RrefResult(Matrix._canonical(field, m.rows, m.cols, rows), pivots, len(pivots))


def echelon(m: Matrix) -> Echelon:
    """The ``Echelon`` of ``m``, from the forward pass of its field's
    kernel (see ``rref``)."""
    # Each kernel returns the pivot columns, the rows of the input that
    # became the pivot rows, in pivot order, and the back phase.
    p = m.field.modulus
    if p is None:
        pivots, rows, back = _rational(m.entries, m.cols)
    elif p == 2:
        pivots, rows, back = _binary(m.entries, m.cols)
    else:
        pivots, rows, back = _packed(m.entries, m.cols, p)
    return Echelon(pivots, tuple(sorted(rows)), back, m.field)


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of the right null space {x : m @ x = 0}.

    One column per free (non-pivot) column of ``m``, in increasing
    column order: that free variable is set to one, every other free
    variable to zero, and the pivot variables follow from the RREF.
    The result has ``cols(m) - rank(m)`` columns and full column rank;
    a trivial kernel yields a matrix with no columns.
    """
    return echelon(m).kernel(m.cols)


def solve_right(n: Matrix, m: Matrix) -> Matrix | None:
    """Canonical particular solution Z of ``n @ Z = m``, or None when
    some column of ``m`` lies outside the column span of ``n``: when the
    last pivot of ``[n | m]`` is at or past ``n.cols``. Each column of Z
    is the solution with all free variables set to zero, read off the
    back phase."""
    pivots, _, back, field = echelon(n.hstack(m))
    if pivots and pivots[-1] >= n.cols:
        return None
    # Every column of m is free, and the last ones; row pc of Z is the
    # augmented part of the RREF row whose pivot is pc.
    tails = [row[len(row) - m.cols:] for row in back()]
    return Matrix._placed(field, n.cols, m.cols, pivots, tails)


def _free(ncols: int, pivots: tuple[int, ...]) -> list[int]:
    taken = set(pivots)
    return [j for j in range(ncols) if j not in taken]


def _bring_up(work: list, order: list[int], top: int, test) -> bool:
    # Swap the first row at or below top that passes test into row top,
    # in the work and in the input's row order alike; False if none does.
    hit = next((r for r in range(top, len(work)) if test(work[r])), None)
    if hit is None:
        return False
    work[top], work[hit] = work[hit], work[top]
    order[top], order[hit] = order[hit], order[top]
    return True


def _rational(entries, ncols: int) -> tuple:
    # Scaling column j by a nonzero s_j leaves the pivots unchanged, and
    # rref(M S) = diag(1/s_{p_i}) rref(M) S for S = diag(s), so
    # rref(M)[i, j] = rref(M S)[i, j] * s_{p_i} / s_j. Each column is
    # scaled to a primitive integer vector: s_j is the lcm of its
    # denominators over the gcd of the cleared numerators. That gcd is
    # the gcd of the numerators: a prime of the lcm divides some entry's
    # denominator as often as the lcm, so not that entry's cleared
    # numerator. Fraction-free elimination (Bareiss) then keeps every
    # entry a minor of M S, so the division by the previous pivot is
    # exact. Rows below a pivot are zero left of its column, so only the
    # columns from the pivot rightward are updated.
    nums = [list(map(_NUMERATOR, row)) for row in entries]
    dens = [list(map(_DENOMINATOR, row)) for row in entries]
    scales = [(lcm(*d), gcd(*n) or 1) for n, d in zip(zip(*nums), zip(*dens))]
    scales += [(1, 1)] * (ncols - len(scales))
    work = [[x // content * (den // d) for x, d, (den, content) in zip(num, row, scales)]
            for num, row in zip(nums, dens)]
    order = list(range(len(work)))
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        top = len(pivots)
        if not _bring_up(work, order, top, lambda row: row[col]):
            continue
        lead = work[top][col:]
        pv = lead[0]
        for row in work[top + 1:]:
            rv = row[col]
            if rv:
                row[col:] = [(pv * x - rv * y) // prev for x, y in zip(row[col:], lead)]
            elif pv != prev:
                row[col:] = [pv * x // prev for x in row[col:]]
        prev = pv
        pivots.append(col)

    def back() -> list:
        # Fraction-free back substitution (Nakos, Turner and Williams
        # 1997). With delta the last pivot, delta * rref(M S)[i, j] is an
        # integer minor, and row i of the forward pass, with pivot d_i, is
        # d_i rref(M S)[i] plus its entries at the later pivots times their
        # reduced rows; so it is exact to divide by d_i. Entry (i, j) of
        # rref(M) is then solved[i][j] * den_{p_i} * content_j over
        # delta * content_{p_i} * den_j, with s_j = den_j / content_j.
        free = _free(ncols, pivots)
        delta = prev
        solved: list[list[int]] = []
        for i in range(len(pivots) - 1, -1, -1):
            row = work[i]
            acc = [delta * row[j] for j in free]
            for col, below in zip(pivots[i + 1:], reversed(solved)):
                c = row[col]
                if c:
                    acc = [x - c * y for x, y in zip(acc, below)]
            d = row[pivots[i]]
            solved.append([x // d for x in acc])
        solved.reverse()
        zero = Fraction(0)
        free_scales = [scales[j] for j in free]
        reduced = []
        for col, ints in zip(pivots, solved):
            lead_den, lead_content = scales[col]
            divisor = delta * lead_content
            reduced.append([Fraction(x * lead_den * content, divisor * den) if x else zero
                            for x, (den, content) in zip(ints, free_scales)])
        return reduced

    return tuple(pivots), tuple(order[:len(pivots)]), back


def _packed(entries, ncols: int, p: int) -> tuple:
    # Each row is one integer from pack, column j in the width-bit slot
    # at shift (ncols-1-j)*width, and a row update is one multiply-add,
    # row + (p - rv)*lead, left unreduced. No carry crosses a slot: a slot
    # starts below p, the lead is reduced, and a row takes at most one
    # update per pivot, in the forward pass and the back phase together,
    # each adding at most (p-1)**2 to a slot. So every slot stays below
    # (rank+1)*p*p, which width bits hold. slot_width rounds the width up
    # to 8, 16, 32 or 64 bits, which only adds headroom, so that pack and
    # unpack are one array each; for p past about 2**28 the slots are
    # wider than 64 bits and both loop per slot.
    width = slot_width((min(len(entries), ncols) + 1) * p * p)
    mask = (1 << width) - 1
    work = [pack(row, width) for row in entries]
    order = list(range(len(work)))
    pivots: list[int] = []

    def reduce(row: int, col: int, scale: int = 1) -> int:
        # The row is zero mod p left of column col, so only its last
        # ncols - col slots are read, scaled and reduced; the slots before
        # them become 0.
        return pack([x * scale % p for x in unpack(row, ncols - col, width)], width)

    for col in range(ncols):
        top = len(pivots)
        shift = (ncols - 1 - col) * width
        if not _bring_up(work, order, top, lambda row: (row >> shift & mask) % p):
            continue
        inv = pow(work[top] >> shift & mask, -1, p)
        lead = work[top] = reduce(work[top], col, inv)
        for r in range(top + 1, len(work)):
            row = work[r]
            rv = (row >> shift & mask) % p
            if rv:
                work[r] = row + (p - rv) * lead
        pivots.append(col)

    def back() -> list:
        # Bottom-up, each pivot row is reduced and clears its column in
        # the rows above. A row's slot at a later pivot column is the one
        # it had as a reduced lead, since the rows cleared with before
        # are zero there.
        rows = work[:len(pivots)]
        for k in range(len(pivots) - 1, -1, -1):
            col = pivots[k]
            shift = (ncols - 1 - col) * width
            lead = rows[k] = reduce(rows[k], col)
            for i in range(k):
                rv = rows[i] >> shift & mask
                if rv:
                    rows[i] += (p - rv) * lead
        free = _free(ncols, pivots)
        return [[slots[j] for j in free] for slots in (unpack(row, ncols, width) for row in rows)]

    return tuple(pivots), tuple(order[:len(pivots)]), back


def _binary(entries, ncols: int) -> tuple:
    # Each row is one integer from pack at width 1, column j at bit
    # ncols-1-j; a row operation is one XOR, with no slot to reduce.
    work = [pack(row, 1) for row in entries]
    order = list(range(len(work)))
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        bit = 1 << (ncols - 1 - col)
        if not _bring_up(work, order, top, lambda row: row & bit):
            continue
        lead = work[top]
        for r in range(top + 1, len(work)):
            if work[r] & bit:
                work[r] ^= lead
        pivots.append(col)

    def back() -> list:
        # Bottom-up, each pivot row clears its column in the rows above.
        rows = work[:len(pivots)]
        for k in range(len(pivots) - 1, 0, -1):
            bit = 1 << (ncols - 1 - pivots[k])
            lead = rows[k]
            for i in range(k):
                if rows[i] & bit:
                    rows[i] ^= lead
        free = _free(ncols, pivots)
        return [[bits[j] for j in free] for bits in (unpack(row, ncols, 1) for row in rows)]

    return tuple(pivots), tuple(order[:len(pivots)]), back
