"""Construction and verification of solution pairs for B = BCX + YAB.

The rank inequality rank(ABC) + rank(B) >= rank(AB) + rank(BC) is tight
exactly when the matrix equation B = BCX + YAB is solvable. On tight
instances ``construct_certificate`` builds such a pair explicitly:

1. The analysis holds B's pivot columns, so D is ``b.take_cols(b_pivots)``,
   and the kernel coordinates K of A @ D. The columns of W = D @ K are a
   basis of Rg(B) ∩ Ker(A), s of them, in the rank-r column space of B.
2. Extend W by further columns of B to a basis [W | completion] of
   Rg(B). A left-to-right scan adds column j of B exactly when column j
   of AB is independent of those before it, as W spans Rg(B) ∩ Ker(A):
   the completion is B at AB's pivot columns, its image the analysis's
   AB at them, a basis of Rg(AB).
3. Y is the matrix sending each image back to its completion vector and
   a complement of Rg(AB) to zero, so Y(ABz) recovers the completion
   component of Bz.
4. Each basis vector of W is inside Rg(BC), so W = W_BC @ Z has a
   solution Z, the factor of test 4, which the analysis holds. Then
   W = BC @ U @ Z, where U places the kernel coordinates of BC at its
   pivot columns, so the columns of P = U @ Z are preimages under BC.
   X is the map sending W to P, and the completion and a complement of
   Rg(B) to zero, composed with B; BCXz then recovers the intersection
   component of Bz. W = D @ K with K the identity at the positions F
   of B's pivot columns that are not pivots of AB, and the completion
   is D at AB's pivots. So the map is P @ S, with S the selector that
   sends the columns of D at F to the standard vectors e_1 .. e_s and
   the rest of D to zero, and X = P @ (S @ B), as S @ B is the rows of
   rref(B) at F. X = 0 with no elimination when s = 0.

Y and S are zero on a complement: the standard vectors e_j that a
greedy left-to-right scan of [basis | identity] would append, e_j
exactly when row j is not a pivot row of the basis read bottom-up,
that is, not a pivot column of the basis's transpose with its columns
reversed. The scan depends only on the span of the basis, and
Rg(D) = Rg(B) = Rg([W | completion]). The canonical solution of that
reversed transpose against the transposed targets sets exactly those
free variables to zero, so its transpose, columns reversed back, is
the map: targets @ basis[R, :]^-1 on the pivot rows R and zero
elsewhere. One solve against D, whose entries are B's, gives S for
both X and the trace; no basis is ever completed or inverted.
The output is a pure function of the input triple. Every constructed
pair is re-verified before being returned. A strict triple has no pair,
so ``construct_certificate`` refuses its analysis, whose ``witness``
refutes tightness instead.
"""

import itertools
from typing import Iterator, NamedTuple

from .analysis import Analysis, _check_triple
from .errors import (
    BaseInvalid,
    DimensionMismatch,
    FieldMismatch,
    FrobrankError,
    InternalDisagreement,
)
from .fields import Scalar, _is_int
from .linalg import echelon, solve_right
from .matrix import Matrix

FAMILY_BUDGET = 10_000


class ConstructionTrace(NamedTuple):
    """Every intermediate of the construction, for audit and tests.

    ``extended_basis`` holds the basis of Rg(B): its first
    ``intersection_dim`` columns span Rg(B) ∩ Ker(A) and the rest are
    the completion. ``bc_preimages`` solves BC @ u = w column by column
    against those first columns, and ``image_basis`` holds the images of
    the completion under A, a basis of Rg(AB). ``preimage_map`` sends
    the first columns to their preimages and the completion to zero, and
    X is it composed with B; its only nonzero columns are the pivot rows
    of ``column_basis`` read bottom-up, so it also sends every other
    standard vector to zero.

    The field order is the order of the report's text layout.
    """

    intersection_dim: int
    rank: int
    column_basis: Matrix
    kernel_coords: Matrix
    extended_basis: Matrix
    bc_preimages: Matrix
    preimage_map: Matrix
    image_basis: Matrix


class EqualityCertificate(NamedTuple):
    """A verified pair with B = BC @ X + Y @ A @ B exactly, and the
    trace of how ``construct_certificate`` built it, or None when the
    trace was not asked for."""

    X: Matrix
    Y: Matrix
    trace: ConstructionTrace | None


def _check_pair(a: Matrix, b: Matrix, c: Matrix, x: Matrix, y: Matrix) -> None:
    _check_triple(a, b, c)
    if not (a.field == x.field == y.field):
        raise FieldMismatch("X and Y must share the field of A, B, C")
    if x.shape != (c.cols, b.cols):
        raise DimensionMismatch(
            f"X must be {c.cols}x{b.cols}, got {x.rows}x{x.cols}"
        )
    if y.shape != (b.rows, a.rows):
        raise DimensionMismatch(
            f"Y must be {b.rows}x{a.rows}, got {y.rows}x{y.cols}"
        )


def _solves(b: Matrix, bc: Matrix, ab: Matrix, x: Matrix, y: Matrix) -> bool:
    # The equation, given the products BC and AB, as one product:
    # [BC | Y] @ [X over AB] == B.
    stacked = Matrix._canonical(x.field, x.rows + ab.rows, x.cols, x.entries + ab.entries)
    return bc.hstack(y) @ stacked == b


def verify_certificate(a: Matrix, b: Matrix, c: Matrix, x: Matrix, y: Matrix) -> bool:
    """True exactly when B == BC@X + Y@A@B."""
    _check_pair(a, b, c, x, y)
    return _solves(b, b @ c, a @ b, x, y)


def _map_on_basis(basis: Matrix, targets: Matrix) -> Matrix:
    # M with M @ basis == targets and zero on the greedy complement (see
    # the module docstring): the canonical solution against the
    # transpose with its columns reversed is M's transpose with its rows
    # reversed, and it is zero off the pivot rows of basis read bottom-up.
    reverse = range(basis.rows - 1, -1, -1)
    coeffs = solve_right(basis.transpose().take_cols(reverse), targets.transpose())
    if coeffs is None:
        raise InternalDisagreement("basis does not have full column rank")
    return coeffs.transpose().take_cols(reverse)


def construct_certificate(analysis: Analysis, include_trace: bool = True) -> EqualityCertificate:
    """Build a verified solution pair from the analysis of a tight
    triple, with its trace when ``include_trace`` asks for it. A strict
    analysis raises FrobrankError: no pair exists, and its ``witness``
    shows why.

    Deterministic: chooses pivot columns, canonical kernels, greedy
    basis extensions, pivot rows, and zero free variables everywhere, so
    identical triples always yield the identical certificate.
    """
    if not analysis.criteria.gap_zero:
        raise FrobrankError("a strict triple has no certificate; its analysis holds a witness")

    b = analysis.b
    field = b.field
    s = analysis.w_b.cols
    r = analysis.profile.rank_b

    # D is B at its pivots; the completion is B at AB's pivots, its image AB at them.
    column_basis = b.take_cols(analysis.b_pivots)
    completion = b.take_cols(analysis.ab_pivots)
    image_basis = analysis.ab.take_cols(analysis.ab_pivots)

    # Y maps the images back to their completion vectors and the greedy
    # complement of Rg(AB) to zero.
    y = _map_on_basis(image_basis, completion)

    # The intersection basis is W_BC @ Z, and W_BC = BC @ bc_coords.
    preimages = analysis.bc_coords @ analysis.factor
    if s:
        # The selector sends the columns of D at the positions F of B's
        # pivots that are not pivots of AB to e_1 .. e_s, in order, and
        # the rest of D to zero; the map behind X is P @ selector.
        ab_pivots = set(analysis.ab_pivots)
        free = [i for i, col in enumerate(analysis.b_pivots) if col not in ab_pivots]
        units = Matrix.identity(field, r).take_rows(free)
        selector = _map_on_basis(column_basis, units)
    else:
        selector = Matrix.zeros(field, 0, b.rows)
    x = preimages @ (selector @ b)

    if not _solves(b, analysis.bc, analysis.ab, x, y):
        raise InternalDisagreement("constructed pair failed verification")
    if not include_trace:
        return EqualityCertificate(X=x, Y=y, trace=None)
    trace = ConstructionTrace(
        intersection_dim=s,
        rank=r,
        column_basis=column_basis,
        kernel_coords=analysis.kernel_coords,
        extended_basis=analysis.w_b.hstack(completion),
        bc_preimages=preimages,
        preimage_map=preimages @ selector,
        image_basis=image_basis,
    )
    return EqualityCertificate(X=x, Y=y, trace=trace)


def _add_to_row(base: Matrix, slot: int, vector: tuple, scale: Scalar) -> Matrix:
    field = base.field
    data = list(base.entries)
    data[slot] = [field.canon(x + scale * v) for x, v in zip(data[slot], vector)]
    return Matrix._canonical(field, base.rows, base.cols, data)


def solution_family(
    a: Matrix,
    b: Matrix,
    c: Matrix,
    x: Matrix,
    y: Matrix,
    count: int,
) -> list[tuple[Matrix, Matrix]]:
    """Up to ``count`` further distinct solution pairs built from the
    base pair ``(x, y)``, which must solve the equation.

    Adding a kernel vector of BC to a column of X, or a left kernel
    vector of AB to a row of Y, leaves the residual of the equation
    untouched, so each such nudge is again a solution. The nudges are
    every X column slot paired with every kernel vector, then every Y
    row slot paired with every left kernel vector; there are none when
    both kernels are trivial or their slots do not exist. Pairs are
    enumerated deterministically: for each scalar (1, 2, 3, ... over the
    rationals, 1 .. p-1 over GF(p)), each nudge in turn. The kernel
    vectors are independent and the scalars distinct and nonzero, so no
    pair repeats and none is the base pair. Enumeration stops after
    ``count`` pairs, after ``FAMILY_BUDGET`` pairs, or when a finite
    scalar supply is exhausted, whichever comes first. A ``count`` that
    is not an int, or is negative, raises FrobrankError.
    """
    if not _is_int(count):
        raise FrobrankError(f"pair count must be an integer, got {count!r}")
    if count < 0:
        raise FrobrankError(f"pair count must be non-negative, got {count}")
    _check_pair(a, b, c, x, y)
    bc, ab = b @ c, a @ b
    if not _solves(b, bc, ab, x, y):
        raise BaseInvalid("base pair does not satisfy the equation")
    ba = ab.transpose()
    right_kernel = echelon(bc).kernel(bc.cols).transpose().entries
    left_kernel = echelon(ba).kernel(ba.cols).transpose().entries
    nudges = [(True, slot, v) for slot in range(x.cols) for v in right_kernel]
    nudges += [(False, slot, v) for slot in range(y.rows) for v in left_kernel]
    if not nudges:
        return []

    def pairs() -> Iterator[tuple[Matrix, Matrix]]:
        p = x.field.modulus
        for scale in itertools.count(1) if p is None else range(1, p):
            for on_x, slot, vector in nudges:
                if on_x:
                    yield _add_to_row(x.transpose(), slot, vector, scale).transpose(), y
                else:
                    yield x, _add_to_row(y, slot, vector, scale)

    return list(itertools.islice(pairs(), min(count, FAMILY_BUDGET)))
