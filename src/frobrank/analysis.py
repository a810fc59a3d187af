"""Rank analysis of matrix triples and tightness tests.

For conformable A, B, C the ranks always satisfy

    rank(ABC) + rank(B) >= rank(AB) + rank(BC),

with a non-negative integer gap between the sides. The inequality is
tight exactly when any of three equivalent conditions holds:

* the induced map [x] -> [Ax] between the quotient spaces
  Rg(B)/Rg(BC) and Rg(AB)/Rg(ABC) is an isomorphism, i.e. both spaces
  have the dimension of its image;
* the subspaces Rg(B) ∩ Ker(A) and Rg(BC) ∩ Ker(A) coincide (the
  second is always contained in the first);
* a basis of Rg(B) ∩ Ker(A) factors through a basis of
  Rg(BC) ∩ Ker(A).

``analyze`` forms AB, BC and ABC once, finds the pivot columns of B,
AB, BC and ABC by forward elimination, and derives the rank profile,
the rank of the induced map, both intersections and all four tests
from them. Only the two kernels need fully reduced eliminations, and
only when the rank profile gives them a nonzero dimension; every
rank, the extension of a basis of Rg(BC) to one of Rg(B), the rank of
its images over Rg(ABC) and every span test is forward-only. Test 4 is
such a span test: the factor itself is read only by the certificate,
which solves for it. The tests are evaluated independently, plus the
gap itself, and cross-checked; any disagreement, like a basis
extension that misses its rank, is an implementation bug and raises
InternalDisagreement. When the inequality is strict, the span test of
test 4 also yields the witness: the first column of the basis of
Rg(B) ∩ Ker(A) outside the span of Rg(BC) ∩ Ker(A).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionMismatch, FieldMismatch, InternalDisagreement
from .linalg import kernel_basis, pivot_cols
from .matrix import Matrix


class RankProfile(NamedTuple):
    """The four ranks governing the inequality, plus derived quantities."""

    rank_b: int
    rank_ab: int
    rank_bc: int
    rank_abc: int

    @property
    def lhs(self) -> int:
        """rank(ABC) + rank(B), the never-smaller side."""
        return self.rank_abc + self.rank_b

    @property
    def rhs(self) -> int:
        """rank(AB) + rank(BC)."""
        return self.rank_ab + self.rank_bc

    @property
    def gap(self) -> int:
        return self.lhs - self.rhs


class InequalityWitness(NamedTuple):
    """A column vector in Rg(B) ∩ Ker(A) that is provably outside
    Rg(BC) ∩ Ker(A), refuting tightness constructively."""

    vector: Matrix


class CriteriaReport(NamedTuple):
    """Outcome of the four independent tightness tests.

    The booleans are equivalent by theory and must agree; ``witness``
    is populated exactly when the inequality is strict.
    """

    gap_zero: bool
    quotient_block_invertible: bool
    kernel_intersections_equal: bool
    intersection_factor_exists: bool
    witness: InequalityWitness | None


class Analysis(NamedTuple):
    """Everything one pass derives from a triple.

    ``ab`` and ``bc`` are the products AB and BC. ``column_basis``
    holds D, the pivot columns of B, and ``kernel_coords`` the kernel
    basis K of A @ D, so ``w_b = D @ K`` is a basis of Rg(B) ∩ Ker(A);
    ``w_bc`` is built the same way from BC, and ``bc_coords`` places its
    kernel coordinates at the pivot columns of BC: ``w_bc = bc @ bc_coords``.
    ``b_pivots`` and ``ab_pivots`` are the pivot columns of B and AB.
    ``quotient_rank`` is the rank of [x] -> [Ax] from Rg(B)/Rg(BC) to
    Rg(AB)/Rg(ABC).
    """

    a: Matrix
    b: Matrix
    c: Matrix
    ab: Matrix
    bc: Matrix
    profile: RankProfile
    b_pivots: tuple[int, ...]
    ab_pivots: tuple[int, ...]
    column_basis: Matrix
    kernel_coords: Matrix
    w_b: Matrix
    w_bc: Matrix
    bc_coords: Matrix
    quotient_rank: int
    criteria: CriteriaReport


def _check_triple(a: Matrix, b: Matrix, c: Matrix) -> None:
    if not (a.field == b.field == c.field):
        raise FieldMismatch("A, B, C must share a field")
    if a.cols != b.rows:
        raise DimensionMismatch(f"A has {a.cols} columns but B has {b.rows} rows")
    if b.cols != c.rows:
        raise DimensionMismatch(f"B has {b.cols} columns but C has {c.rows} rows")


def _first_outside(n: Matrix, m: Matrix) -> int | None:
    # The first pivot of [n | m] past n is the first column of m outside
    # the span of n: every column of m before it lies in that span.
    pivots = pivot_cols(n.hstack(m))
    return next((c - n.cols for c in pivots if c >= n.cols), None)


def _kernel(m: Matrix, dim: int) -> Matrix:
    # The rank profile gives the kernel's dimension; an empty kernel
    # needs no elimination.
    return kernel_basis(m) if dim else Matrix.zeros(m.field, m.cols, 0)


def analyze(a: Matrix, b: Matrix, c: Matrix) -> Analysis:
    """Analyze a triple in one pass: profile, intersections, rank of the
    induced map, the four cross-checked tightness tests and, when the
    inequality is strict, the witness."""
    _check_triple(a, b, c)
    ab = a @ b
    bc = b @ c
    abc = ab @ c
    p_b, p_ab, p_bc, p_abc = map(pivot_cols, (b, ab, bc, abc))
    profile = RankProfile(len(p_b), len(p_ab), len(p_bc), len(p_abc))
    gap_zero = profile.gap == 0

    # Rg(B) ∩ Ker(A) is D @ K with D the pivot columns of B and K the
    # kernel of A @ D, which is AB at those columns, of dimension
    # rank B - rank AB; likewise for BC.
    column_basis = b.take_cols(p_b)
    kernel_coords = _kernel(ab.take_cols(p_b), profile.rank_b - profile.rank_ab)
    w_b = column_basis @ kernel_coords
    bc_basis = bc.take_cols(p_bc)
    bc_kernel = _kernel(abc.take_cols(p_bc), profile.rank_bc - profile.rank_abc)
    w_bc = bc_basis @ bc_kernel
    bc_coords = Matrix._placed(a.field, bc.cols, bc_kernel.cols, p_bc, bc_kernel.entries)

    # The pivots of [BC at p_bc | B] past rank BC are the columns of B
    # that extend a basis of Rg(BC) to one of Rg(B); their images are AB
    # at the same columns. The pivots of [ABC at p_abc | those images]
    # past rank ABC count the images independent modulo Rg(ABC): the
    # rank of the induced map.
    r_bc, r_abc = profile.rank_bc, profile.rank_abc
    domain = pivot_cols(bc_basis.hstack(b))
    added = [j - r_bc for j in domain[r_bc:]]
    images = pivot_cols(abc.take_cols(p_abc).hstack(ab.take_cols(added)))
    if (domain[:r_bc] != tuple(range(r_bc)) or len(domain) != profile.rank_b
            or images[:r_abc] != tuple(range(r_abc))):
        raise InternalDisagreement("basis extensions do not match the rank profile")
    quotient_rank = len(images) - r_abc
    map_invertible = profile.rank_b - r_bc == profile.rank_ab - r_abc == quotient_rank

    # Rg(BC) ∩ Ker(A) sits inside Rg(B) ∩ Ker(A); verify rather than assume.
    contained = _first_outside(w_b, w_bc) is None
    intersections_equal = contained and w_b.cols == w_bc.cols

    # W_B = W_BC @ Z has a solution Z exactly when no column of W_B is
    # outside the span of W_BC; the first one outside is the witness.
    outside = _first_outside(w_bc, w_b)
    factor_exists = outside is None

    answers = {gap_zero, map_invertible, intersections_equal, factor_exists}
    if len(answers) != 1:
        raise InternalDisagreement(
            "tightness tests disagree: "
            f"gap_zero={gap_zero}, quotient_block_invertible={map_invertible}, "
            f"kernel_intersections_equal={intersections_equal}, "
            f"intersection_factor_exists={factor_exists}"
        )

    criteria = CriteriaReport(
        gap_zero=gap_zero,
        quotient_block_invertible=map_invertible,
        kernel_intersections_equal=intersections_equal,
        intersection_factor_exists=factor_exists,
        witness=None if factor_exists else InequalityWitness(w_b.col(outside)),
    )
    return Analysis(
        a, b, c, ab, bc, profile, p_b, p_ab, column_basis, kernel_coords, w_b, w_bc, bc_coords,
        quotient_rank, criteria,
    )
