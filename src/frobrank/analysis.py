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

``analyze`` forms AB and BC once and runs eight ``linalg.echelon``
passes, each over only the rows and columns that carry its rank, and
reads every answer off their records. B's pass gives its pivot columns D
and its pivot rows R_B. A column of B that is not a pivot is a
combination of the columns before it, and so is its image under A, so
the pass over A @ D, AB at D, gives AB's pivots, the kernel K with
Rg(B) ∩ Ker(A) = D K, and the pivot rows R_AB of A @ D. Every other
matrix the analysis eliminates has its columns in Rg(B) or in Rg(AB),
where keeping only the rows R_B, or R_AB, is injective (see linalg).
Each quotient space of test 2 is one pass: [BC | D] on R_B gives BC's
pivots and the columns of B that extend Rg(BC) to Rg(B), and ABC at BC's
pivot columns beside the images of those columns, on R_AB, gives ABC's
pivots, BC's kernel and the rank of the induced map. The tests are
evaluated independently, plus the gap itself, and cross-checked; any
disagreement, like a basis extension that misses its rank, is an
implementation bug and raises InternalDisagreement. Tests 3 and 4 are
one span test, run both ways on R_B: for N of full column rank, solve
N @ Z = M on N's pivot rows, a square nonsingular system, and one
product finds the first column of M that Z misses, the first outside
the span of N. Test 3 takes N = W_B and M = W_BC; test 4 takes
N = W_BC and M = W_B, whose first miss is the witness of a strict
triple, and on a tight one its Z is the factor. ``Analysis`` holds
exactly one of the two. Only those two solves and the kernels that are
not empty run a back phase.
"""

from typing import NamedTuple

from .errors import DimensionMismatch, FieldMismatch, InternalDisagreement
from .linalg import echelon, solve_right
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


class CriteriaReport(NamedTuple):
    """Verdicts of the four independent tightness tests, which are
    equivalent by theory and must agree."""

    gap_zero: bool
    quotient_block_invertible: bool
    kernel_intersections_equal: bool
    intersection_factor_exists: bool


class Analysis(NamedTuple):
    """Everything one pass derives from a triple.

    ``ab`` and ``bc`` are the products AB and BC; ``b_pivots`` and
    ``ab_pivots`` the pivot columns of B and AB. With D = ``b.take_cols(b_pivots)``,
    ``kernel_coords`` holds the kernel basis K of A @ D, AB at D, so
    ``w_b = D @ K`` is a basis of Rg(B) ∩ Ker(A); ``w_bc`` is built the
    same way from BC, and ``bc_coords`` places its kernel coordinates at
    the pivot columns of BC: ``w_bc = bc @ bc_coords``. ``quotient_rank``
    is the rank of [x] -> [Ax] from Rg(B)/Rg(BC) to Rg(AB)/Rg(ABC).
    Exactly one of the last two is None: ``factor`` is test 4's Z,
    ``w_b = w_bc @ factor``, on a tight triple, and ``witness`` the first
    column of ``w_b`` outside Rg(BC) ∩ Ker(A) on a strict one, a vector
    in Rg(B) ∩ Ker(A) that refutes tightness.
    """

    b: Matrix
    ab: Matrix
    bc: Matrix
    profile: RankProfile
    b_pivots: tuple[int, ...]
    ab_pivots: tuple[int, ...]
    kernel_coords: Matrix
    w_b: Matrix
    w_bc: Matrix
    bc_coords: Matrix
    quotient_rank: int
    criteria: CriteriaReport
    factor: Matrix | None
    witness: Matrix | None


def _check_triple(a: Matrix, b: Matrix, c: Matrix) -> None:
    if not (a.field == b.field == c.field):
        raise FieldMismatch("A, B, C must share a field")
    if a.cols != b.rows:
        raise DimensionMismatch(f"A has {a.cols} columns but B has {b.rows} rows")
    if b.cols != c.rows:
        raise DimensionMismatch(f"B has {b.cols} columns but C has {c.rows} rows")


def _first_outside(n: Matrix, m: Matrix) -> tuple[int | None, Matrix]:
    """For n of full column rank, the first column of m outside the span
    of n, or None, and the Z with n @ Z = m on the pivot rows of n."""
    # n is nonsingular on its pivot rows r, so the one Z there solves
    # every column of m that has a solution; the product shows which do.
    r = echelon(n).pivot_rows
    z = solve_right(n.take_rows(r), m.take_rows(r))
    if z is None:
        raise InternalDisagreement("a span test's basis is singular on its pivot rows")
    misses = zip((n @ z).transpose().entries, m.transpose().entries)
    return next((j for j, (got, want) in enumerate(misses) if got != want), None), z


def analyze(a: Matrix, b: Matrix, c: Matrix) -> Analysis:
    """Analyze a triple in one pass: profile, intersections, rank of the
    induced map, the four cross-checked tightness tests and the witness
    of a strict inequality or the factor of test 4 of a tight one."""
    _check_triple(a, b, c)
    ab, bc = a @ b, b @ c
    p_b, rows_b, *_ = echelon(b)

    # Rg(B) ∩ Ker(A) is D @ K with D the pivot columns of B and K the
    # kernel of A @ D, which is AB at those columns. A column of B that is
    # not a pivot is a combination of the columns before it, and so is its
    # image under A, so the pivots of AB are those of A @ D taken in D.
    d = b.take_cols(p_b)
    ad = ab.take_cols(p_b)
    ad_pass = echelon(ad)
    q_ab, rows_ab, kernel_coords = ad_pass.pivot_cols, ad_pass.pivot_rows, ad_pass.kernel(ad.cols)
    p_ab = tuple(p_b[i] for i in q_ab)
    w_b = d @ kernel_coords

    # Every column met from here on lies in Rg(B) or in Rg(AB), and the
    # pivot rows of B and of A @ D are injective there (see linalg), so
    # each pass runs on those rows only. Each quotient is one pass over
    # [subspace | space], whose pivots before the subspace's columns are
    # its own: [BC | D] on R_B, whose pivots past BC extend Rg(BC) to
    # Rg(B), and [ABC at BC's pivots | A @ D at those] on R_AB, whose
    # pivots past rank BC count the images independent modulo Rg(ABC).
    domain = echelon(bc.take_rows(rows_b).hstack(d.take_rows(rows_b))).pivot_cols
    r_bc = sum(j < bc.cols for j in domain)
    p_bc, added = domain[:r_bc], [j - bc.cols for j in domain[r_bc:]]
    bc_basis = bc.take_cols(p_bc)
    abc_rows = a.take_rows(rows_ab) @ bc_basis
    images = echelon(abc_rows.hstack(ad.take_rows(rows_ab).take_cols(added)))
    r_abc = sum(j < r_bc for j in images.pivot_cols)
    bc_kernel = images.kernel(r_bc)
    w_bc = bc_basis @ bc_kernel
    bc_coords = Matrix._placed(a.field, bc.cols, bc_kernel.cols, p_bc, bc_kernel.entries)
    profile = RankProfile(len(p_b), len(p_ab), r_bc, r_abc)
    if len(domain) != profile.rank_b:
        raise InternalDisagreement("basis extensions do not match the rank profile")
    gap_zero = profile.gap == 0
    quotient_rank = len(images.pivot_cols) - r_abc
    map_invertible = profile.rank_b - r_bc == profile.rank_ab - r_abc == quotient_rank

    # Rg(BC) ∩ Ker(A) sits inside Rg(B) ∩ Ker(A); verify rather than assume.
    w_b_rows, w_bc_rows = w_b.take_rows(rows_b), w_bc.take_rows(rows_b)
    contained = _first_outside(w_b_rows, w_bc_rows)[0] is None
    intersections_equal = contained and w_b.cols == w_bc.cols
    outside, factor = _first_outside(w_bc_rows, w_b_rows)
    factor_exists = outside is None

    answers = {gap_zero, map_invertible, intersections_equal, factor_exists}
    if len(answers) != 1:
        raise InternalDisagreement(
            "tightness tests disagree: "
            f"gap_zero={gap_zero}, quotient_block_invertible={map_invertible}, "
            f"kernel_intersections_equal={intersections_equal}, "
            f"intersection_factor_exists={factor_exists}"
        )

    criteria = CriteriaReport(gap_zero, map_invertible, intersections_equal, factor_exists)
    return Analysis(
        b, ab, bc, profile, p_b, p_ab, kernel_coords, w_b, w_bc, bc_coords, quotient_rank,
        criteria, factor if factor_exists else None,
        None if factor_exists else w_b.take_cols([outside]),
    )
