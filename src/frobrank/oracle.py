"""Ground-truth enumeration and reproducible instance generation.

``brute_force_solvable`` decides solvability of B = BCX + YAB over a
prime field by scanning every candidate pair, giving an oracle that is
independent of all rank machinery. ``random_instance(field, dims, seed,
numerator_bound, denominator_bound)`` produces seeded triples from a
fully specified generator so corpora are reproducible anywhere.

The generator is a 64-bit linear congruential generator with Knuth's
MMIX parameters:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2**64

Each draw advances the state once and takes the top 31 bits, reduced
modulo the requested range. Entries are drawn row-major for A, then B,
then C; rational entries draw the numerator first, then the denominator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .analysis import _check_triple
from .errors import BudgetExceeded, DimensionMismatch, FrobrankError, NotFiniteField
from .fields import Field, _is_int
from .matrix import MAX_DIM, Matrix

DEFAULT_BUDGET = 1 << 20

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
# Precomputing one side of the scan is capped so memory stays bounded
# even when the caller raises the budget.
_PRECOMPUTE_LIMIT = 1 << 16


class Lcg:
    """The documented 64-bit LCG; deterministic for a given seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_below(self, n: int) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _MASK64
        return (self.state >> 33) % n


def random_instance(
    field: Field,
    dims: tuple[int, int, int, int],
    seed: int,
    numerator_bound: int = 3,
    denominator_bound: int = 2,
) -> tuple[Matrix, Matrix, Matrix]:
    """The triple determined by the arguments; same arguments, same triple.

    ``dims = (m, n, p, q)`` gives A its m x n shape, B n x p, C p x q,
    each at most MAX_DIM; ``seed`` is a 64-bit unsigned integer. Over
    the rationals entries are a/b with a in [-numerator_bound,
    numerator_bound] and b in [1, denominator_bound]; over GF(p) they
    are uniform residues and the bounds are checked but not used.
    """
    if len(dims) != 4 or not all(map(_is_int, dims)) or any(d < 1 for d in dims):
        raise DimensionMismatch(f"dims must be four positive counts, got {dims!r}")
    if any(d > MAX_DIM for d in dims):
        raise DimensionMismatch(f"dims {dims} exceed the cap of {MAX_DIM} per dimension")
    if not _is_int(seed) or not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if not (_is_int(numerator_bound) and _is_int(denominator_bound)
            and numerator_bound >= 0 and denominator_bound >= 1):
        raise ValueError("entry pool bounds out of range")
    lcg = Lcg(seed)

    def draw():
        if field.modulus is not None:
            return lcg.next_below(field.modulus)
        num = lcg.next_below(2 * numerator_bound + 1) - numerator_bound
        den = 1 + lcg.next_below(denominator_bound)
        return Fraction(num, den)

    def build(rows: int, cols: int) -> Matrix:
        return Matrix(field, [[draw() for _ in range(cols)] for _ in range(rows)])

    m, n, p, q = dims
    return build(m, n), build(n, p), build(p, q)


def _flat(m: Matrix) -> tuple:
    return tuple(x for row in m.entries for x in row)


def _mul_flat(a: tuple, b: tuple, n: int, k: int, m: int, p: int) -> tuple:
    # (n x k) @ (k x m) over GF(p), flat row-major operands.
    out = []
    for i in range(n):
        base = i * k
        for j in range(m):
            acc = 0
            for t in range(k):
                acc += a[base + t] * b[t * m + j]
            out.append(acc % p)
    return tuple(out)


def brute_force_solvable(
    a: Matrix, b: Matrix, c: Matrix, budget: int = DEFAULT_BUDGET
) -> bool:
    """Decide solvability of B = BCX + YAB by full enumeration.

    Candidate X matrices over GF(p) are ordered lexicographically by
    their row-major entry tuples, Y likewise, and pairs are scanned
    X-major with an early exit on the first solution. The total pair
    count p**(X cells + Y cells) must stay within ``budget``, an int.
    """
    if not _is_int(budget):
        raise FrobrankError(f"budget must be an integer, got {budget!r}")
    _check_triple(a, b, c)
    if not a.field.is_prime_field:
        raise NotFiniteField("exhaustive search needs a prime field")
    p = a.field.modulus

    m_dim, n_dim, p_dim, q_dim = a.rows, b.rows, b.cols, c.cols
    x_cells = q_dim * p_dim
    y_cells = n_dim * m_dim
    # p >= 2, so more cells than the budget has bits is over it, and the
    # power is formed only when it is small enough to compare.
    cells = x_cells + y_cells
    if cells > budget.bit_length() or p**cells > budget:
        raise BudgetExceeded(f"{p}**{cells} candidate pairs exceed budget {budget}")

    b_flat = _flat(b)
    ab_flat = _flat(a @ b)
    bc_flat = _flat(b @ c)

    if p**y_cells <= _PRECOMPUTE_LIMIT:
        y_products = {
            _mul_flat(y, ab_flat, n_dim, m_dim, p_dim, p)
            for y in itertools.product(range(p), repeat=y_cells)
        }
    else:
        y_products = None

    for x in itertools.product(range(p), repeat=x_cells):
        bcx = _mul_flat(bc_flat, x, n_dim, q_dim, p_dim, p)
        target = tuple((bv - v) % p for bv, v in zip(b_flat, bcx))
        if y_products is not None:
            if target in y_products:
                return True
        else:
            for y in itertools.product(range(p), repeat=y_cells):
                if _mul_flat(y, ab_flat, n_dim, m_dim, p_dim, p) == target:
                    return True
    return False
