"""Ground-truth enumeration and reproducible instance generation.

``brute_force_solvable`` decides solvability of B = BCX + YAB over a
prime field by enumerating every candidate X and Y, giving an oracle
that is independent of all rank machinery and of ``Matrix``'s product:
it forms AB and BC itself. ``random_instance(field, dims, seed,
numerator_bound, denominator_bound)`` produces seeded triples from a
fully specified generator so corpora are reproducible anywhere.

The generator is a 64-bit linear congruential generator with Knuth's
MMIX parameters:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2**64

Each draw advances the state once and gives its top 31 bits; a value
below n is max(1, ceil(bitlen(n - 1) / 31)) draws, joined most
significant first, modulo n. Entries are drawn row-major for A, then B,
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
    are residues in [0, p) and the bounds are checked but not used.
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
    state = seed

    def below(n: int) -> int:
        nonlocal state
        value = 0
        for _ in range(max(1, ((n - 1).bit_length() + 30) // 31)):
            state = (_LCG_MULT * state + _LCG_INC) & _MASK64
            value = value << 31 | state >> 33
        return value % n

    def draw():
        if field.modulus is not None:
            return below(field.modulus)
        num = below(2 * numerator_bound + 1) - numerator_bound
        return Fraction(num, 1 + below(denominator_bound))

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

    The equation is solvable exactly when some B - BC @ X equals some
    Y @ AB. The images of the side with fewer candidates over GF(p), Y
    on a tie, are held in a set, and the other side is scanned against
    it, stopping at the first hit. The total pair count
    p**(X cells + Y cells) must stay within ``budget``, an int, so the
    set holds at most sqrt(budget) entries: 1024 at the default budget.
    """
    if not _is_int(budget):
        raise FrobrankError(f"budget must be an integer, got {budget!r}")
    _check_triple(a, b, c)
    p = a.field.modulus
    if p is None:
        raise NotFiniteField("exhaustive search needs a prime field")

    m_dim, n_dim, p_dim, q_dim = a.rows, b.rows, b.cols, c.cols
    x_cells = q_dim * p_dim
    y_cells = n_dim * m_dim
    # p >= 2, so more cells than the budget has bits is over it, and the
    # power is formed only when it is small enough to compare.
    cells = x_cells + y_cells
    if cells > budget.bit_length() or p**cells > budget:
        raise BudgetExceeded(f"{p}**{cells} candidate pairs exceed budget {budget}")

    b_flat = _flat(b)
    ab_flat = _mul_flat(_flat(a), b_flat, m_dim, n_dim, p_dim, p)
    bc_flat = _mul_flat(b_flat, _flat(c), n_dim, p_dim, q_dim, p)

    residuals = (
        tuple((bv - v) % p for bv, v in zip(b_flat, _mul_flat(bc_flat, x, n_dim, q_dim, p_dim, p)))
        for x in itertools.product(range(p), repeat=x_cells)
    )
    images = (
        _mul_flat(y, ab_flat, n_dim, m_dim, p_dim, p)
        for y in itertools.product(range(p), repeat=y_cells)
    )
    fewer, more = (residuals, images) if x_cells < y_cells else (images, residuals)
    held = set(fewer)
    return any(v in held for v in more)
