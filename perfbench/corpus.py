"""Seeded, rank-controlled instance corpora for the benchmark workloads.

Standard library only, and independent of ``frobrank``: the inputs must
stay byte-identical while the program under test changes.

Each factor A, B, C is the product of two thin random matrices whose
inner dimension is the factor's intended rank. For generic draws the
ranks of the products are then

    rank(AB) = min(a, b), rank(BC) = min(b, c), rank(ABC) = min(a, b, c),

so the inequality is strict exactly when b > a and b > c. Draws that
miss these ranks (frequent over GF(2)) are rejected and redrawn from
the same stream, so every instance has exactly the rank profile its
class promises. Over Q the ranks are computed modulo a 61-bit prime;
that gives a lower bound on the rational rank, and the thin-product
construction gives the matching upper bound.

Random numbers come from a copy of the documented 64-bit MMIX linear
congruential generator: state' = (6364136223846793005 * state +
1442695040888963407) mod 2**64, each draw taking the top 31 bits
reduced modulo the requested range.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1

# Rational ranks are computed modulo this prime (2**61 - 1).
_RANK_PRIME = (1 << 61) - 1
# Rational factor entries are num/den with |num| <= 3 and 1 <= den <= 2.
_NUM_BOUND = 3
_DEN_BOUND = 2

CLASSES = ("full", "deficient", "strict")


class Lcg:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def below(self, n: int) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _MASK64
        return (self.state >> 33) % n


@dataclass(frozen=True)
class Instance:
    """One generated triple and what it was built to be.

    ``modulus`` is None over Q. ``ranks`` holds the intended and
    checked (rank A, rank B, rank C); ``profile`` the resulting
    (rank B, rank AB, rank BC, rank ABC).
    """

    name: str
    modulus: int | None
    dims: tuple[int, int, int, int]
    klass: str
    ranks: tuple[int, int, int]
    profile: tuple[int, int, int, int]
    a: list
    b: list
    c: list

    @property
    def field_tag(self) -> str:
        return "Q" if self.modulus is None else f"GF({self.modulus})"

    @property
    def tight(self) -> bool:
        rb, rab, rbc, rabc = self.profile
        return rabc + rb == rab + rbc

    def document(self) -> bytes:
        """The instance as a frobrank JSON instance document."""

        def obj(m):
            cols = len(m[0]) if m else 0
            return {"rows": len(m), "cols": cols, "data": [[str(x) for x in row] for row in m]}

        doc = {"field": self.field_tag, "A": obj(self.a), "B": obj(self.b), "C": obj(self.c)}
        return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def _draw_entry(lcg: Lcg, modulus: int | None) -> int:
    """A random entry; over Q it is scaled by the denominator lcm so it
    is an integer (the caller divides the scale back out)."""
    if modulus is not None:
        return lcg.below(modulus)
    num = lcg.below(2 * _NUM_BOUND + 1) - _NUM_BOUND
    den = 1 + lcg.below(_DEN_BOUND)
    return num * (_DEN_BOUND // den)


def _permutation(lcg: Lcg, n: int) -> list[int]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = lcg.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _mul(a: list, b: list, modulus: int | None) -> list:
    if modulus == 2:
        # Rows and columns packed into ints; an entry is a parity.
        rows = [int("".join(str(x & 1) for x in row), 2) for row in a]
        cols = [int("".join(str(x & 1) for x in col), 2) for col in zip(*b)]
        return [[(r & c).bit_count() & 1 for c in cols] for r in rows]
    cols = list(zip(*b)) if b else []
    if modulus is None:
        return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) % modulus for col in cols] for row in a]


def rank_mod(m: list, p: int) -> int:
    """Rank of an integer matrix modulo the prime p."""
    if p == 2:
        return _rank_gf2(m)
    work = [[x % p for x in row] for row in m]
    rows = len(work)
    cols = len(work[0]) if work else 0
    rank = 0
    for col in range(cols):
        hit = next((r for r in range(rank, rows) if work[r][col]), None)
        if hit is None:
            continue
        work[rank], work[hit] = work[hit], work[rank]
        inv = pow(work[rank][col], -1, p)
        lead = [x * inv % p for x in work[rank]]
        for r in range(rank + 1, rows):
            f = work[r][col]
            if f:
                work[r] = [(x - f * y) % p for x, y in zip(work[r], lead)]
        rank += 1
        if rank == rows:
            break
    return rank


def _rank_gf2(m: list) -> int:
    # Rows packed into ints and reduced by XOR against a pivot table.
    pivots: dict[int, int] = {}
    for row in m:
        x = int("".join("1" if v % 2 else "0" for v in row) or "0", 2)
        while x:
            top = x.bit_length()
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return len(pivots)


def _factor(lcg: Lcg, modulus: int | None, rows: int, cols: int, r: int) -> tuple[list, list]:
    """A rows x cols factor of rank exactly r, as (matrix, its image mod
    the rank prime). Over Q the matrix holds Fractions.

    The factor is L U with its rows and columns randomly permuted, where
    L is a rows x r unit lower trapezoid and U an r x cols unit upper
    trapezoid, with random entries off the diagonal. Both have rank r,
    so the factor has rank r over every field without a redraw, and the
    cost of a draw does not depend on the seed.
    """
    one = 1 if modulus is not None else _DEN_BOUND
    lower = [[one if i == j else _draw_entry(lcg, modulus) if i > j else 0 for j in range(r)]
             for i in range(rows)]
    upper = [[one if i == j else _draw_entry(lcg, modulus) if j > i else 0 for j in range(cols)]
             for i in range(r)]
    row_perm = _permutation(lcg, rows)
    col_perm = _permutation(lcg, cols)
    lower = [lower[i] for i in row_perm]
    upper = [[row[j] for j in col_perm] for row in upper]
    prod = _mul(lower, upper, modulus)
    p = modulus or _RANK_PRIME
    image = prod if modulus is not None else [[x % p for x in row] for row in prod]
    if modulus is None:
        scale = _DEN_BOUND * _DEN_BOUND
        prod = [[Fraction(x, scale) for x in row] for row in prod]
    return prod, image


def intended_ranks(klass: str, n: int, variant: int) -> tuple[int, int, int]:
    """(rank A, rank B, rank C) for a square n x n class member.

    ``variant`` picks between two shapes of each rank-deficient class.
    Deficient tight: rank(B) <= rank(A), or rank(A) < rank(B) <= rank(C),
    where Rg(B) ∩ Ker(A) is nontrivial and the certificate's X part is
    not zero. Strict: rank(B) above both, with rank(C) at n/3 or 2n/3.
    """
    if klass == "full":
        return n, n, n
    if klass == "deficient":
        if variant % 2 == 0:
            return n - n // 4, n // 2, n - n // 3
        return n // 2, n - n // 4, n
    if klass == "strict":
        return n // 2, n - n // 4, n - n // 3 if variant % 2 else n // 3
    raise ValueError(f"unknown class {klass!r}")


def _profile(a_img: list, b_img: list, c_img: list, rb: int, p: int) -> tuple[int, int, int, int]:
    ab = _mul(a_img, b_img, p)
    bc = _mul(b_img, c_img, p)
    return rb, rank_mod(ab, p), rank_mod(bc, p), rank_mod(_mul(ab, c_img, p), p)


def make_instance(name: str, seed: int, modulus: int | None, dims: tuple[int, int, int, int],
                  ranks: tuple[int, int, int], klass: str) -> Instance:
    """The triple with the given dimensions and factor ranks drawn from
    ``seed``. Draws whose products miss the generic ranks are redrawn
    from the same stream, so the instance has exactly the profile its
    ranks promise."""
    m, n, k, q = dims
    ra, rb, rc = ranks
    want = (rb, min(ra, rb), min(rb, rc), min(ra, rb, rc))
    if (want[3] + want[0] == want[1] + want[2]) != (klass != "strict"):
        raise ValueError(f"ranks {ranks} do not make a {klass} triple")
    p = modulus or _RANK_PRIME
    lcg = Lcg(seed)
    while True:
        a, a_img = _factor(lcg, modulus, m, n, ra)
        b, b_img = _factor(lcg, modulus, n, k, rb)
        c, c_img = _factor(lcg, modulus, k, q, rc)
        profile = _profile(a_img, b_img, c_img, rb, p)
        if profile == want:
            return Instance(name, modulus, dims, klass, ranks, profile, a, b, c)


# Fixed shapes per slot; the seed only changes the entries, so the work
# in a pass and in a set-up stays comparable across seeds.
Q_CERTIFY = (
    (None, 12, "full", 0),
    (None, 14, "strict", 1),
    (None, 16, "deficient", 1),
    (None, 18, "full", 0),
    (None, 20, "strict", 0),
    (None, 22, "deficient", 0),
    (None, 28, "strict", 1),
)
GF_CERTIFY = (
    (101, 30, "full", 0),
    (101, 40, "strict", 1),
    (101, 50, "deficient", 1),
    (2, 36, "deficient", 0),
    (2, 48, "strict", 0),
    (2, 60, "full", 0),
)
# (dims, ranks) of the small triples per class. Every deficient triple
# leaves AB a nontrivial left kernel or BC a nontrivial kernel, so
# ``family`` always has pairs to build.
SMALL_SHAPES = {
    "full": tuple(((n, n, n, n), (n, n, n)) for n in range(2, 7)),
    "deficient": (
        ((2, 3, 3, 2), (1, 1, 2)),
        ((3, 3, 4, 4), (2, 3, 3)),
        ((4, 5, 4, 3), (3, 2, 3)),
        ((5, 4, 5, 6), (4, 3, 4)),
        ((6, 5, 6, 5), (4, 5, 5)),
    ),
    "strict": (
        ((2, 3, 3, 2), (1, 2, 1)),
        ((3, 4, 3, 3), (2, 3, 1)),
        ((4, 4, 5, 4), (2, 4, 3)),
        ((5, 5, 5, 5), (3, 4, 2)),
        ((6, 6, 5, 6), (4, 5, 3)),
    ),
}
# The oracle's triples, small enough for its default budget of 2**20
# candidate pairs: p**(X cells + Y cells) is 2**18 over GF(2) and 3**8
# over GF(3).
ORACLE_SHAPES = {
    (2, "full"): ((3, 3, 3, 3), (3, 3, 3)),
    (2, "deficient"): ((3, 3, 3, 3), (2, 1, 2)),
    (2, "strict"): ((3, 3, 3, 3), (1, 2, 1)),
    (3, "full"): ((2, 2, 2, 2), (2, 2, 2)),
    (3, "deficient"): ((2, 2, 2, 2), (1, 1, 2)),
    (3, "strict"): ((2, 2, 2, 2), (1, 2, 1)),
}
CLI_ROTATION = ("check", "certify", "verify", "family", "oracle")
CLI_FIELDS = (None, 2, 3, 5)
CLI_TRIPLES = 100


def _instance_seed(workload: str, seed: int, slot: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{slot}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def cli_slot(slot: int) -> tuple[str, int | None, str, tuple, tuple]:
    """(command, modulus, class, dims, ranks) of a cli_small slot.

    Commands follow a fixed rotation. verify needs a certificate, so its
    triples are tight. family triples are all deficient, so that the
    family is never empty. The oracle runs over GF(2) and GF(3).
    """
    command = CLI_ROTATION[slot % len(CLI_ROTATION)]
    turn = slot // len(CLI_ROTATION)
    if command == "oracle":
        modulus, klass = (2, 3)[turn % 2], CLASSES[turn % 3]
        return (command, modulus, klass, *ORACLE_SHAPES[modulus, klass])
    if command == "family":
        klass = "deficient"
    elif command == "verify":
        klass = ("full", "deficient")[turn % 2]
    else:
        klass = CLASSES[turn % 3]
    shapes = SMALL_SHAPES[klass]
    return (command, CLI_FIELDS[turn % len(CLI_FIELDS)], klass, *shapes[turn % len(shapes)])


def build(workload: str, seed: int) -> list[Instance]:
    """The instances of a workload for ``seed``, in pass order."""
    if workload in ("q_certify", "gf_certify_trace"):
        slots = Q_CERTIFY if workload == "q_certify" else GF_CERTIFY
        out = []
        for i, (modulus, n, klass, variant) in enumerate(slots):
            name = f"{workload[0]}{i:02d}"
            out.append(make_instance(name, _instance_seed(workload, seed, i), modulus, (n,) * 4,
                                     intended_ranks(klass, n, variant), klass))
        return out
    if workload == "cli_small":
        out = []
        for i in range(CLI_TRIPLES):
            _, modulus, klass, dims, ranks = cli_slot(i)
            out.append(make_instance(f"s{i:03d}", _instance_seed(workload, seed, i), modulus,
                                     dims, ranks, klass))
        return out
    raise ValueError(f"unknown workload {workload!r}")
