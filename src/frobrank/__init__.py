"""Exact toolkit for tightness of the Frobenius rank inequality.

Decides whether rank(ABC) + rank(B) = rank(AB) + rank(BC) for a triple
of matrices over the rationals or a prime field; on equality it builds
and verifies pairs (X, Y) with B = BCX + YAB, and on strict inequality
it emits a checkable witness vector.
"""

from .analysis import (
    Analysis,
    CriteriaReport,
    InequalityWitness,
    RankProfile,
    analyze,
)
from .certificate import (
    ConstructionTrace,
    EqualityCertificate,
    construct_certificate,
    solution_family,
    verify_certificate,
)
from .fields import GF, QQ, Field, parse_field_tag
from .linalg import (
    RrefResult,
    kernel_basis,
    pivot_cols,
    rank,
    rref,
    solve_right,
)
from .matrix import Matrix
from .formats import (
    build_report,
    emit_instance,
    emit_report,
    parse_certificate,
    parse_instance,
)
from .oracle import (
    DEFAULT_BUDGET,
    Lcg,
    brute_force_solvable,
    random_instance,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "CriteriaReport",
    "ConstructionTrace",
    "DEFAULT_BUDGET",
    "EqualityCertificate",
    "Field",
    "GF",
    "InequalityWitness",
    "Lcg",
    "Matrix",
    "QQ",
    "RankProfile",
    "RrefResult",
    "analyze",
    "brute_force_solvable",
    "build_report",
    "construct_certificate",
    "emit_instance",
    "emit_report",
    "errors",
    "kernel_basis",
    "parse_certificate",
    "parse_field_tag",
    "parse_instance",
    "pivot_cols",
    "random_instance",
    "rank",
    "rref",
    "solution_family",
    "solve_right",
    "verify_certificate",
]
