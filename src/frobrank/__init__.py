"""Exact toolkit for tightness of the Frobenius rank inequality.

Decides whether rank(ABC) + rank(B) = rank(AB) + rank(BC) for a triple
of matrices over the rationals or a prime field; on equality it builds
and verifies pairs (X, Y) with B = BCX + YAB, and on strict inequality
it emits a checkable witness vector.
"""

from .analysis import (
    Analysis,
    CriteriaReport,
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
    Echelon,
    echelon,
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
    "Echelon",
    "EqualityCertificate",
    "Field",
    "GF",
    "Matrix",
    "QQ",
    "RankProfile",
    "analyze",
    "brute_force_solvable",
    "build_report",
    "construct_certificate",
    "echelon",
    "emit_instance",
    "emit_report",
    "errors",
    "parse_certificate",
    "parse_field_tag",
    "parse_instance",
    "random_instance",
    "solution_family",
    "solve_right",
    "verify_certificate",
]
