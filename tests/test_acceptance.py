"""End-to-end acceptance suite.

Each test covers one contract of the toolkit at its stated tolerance
(always exact: zero tolerance on every value) and prints a PASS line
when it holds. Runtime ceilings are asserted alongside.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from frobrank import (
    GF,
    QQ,
    EqualityCertificate,
    InequalityWitness,
    Matrix,
    brute_force_solvable,
    analyze,
    construct_certificate,
    random_instance,
    rank,
    solution_family,
    verify_certificate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# Seconds a CLI run may take before it counts as a hang and fails its test.
TIMEOUT = 60


def tight_triple():
    a = Matrix(QQ, [[1, 1], [1, 1], [0, 0]])
    b = Matrix(QQ, [[1, 2, 3], [0, 1, 0]])
    c = Matrix(QQ, [[1, 1], [0, -1], [1, 0]])
    return a, b, c


def test_golden_rank_profile():
    start = time.monotonic()
    a, b, c = tight_triple()
    analysis = analyze(a, b, c)
    prof = analysis.profile
    assert (prof.rank_b, prof.rank_ab, prof.rank_bc, prof.rank_abc) == (2, 1, 2, 1)
    assert prof.lhs == 3 and prof.rhs == 3
    assert prof.gap == 0
    crit = analysis.criteria
    assert crit.gap_zero
    assert crit.quotient_block_invertible
    assert crit.kernel_intersections_equal
    assert crit.intersection_factor_exists
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS golden rank profile and criteria ({elapsed:.3f}s)")


def test_golden_certificates():
    start = time.monotonic()
    a, b, c = tight_triple()
    published_x = Matrix(QQ, [[0, Fraction(-1, 2), 0], [0, -1, 0]])
    published_y = Matrix(QQ, [[1, 0, 0], [0, 0, 0]])
    assert verify_certificate(a, b, c, published_x, published_y)

    cert = construct_certificate(analyze(a, b, c))
    assert isinstance(cert, EqualityCertificate)
    assert verify_certificate(a, b, c, cert.X, cert.Y)

    trace = cert.trace
    assert trace.bc_preimages == Matrix(QQ, [[Fraction(-1, 2)], [-1]])
    assert trace.preimage_map == Matrix(QQ, [[0, Fraction(-1, 2)], [0, -1]])
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS golden certificate checks ({elapsed:.3f}s)")


def test_exhaustive_gf2_sweep():
    start = time.monotonic()
    field = GF(2)
    mats = [
        Matrix(field, [bits[:2], bits[2:]])
        for bits in itertools.product((0, 1), repeat=4)
    ]
    disagreements = 0
    for a in mats:
        for b in mats:
            for c in mats:
                solvable = brute_force_solvable(a, b, c)
                analysis = analyze(a, b, c)
                crit = analysis.criteria
                booleans = (
                    crit.gap_zero,
                    crit.quotient_block_invertible,
                    crit.kernel_intersections_equal,
                    crit.intersection_factor_exists,
                )
                out = construct_certificate(analysis)
                if crit.gap_zero:
                    built_ok = isinstance(out, EqualityCertificate) and verify_certificate(
                        a, b, c, out.X, out.Y
                    )
                else:
                    built_ok = False
                expected = (solvable,) * 4
                if booleans != expected or (solvable and not built_ok):
                    disagreements += 1
    assert disagreements == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS exhaustive GF(2) sweep, 4096 triples, 0 disagreements ({elapsed:.1f}s)")


def _dims_schedule(i, cap):
    return (
        1 + i % cap,
        1 + (i // cap) % cap,
        1 + (i // cap**2) % cap,
        1 + (i // cap**3) % cap,
    )


def _check_triple_invariants(a, b, c):
    analysis = analyze(a, b, c)
    prof = analysis.profile
    assert prof.gap >= 0
    w_bc = analysis.w_bc
    assert prof.rank_ab == prof.rank_b - analysis.w_b.cols
    assert prof.rank_abc == prof.rank_bc - w_bc.cols
    crit = analysis.criteria
    booleans = {
        crit.gap_zero,
        crit.quotient_block_invertible,
        crit.kernel_intersections_equal,
        crit.intersection_factor_exists,
    }
    assert len(booleans) == 1
    out = construct_certificate(analysis)
    if crit.gap_zero:
        assert isinstance(out, EqualityCertificate)
        assert verify_certificate(a, b, c, out.X, out.Y)
    else:
        assert isinstance(out, InequalityWitness)
        w = out.vector
        assert (a @ w).is_zero
        assert rank(b.hstack(w)) == rank(b)
        assert rank(w_bc.hstack(w)) == w_bc.cols + 1


def test_randomized_property_suite():
    start = time.monotonic()
    for i in range(1000):
        triple = random_instance(QQ, _dims_schedule(i, 4), seed=i)
        _check_triple_invariants(*triple)
    field = GF(5)
    for i in range(1000):
        triple = random_instance(field, _dims_schedule(i, 5), seed=10_000 + i)
        _check_triple_invariants(*triple)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"PASS randomized suite, 1000 rational + 1000 GF(5) triples ({elapsed:.1f}s)")


def test_strict_inequality_fixture():
    a = Matrix(QQ, [[1, 0], [0, 0]])
    b = Matrix.identity(QQ, 2)
    c = Matrix(QQ, [[1, 0], [0, 0]])
    analysis = analyze(a, b, c)
    assert analysis.profile.gap == 1
    out = construct_certificate(analysis)
    assert isinstance(out, InequalityWitness)
    assert out.vector == Matrix(QQ, [[0], [1]])

    f2 = GF(2)
    a2 = Matrix(f2, [[1, 0], [0, 0]])
    b2 = Matrix.identity(f2, 2)
    c2 = Matrix(f2, [[1, 0], [0, 0]])
    assert brute_force_solvable(a2, b2, c2) is False
    print("PASS strict fixture: gap 1, witness e2, unsolvable over GF(2)")


def test_solution_family_on_golden():
    a, b, c = tight_triple()
    base = construct_certificate(analyze(a, b, c))
    pairs = solution_family(a, b, c, base.X, base.Y, 10)
    assert 1 <= len(pairs) <= 10
    assert len(set(pairs)) == len(pairs)
    for x, y in pairs:
        assert verify_certificate(a, b, c, x, y)
    print(f"PASS solution family: {len(pairs)} distinct verifying pairs")


def test_cli_determinism():
    for fixture in ("tight_rational.json", "strict_gf2.json"):
        path = str(FIXTURES / fixture)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "frobrank", "certify", path, "--trace"],
                capture_output=True,
                timeout=TIMEOUT,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode
        json_runs = [
            subprocess.run(
                [sys.executable, "-m", "frobrank", "certify", path, "--format", "json"],
                capture_output=True,
                timeout=TIMEOUT,
            )
            for _ in range(2)
        ]
        assert json_runs[0].stdout == json_runs[1].stdout
    print("PASS certify output is byte-identical across runs")
