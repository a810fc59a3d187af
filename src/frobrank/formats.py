"""Instance and report documents.

Instances travel as a single JSON object carrying the field tag and the
three matrices; every scalar is an exact decimal or fraction string, so
no floating point ever appears on the wire. Reports serialize to
stable-key-ordered JSON or to a fixed plain-text layout; both are
byte-deterministic for a given input.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .analysis import CriteriaReport, RankProfile, _check_triple, analyze
from .certificate import ConstructionTrace, EqualityCertificate, construct_certificate
from .errors import ParseError, ScalarError
from .fields import Field, parse_field_tag, too_many_digits
from .matrix import MAX_DIM, Matrix


def _load_json(text: bytes | str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError:
        # json.loads met a number past the int/str conversion limit.
        raise ParseError(too_many_digits("the JSON document")) from None


def _parse_matrix_obj(obj, field: Field, name: str) -> Matrix:
    if not isinstance(obj, dict):
        raise ParseError(f"matrix {name} must be an object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise ParseError(f"matrix {name} is missing key {exc}") from exc
    # bool is an int subclass; JSON true/false is not a shape.
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise ParseError(f"matrix {name} has invalid shape")
    if rows > MAX_DIM or cols > MAX_DIM:
        raise ParseError(
            f"matrix {name} is {rows}x{cols}, past the cap of {MAX_DIM} rows and columns"
        )
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"matrix {name} data does not have {rows} rows")
    parsed = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"matrix {name} row {i} does not have {cols} entries")
        out = []
        for j, cell in enumerate(row):
            if isinstance(cell, str):
                try:
                    out.append(field.parse(cell))
                except ScalarError as exc:
                    raise ScalarError(f"matrix {name} entry ({i},{j}): {exc}") from exc
            elif isinstance(cell, int) and not isinstance(cell, bool):
                out.append(field.coerce(cell))
            else:
                raise ScalarError(
                    f"matrix {name} entry ({i},{j}) must be an exact scalar string"
                )
        parsed.append(out)
    return Matrix._canonical(field, rows, cols, parsed)


def _cells(m: Matrix) -> list[list[str]]:
    try:
        return [list(map(str, row)) for row in m.entries]
    except ValueError:
        # str() refuses integers past the int/str conversion limit.
        raise ScalarError(too_many_digits("an output matrix")) from None


def _matrix_obj(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "data": _cells(m)}


def parse_instance(text: bytes | str) -> tuple[Field, Matrix, Matrix, Matrix]:
    """Parse and validate an instance document into (field, A, B, C)."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for key in ("field", "A", "B", "C"):
        if key not in doc:
            raise ParseError(f"instance document is missing key {key!r}")
    if not isinstance(doc["field"], str):
        raise ParseError("field tag must be a string")
    field = parse_field_tag(doc["field"])
    a = _parse_matrix_obj(doc["A"], field, "A")
    b = _parse_matrix_obj(doc["B"], field, "B")
    c = _parse_matrix_obj(doc["C"], field, "C")
    _check_triple(a, b, c)
    return field, a, b, c


def emit_instance(field: Field, a: Matrix, b: Matrix, c: Matrix) -> bytes:
    doc = {
        "field": field.label,
        "A": _matrix_obj(a),
        "B": _matrix_obj(b),
        "C": _matrix_obj(c),
    }
    return _dumps(doc)


def parse_certificate(text: bytes | str, field: Field) -> tuple[Matrix, Matrix]:
    """Read an (X, Y) pair, either bare or nested under "certificate"
    (so a report emitted by ``certify`` can be fed back directly)."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("certificate document must be a JSON object")
    if "certificate" in doc and isinstance(doc["certificate"], dict):
        doc = doc["certificate"]
    if "X" not in doc or "Y" not in doc:
        raise ParseError("certificate document needs matrices X and Y")
    return (
        _parse_matrix_obj(doc["X"], field, "X"),
        _parse_matrix_obj(doc["Y"], field, "Y"),
    )


class Report(NamedTuple):
    """Analysis outcome for one triple, ready for serialization.

    ``certificate`` is attached on tight instances when the caller asked
    for one; ``witness`` is attached whenever the inequality is strict.
    """

    field: Field
    profile: RankProfile
    criteria: CriteriaReport
    verdict: str
    certificate: EqualityCertificate | None = None
    witness: Matrix | None = None
    include_trace: bool = False


def build_report(
    a: Matrix,
    b: Matrix,
    c: Matrix,
    include_certificate: bool = False,
    include_trace: bool = False,
) -> Report:
    analysis = analyze(a, b, c)
    criteria = analysis.criteria
    verdict = "equality" if criteria.gap_zero else "strict"
    certificate = None
    witness = criteria.witness.vector if criteria.witness is not None else None
    if include_certificate and criteria.gap_zero:
        built = construct_certificate(analysis)
        assert isinstance(built, EqualityCertificate)
        certificate = built
    return Report(
        field=a.field,
        profile=analysis.profile,
        criteria=criteria,
        verdict=verdict,
        certificate=certificate,
        witness=witness if include_certificate else None,
        include_trace=include_trace,
    )


def _dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# The trace's matrices in their text order; JSON sorts its keys.
_TRACE_MATRICES = ("column_basis", "kernel_coords", "extended_basis",
                   "bc_preimages", "preimage_map", "image_basis")


def _trace_obj(trace: ConstructionTrace) -> dict:
    doc = {name: _matrix_obj(getattr(trace, name)) for name in _TRACE_MATRICES}
    return {**doc, "intersection_dim": trace.intersection_dim, "rank": trace.rank}


def _report_doc(report: Report) -> dict:
    p = report.profile
    crit = report.criteria
    doc = {
        "field": report.field.label,
        "rank_profile": {
            "rank_b": p.rank_b,
            "rank_ab": p.rank_ab,
            "rank_bc": p.rank_bc,
            "rank_abc": p.rank_abc,
            "lhs": p.lhs,
            "rhs": p.rhs,
            "gap": p.gap,
        },
        "criteria": {
            "gap_zero": crit.gap_zero,
            "quotient_block_invertible": crit.quotient_block_invertible,
            "kernel_intersections_equal": crit.kernel_intersections_equal,
            "intersection_factor_exists": crit.intersection_factor_exists,
        },
        "verdict": report.verdict,
    }
    if report.certificate is not None:
        doc["certificate"] = {
            "X": _matrix_obj(report.certificate.X),
            "Y": _matrix_obj(report.certificate.Y),
        }
        if report.include_trace and report.certificate.trace is not None:
            doc["trace"] = _trace_obj(report.certificate.trace)
    if report.witness is not None:
        doc["witness"] = _matrix_obj(report.witness)
    return doc


def _matrix_lines(name: str, m: Matrix) -> list[str]:
    lines = [f"{name}="]
    for row in _cells(m):
        lines.append("  [" + " ".join(row) + "]")
    return lines


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _report_text(report: Report) -> str:
    p = report.profile
    crit = report.criteria
    lines = [
        f"field={report.field.label}",
        f"rank(B)={p.rank_b}",
        f"rank(AB)={p.rank_ab}",
        f"rank(BC)={p.rank_bc}",
        f"rank(ABC)={p.rank_abc}",
        f"rank(ABC)+rank(B)={p.lhs}",
        f"rank(AB)+rank(BC)={p.rhs}",
        f"gap={p.gap}",
        f"gap_zero={_bool(crit.gap_zero)}",
        f"quotient_block_invertible={_bool(crit.quotient_block_invertible)}",
        f"kernel_intersections_equal={_bool(crit.kernel_intersections_equal)}",
        f"intersection_factor_exists={_bool(crit.intersection_factor_exists)}",
        f"verdict={report.verdict}",
    ]
    if report.certificate is not None:
        lines += _matrix_lines("X", report.certificate.X)
        lines += _matrix_lines("Y", report.certificate.Y)
        trace = report.certificate.trace
        if report.include_trace and trace is not None:
            lines.append(f"trace.intersection_dim={trace.intersection_dim}")
            lines.append(f"trace.rank={trace.rank}")
            for name in _TRACE_MATRICES:
                lines += _matrix_lines(f"trace.{name}", getattr(trace, name))
    if report.witness is not None:
        lines += _matrix_lines("witness", report.witness)
    return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str = "text") -> bytes:
    """Serialize a report deterministically as "json" or "text"."""
    if format == "json":
        return _dumps(_report_doc(report))
    if format == "text":
        return _report_text(report).encode()
    raise ValueError(f"unknown format {format!r}")


def emit_flag(name: str, value: bool, format: str = "text") -> bytes:
    """One-line boolean outcome document (verify / oracle results)."""
    if format == "json":
        return _dumps({name: value})
    return f"{name}={_bool(value)}\n".encode()


def emit_family(pairs: list[tuple[Matrix, Matrix]], format: str = "text") -> bytes:
    """Serialize derived solution pairs deterministically."""
    if format == "json":
        doc = {
            "count": len(pairs),
            "pairs": [{"X": _matrix_obj(x), "Y": _matrix_obj(y)} for x, y in pairs],
        }
        return _dumps(doc)
    lines = [f"count={len(pairs)}"]
    for i, (x, y) in enumerate(pairs, start=1):
        lines.append(f"pair={i}")
        lines += _matrix_lines("X", x)
        lines += _matrix_lines("Y", y)
    return ("\n".join(lines) + "\n").encode()
