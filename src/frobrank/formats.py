"""Instance and report documents.

Instances travel as a single JSON object carrying the field tag and the
three matrices; every scalar is an exact decimal or fraction string, so
no floating point ever appears on the wire.

Two functions emit: ``emit_instance`` an instance document, and
``emit_report`` any output (a report, a verify or oracle flag, a
solution family), built as one dict in text order whose leaves are
scalars and ``Matrix`` values. JSON is that dict with each matrix as
{"rows", "cols", "data"}, in the layout of ``json.dumps(doc, indent=2,
sort_keys=True)``; text is its entries in order, one ``name=value``
line each. Both are byte-deterministic for a given input.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .analysis import CriteriaReport, _check_triple, analyze
from .certificate import EqualityCertificate, construct_certificate
from .errors import ParseError, ScalarError
from .fields import Field, parse_field_tag, too_many_digits
from .matrix import MAX_DIM, Matrix


def _load_json(text: bytes | str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
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
    p = field.modulus
    parsed = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"matrix {name} row {i} does not have {cols} entries")
        # A row of strings is read in bulk: over GF(p) each cell with
        # int(), over Q with _fraction. int() accepts what the scalar
        # pattern accepts for an integer, and underscores besides, so a
        # row with an underscore, a cell that is not a string or a cell
        # that int() or Fraction refuses is read cell by cell below, with
        # the values and messages of Field.parse.
        try:
            if "_" not in "".join(row):
                parsed.append([x % p for x in map(int, row)] if p is not None
                              else list(map(_fraction, row)))
                continue
        except (TypeError, ValueError, ZeroDivisionError):
            pass
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


def _fraction(cell: str) -> Fraction:
    # An integer or a fraction a/b, with spaces around the slash as the
    # scalar pattern allows them; anything else raises.
    num, slash, den = cell.partition("/")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


def _cells(m: Matrix) -> list[list[str]]:
    try:
        return [list(map(str, row)) for row in m.entries]
    except ValueError:
        # str() refuses integers past the int/str conversion limit.
        raise ScalarError(too_many_digits("an output matrix")) from None


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
    return _dumps({"field": field.label, "A": a, "B": b, "C": c})


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


def build_report(
    a: Matrix,
    b: Matrix,
    c: Matrix,
    include_certificate: bool = False,
    include_trace: bool = False,
) -> dict:
    """The report document for one triple, its entries in text order.

    ``certificate`` (and, on request, ``trace``) is attached on tight
    instances when the caller asked for one; ``witness`` is attached on
    strict ones under the same request.
    """
    analysis = analyze(a, b, c)
    p = analysis.profile
    criteria = analysis.criteria
    doc = {
        "field": a.field.label,
        "rank_profile": {**p._asdict(), "lhs": p.lhs, "rhs": p.rhs, "gap": p.gap},
        # The four booleans lead CriteriaReport's fields.
        "criteria": {name: getattr(criteria, name) for name in CriteriaReport._fields[:4]},
        "verdict": "equality" if criteria.gap_zero else "strict",
    }
    if include_certificate and criteria.gap_zero:
        certificate = construct_certificate(analysis, include_trace)
        assert isinstance(certificate, EqualityCertificate)
        doc["certificate"] = {"X": certificate.X, "Y": certificate.Y}
        if include_trace:
            doc["trace"] = certificate.trace._asdict()
    if include_certificate and criteria.witness is not None:
        doc["witness"] = criteria.witness.vector
    return doc


def _json(node, indent: str) -> str:
    # node in the layout of json.dumps(node, indent=2, sort_keys=True),
    # every line after its first indented by indent. A Matrix is the
    # object {"cols", "data", "rows"}, with each row of data one join:
    # its cells are digits, signs and slashes, which need no escapes.
    inner = indent + "  "
    if isinstance(node, Matrix):
        cell = f'",\n{inner}    "'
        rows = [f'[\n{inner}    "{cell.join(row)}"\n{inner}  ]' if row else "[]"
                for row in _cells(node)]
        data = f"[\n{inner}  " + f",\n{inner}  ".join(rows) + f"\n{inner}]" if rows else "[]"
        return (f'{{\n{inner}"cols": {node.cols},\n{inner}"data": {data},\n'
                f'{inner}"rows": {node.rows}\n{indent}}}')
    if isinstance(node, dict):
        if not node:
            return "{}"
        items = [f"{inner}{_string(key)}: {_json(node[key], inner)}" for key in sorted(node)]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(node, list):
        if not node:
            return "[]"
        return "[\n" + ",\n".join(inner + _json(item, inner) for item in node) + f"\n{indent}]"
    if isinstance(node, str):
        return _string(node)
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, int):
        return int.__repr__(node)
    raise TypeError(f"cannot write {type(node).__name__} as JSON")


def _dumps(doc) -> bytes:
    return (_json(doc, "") + "\n").encode()


# Text names of the entries whose JSON key differs.
_TEXT_NAMES = {
    "rank_b": "rank(B)",
    "rank_ab": "rank(AB)",
    "rank_bc": "rank(BC)",
    "rank_abc": "rank(ABC)",
    "lhs": "rank(ABC)+rank(B)",
    "rhs": "rank(AB)+rank(BC)",
}


def _text_lines(doc: dict, prefix: str = ""):
    for key, value in doc.items():
        name = prefix + _TEXT_NAMES.get(key, key)
        if isinstance(value, Matrix):
            yield f"{name}="
            for row in _cells(value):
                yield "  [" + " ".join(row) + "]"
        elif isinstance(value, dict):
            yield from _text_lines(value, "trace." if key == "trace" else prefix)
        elif isinstance(value, list):
            # The only list is a family's pairs.
            for i, item in enumerate(value, start=1):
                yield f"pair={i}"
                yield from _text_lines(item, prefix)
        elif isinstance(value, bool):
            yield f"{name}={'true' if value else 'false'}"
        else:
            yield f"{name}={value}"


def emit_report(report: dict, format: str = "text") -> bytes:
    """Serialize a document deterministically as "json" or "text"."""
    if format == "json":
        return _dumps(report)
    if format == "text":
        return ("\n".join(_text_lines(report)) + "\n").encode()
    raise ValueError(f"unknown format {format!r}")
