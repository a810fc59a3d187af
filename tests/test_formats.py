import json
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from frobrank import (
    GF,
    QQ,
    Field,
    Matrix,
    build_report,
    emit_instance,
    emit_report,
    parse_certificate,
    parse_instance,
)
from frobrank.cli import main
from frobrank.errors import (
    DimensionMismatch,
    FieldError,
    FieldMismatch,
    FrobrankError,
    ParseError,
    ScalarError,
)
from frobrank.formats import _dumps
from frobrank.matrix import MAX_DIM

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_parse_fixture_instance(tight_triple):
    a, b, c = parse_instance((FIXTURES / "tight_rational.json").read_bytes())
    assert a.field == b.field == c.field == QQ
    assert (a, b, c) == tight_triple


def test_parse_rejects_composite_field():
    doc = '{"field": "GF(4)", "A": {"rows": 0, "cols": 0, "data": []}, "B": {"rows": 0, "cols": 0, "data": []}, "C": {"rows": 0, "cols": 0, "data": []}}'
    with pytest.raises(FieldError):
        parse_instance(doc)


def test_parse_rejects_broken_chain():
    doc = {
        "field": "Q",
        "A": {"rows": 3, "cols": 2, "data": [["1", "0"], ["0", "1"], ["0", "0"]]},
        "B": {"rows": 3, "cols": 3, "data": [["1", "0", "0"]] * 3},
        "C": {"rows": 3, "cols": 1, "data": [["1"], ["0"], ["0"]]},
    }
    with pytest.raises(DimensionMismatch) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value) == "A has 2 columns but B has 3 rows"
    doc["A"] = doc["B"]
    doc["C"] = {"rows": 2, "cols": 1, "data": [["1"], ["0"]]}
    with pytest.raises(DimensionMismatch) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value) == "B has 3 columns but C has 2 rows"


def test_parse_rejects_bad_scalars_and_schema():
    with pytest.raises(ParseError):
        parse_instance(b"not json")
    with pytest.raises(ParseError):
        parse_instance(b'{"field": "Q"}')
    doc = {
        "field": "Q",
        "A": {"rows": 1, "cols": 1, "data": [["0.5"]]},
        "B": {"rows": 1, "cols": 1, "data": [["1"]]},
        "C": {"rows": 1, "cols": 1, "data": [["1"]]},
    }
    with pytest.raises(ScalarError):
        parse_instance(json.dumps(doc))
    doc["A"]["data"] = [[None]]
    with pytest.raises(ScalarError):
        parse_instance(json.dumps(doc))
    deep = "[" * 10**5 + "]" * 10**5
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_instance(deep)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_certificate(deep, QQ)


def test_scalar_canonicalization_on_load():
    doc = {
        "field": "Q",
        "A": {"rows": 1, "cols": 1, "data": [["2/4"]]},
        "B": {"rows": 1, "cols": 1, "data": [["-6/4"]]},
        "C": {"rows": 1, "cols": 1, "data": [["3"]]},
    }
    a, b, _ = parse_instance(json.dumps(doc))
    assert a.entries[0][0] == Fraction(1, 2)
    assert b.entries[0][0] == Fraction(-3, 2)


def test_prime_field_fraction_entries():
    doc = {
        "field": "GF(7)",
        "A": {"rows": 1, "cols": 1, "data": [["1/2"]]},
        "B": {"rows": 1, "cols": 1, "data": [["-1"]]},
        "C": {"rows": 1, "cols": 1, "data": [["9"]]},
    }
    a, b, c = parse_instance(json.dumps(doc))
    assert a.entries[0][0] == 4 and b.entries[0][0] == 6 and c.entries[0][0] == 2


def test_instance_round_trip(tight_triple):
    raw = (FIXTURES / "tight_rational.json").read_bytes()
    parsed = parse_instance(raw)
    emitted = emit_instance(*parsed)
    assert parse_instance(emitted) == parsed
    # Emission is canonical: a second round trip is byte-stable.
    assert emit_instance(*parse_instance(emitted)) == emitted


@pytest.mark.parametrize("name", ["tight_rational.json", "strict_gf2.json"])
def test_fixture_round_trip(name):
    # The field travels on the matrices: writing a fixture's triple and
    # reading it back gives the same triple, in the same field.
    a, b, c = parse_instance((FIXTURES / name).read_bytes())
    assert parse_instance(emit_instance(a, b, c)) == (a, b, c)


def test_emit_instance_refuses_a_bad_triple():
    # The field tag is read off the matrices, so matrices over two fields
    # have no tag to write; a triple that does not chain would be refused
    # when read back. Both are refused with the messages of parse_instance.
    one = Matrix(QQ, [[Fraction(1, 2)]])
    with pytest.raises(FieldMismatch) as exc:
        emit_instance(Matrix(GF(5), [[1]]), one, one)
    assert str(exc.value) == "A, B, C must share a field"
    with pytest.raises(DimensionMismatch) as exc:
        emit_instance(Matrix(QQ, [[1, 2]]), one, one)
    assert str(exc.value) == "A has 2 columns but B has 1 rows"


def test_report_emission_deterministic(tight_triple):
    a, b, c = tight_triple
    report = build_report(a, b, c, include_certificate=True, include_trace=True)
    assert emit_report(report, "json") == emit_report(report, "json")
    assert emit_report(report, "text") == emit_report(report, "text")
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_report_text_contents(tight_triple):
    a, b, c = tight_triple
    report = build_report(a, b, c, include_certificate=True)
    text = emit_report(report, "text").decode()
    lines = text.splitlines()
    assert "rank(B)=2" in lines
    assert "rank(ABC)+rank(B)=3" in lines
    assert "rank(AB)+rank(BC)=3" in lines
    assert "gap=0" in lines
    assert "verdict=equality" in lines
    assert "X=" in lines and "Y=" in lines
    assert "  [0 -1/2 0]" in lines


def test_report_json_schema(tight_triple, strict_triple):
    a, b, c = tight_triple
    doc = json.loads(emit_report(build_report(a, b, c, include_certificate=True), "json"))
    assert doc["verdict"] == "equality"
    assert doc["rank_profile"]["gap"] == 0
    assert doc["rank_profile"]["lhs"] == doc["rank_profile"]["rhs"] == 3
    assert set(doc["criteria"].values()) == {True}
    assert "certificate" in doc and "witness" not in doc

    doc = json.loads(emit_report(build_report(*strict_triple, include_certificate=True), "json"))
    assert doc["verdict"] == "strict"
    assert "certificate" not in doc and doc["witness"]["data"] == [["0"], ["1"]]


def test_certificate_documents_parse(tight_triple):
    a, b, c = tight_triple
    x, y = parse_certificate((FIXTURES / "tight_rational_cert.json").read_bytes(), QQ)
    assert x == Matrix(QQ, [[0, Fraction(-1, 2), 0], [0, -1, 0]])
    assert y == Matrix(QQ, [[1, 0, 0], [0, 0, 0]])
    # A certify report can be fed back as a certificate document.
    report = emit_report(build_report(a, b, c, include_certificate=True), "json")
    x2, y2 = parse_certificate(report, QQ)
    assert x2 == x
    with pytest.raises(ParseError):
        parse_certificate(b'{"X": {"rows": 0, "cols": 0, "data": []}}', QQ)


def test_check_report_is_bare(strict_triple):
    report = build_report(*strict_triple, include_certificate=False)
    doc = json.loads(emit_report(report, "json"))
    assert "certificate" not in doc and "witness" not in doc
    assert doc["verdict"] == "strict"


@pytest.mark.parametrize("key", ["rows", "cols"])
def test_parse_rejects_boolean_shapes(key):
    doc = {
        "field": "Q",
        "A": {"rows": 1, "cols": 1, "data": [["1"]]},
        "B": {"rows": 1, "cols": 1, "data": [["1"]]},
        "C": {"rows": 1, "cols": 1, "data": [["1"]]},
    }
    doc["B"][key] = True
    with pytest.raises(ParseError, match="matrix B has invalid shape"):
        parse_instance(json.dumps(doc))


def _one_by_one(a, b="1", c="1"):
    return {
        "field": "Q",
        "A": {"rows": 1, "cols": 1, "data": [[a]]},
        "B": {"rows": 1, "cols": 1, "data": [[b]]},
        "C": {"rows": 1, "cols": 1, "data": [[c]]},
    }


def _digit_limit():
    # Python 3.10.6 and earlier have no conversion limit and no getter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("integer string conversion is unlimited in this interpreter")
    return limit


def test_literal_past_digit_limit_is_a_clear_error():
    huge = "7" * (_digit_limit() + 700)
    with pytest.raises(ScalarError, match="matrix A entry .* more than .* decimal digits"):
        parse_instance(json.dumps(_one_by_one(huge)))
    with pytest.raises(ScalarError, match="more than .* decimal digits"):
        parse_instance(json.dumps(_one_by_one("1/" + huge)))
    # A bare JSON number fails inside the JSON reader.
    text = json.dumps(_one_by_one("0")).replace('"0"', huge)
    with pytest.raises(ParseError, match="more than .* decimal digits"):
        parse_instance(text)
    with pytest.raises(FieldError, match="field tag has an integer of more than"):
        parse_instance(json.dumps({**_one_by_one("0"), "field": f"GF({huge})"}))


def test_literal_at_digit_limit_round_trips():
    edge = "9" * _digit_limit()
    a, b, c = parse_instance(json.dumps(_one_by_one(edge, "-1/" + edge)))
    assert parse_instance(emit_instance(a, b, c)) == (a, b, c)


def test_output_past_digit_limit_is_a_clear_error():
    # X = C^-1 has the entry -1/c**2, twice as many digits as c's denominator.
    den = "1" + "0" * (_digit_limit() * 3 // 4)
    c = Matrix(QQ, [[Fraction(1, int(den)), 0], [1, Fraction(1, int(den))]])
    report = build_report(Matrix.zeros(QQ, 1, 2), Matrix.identity(QQ, 2), c,
                          include_certificate=True)
    assert report["certificate"]["X"].entries[1][0] == -int(den) ** 2
    for fmt in ("json", "text"):
        with pytest.raises(ScalarError, match="output matrix .* more than .* decimal digits"):
            emit_report(report, fmt)


def test_dimension_cap():
    edge = {"rows": 1, "cols": MAX_DIM, "data": [["1"] * MAX_DIM]}
    x, y = parse_certificate(json.dumps({"X": edge, "Y": edge}), GF(2))
    assert x.shape == y.shape == (1, MAX_DIM)
    for shape in ((MAX_DIM + 1, 0), (0, MAX_DIM + 1)):
        wide = {"rows": shape[0], "cols": shape[1], "data": [[]] * shape[0]}
        with pytest.raises(ParseError, match=f"matrix Y is .* past the cap of {MAX_DIM}"):
            parse_certificate(json.dumps({"X": edge, "Y": wide}), GF(2))
        with pytest.raises(ParseError, match=f"matrix A is .* past the cap of {MAX_DIM}"):
            parse_instance(json.dumps({**_one_by_one("1"), "A": wide}))


# Fuzzing the readers: well-formed documents, the same with junk put in
# at one or two random places, truncated text and arbitrary bytes.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, MAX_DIM + 2),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["rows", "cols", "data"]), st.integers(0, 2)),
)
_CELLS = st.one_of(
    st.from_regex(r"\s?[+-]?[0-9]{1,4}(\s?/\s?[+-]?[0-9]{1,3})?\s?", fullmatch=True),
    st.integers(-(10**30), 10**30),
)
_TAGS = st.sampled_from(["Q", "GF(2)", "GF(5)", "GF(101)", " GF(3) "])


def _slots(node):
    # Every (container, key) pair of a JSON tree, the root's included.
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def _documents(draw, keys):
    dims = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    shapes = {"A": dims[0:2], "B": dims[1:3], "C": dims[2:4], "X": dims[2:0:-1],
              "Y": dims[0:2][::-1]}
    doc = {}
    for key in keys:
        rows, cols = shapes[key]
        data = [[draw(_CELLS) for _ in range(cols)] for _ in range(rows)]
        doc[key] = {"rows": rows, "cols": cols, "data": data}
    if "A" in keys:
        doc["field"] = draw(_TAGS)
    for _ in range(draw(st.integers(0, 2))):
        node, key = draw(st.sampled_from(list(_slots(doc))))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JUNK)
    text = json.dumps(doc)
    return draw(st.sampled_from([text, text, text, text[: len(text) // 2], text.encode()]))


def _assert_canonical(field, m):
    assert m.field == field
    assert len(m.entries) == m.rows <= MAX_DIM
    assert all(len(row) == m.cols <= MAX_DIM for row in m.entries)
    for row in m.entries:
        for x in row:
            if field.modulus is None:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < field.modulus
    assert Matrix(field, m.entries, shape=m.shape) == m


@settings(max_examples=300, deadline=None)
@given(text=_documents(("A", "B", "C")) | st.binary(max_size=24))
def test_parse_instance_fuzz(text):
    try:
        a, b, c = parse_instance(text)
    except FrobrankError:
        return
    for m in (a, b, c):
        _assert_canonical(m.field, m)
    assert parse_instance(emit_instance(a, b, c)) == (a, b, c)


@settings(max_examples=300, deadline=None)
@given(
    text=_documents(("X", "Y")) | st.binary(max_size=24),
    field=st.sampled_from([QQ, GF(2), GF(5), GF(101)]),
    nest=st.booleans(),
)
def test_parse_certificate_fuzz(text, field, nest):
    if nest and isinstance(text, str) and text.startswith("{"):
        text = '{"certificate": ' + text + "}"
    try:
        x, y = parse_certificate(text, field)
    except FrobrankError:
        return
    for m in (x, y):
        _assert_canonical(field, m)


# Reading rows: a row of strings is read in bulk, with int() over GF(p)
# and with int() and Fraction over Q, and falls back to Field.parse cell
# by cell, so both must give the same value or the same message,
# whatever the cells hold.
_SPACES = [" ", "\t", "\n", "\x1c", "\x85", "\u3000"]
_INTEGER_TEXT = st.builds(
    lambda lead, sign, digits, trail: lead + sign + digits + trail,
    st.sampled_from(["", *_SPACES]),
    st.sampled_from(["", "+", "-"]),
    st.text(st.sampled_from("0123456789\u0663\uff10"), min_size=1, max_size=4),
    st.sampled_from(["", *_SPACES]),
)
_ANY_TEXT = st.text(
    st.sampled_from([*"0123456789+-/_", *_SPACES, "\u0663", "\uff10", "\u00b2"]), max_size=6
)
_FRACTION_TEXT = st.builds(
    lambda num, lead, trail, den: num + lead + "/" + trail + den,
    _INTEGER_TEXT, st.sampled_from(["", *_SPACES]), st.sampled_from(["", *_SPACES]),
    _INTEGER_TEXT,
)
_ROWS = st.one_of(
    st.lists(_INTEGER_TEXT | _FRACTION_TEXT, max_size=5),
    st.lists(_INTEGER_TEXT | _FRACTION_TEXT | _ANY_TEXT, max_size=5),
    st.lists(_INTEGER_TEXT | _ANY_TEXT | st.integers(-(10**30), 10**30) | st.booleans()
             | st.none(), max_size=5),
)


def _row_by_field_parse(field, row):
    # The entries of a one-row matrix X, or the message of its first bad cell.
    out = []
    for j, cell in enumerate(row):
        if isinstance(cell, str):
            try:
                out.append(field.parse(cell))
            except ScalarError as exc:
                return f"matrix X entry (0,{j}): {exc}"
        elif isinstance(cell, int) and not isinstance(cell, bool):
            out.append(field.coerce(cell))
        else:
            return f"matrix X entry (0,{j}) must be an exact scalar string"
    return out


def _certificate_doc(row):
    return json.dumps({"X": {"rows": 1, "cols": len(row), "data": [row]},
                       "Y": {"rows": 0, "cols": 0, "data": []}})


def _assert_read_as_field_parse_reads(field, row):
    expected = _row_by_field_parse(field, row)
    if isinstance(expected, str):
        with pytest.raises(ScalarError) as exc:
            parse_certificate(_certificate_doc(row), field)
        assert str(exc.value) == expected
    else:
        x, _ = parse_certificate(_certificate_doc(row), field)
        assert list(x.entries[0]) == expected
        assert all(type(v) is type(field.zero) for v in x.entries[0])


@settings(max_examples=400, deadline=None)
@given(row=_ROWS)
def test_gf_rows_read_in_bulk_as_field_parse_reads_them(row):
    _assert_read_as_field_parse_reads(GF(101), row)


@settings(max_examples=400, deadline=None)
@given(row=_ROWS)
def test_q_rows_read_in_bulk_as_field_parse_reads_them(row):
    _assert_read_as_field_parse_reads(QQ, row)


# Spaces around the slash, signs on both parts, Unicode digits, and cells
# the scalar pattern refuses: a zero denominator, a decimal point, an
# underscore and a double slash.
_Q_VALID = [" 3 / 4 ", "-3/-4", "+6/\u0663", "\uff11\uff12/\u0664", "7", " -0 "]
_Q_REFUSED = ["3/0", "1.5", "1_0", "3//4", "/4", "3/"]


@pytest.mark.parametrize("cell", _Q_VALID + _Q_REFUSED)
def test_q_cells_read_in_bulk_as_field_parse_reads_them(cell):
    _assert_read_as_field_parse_reads(QQ, ["1/2", cell, "5"])


def test_q_rows_of_valid_cells_skip_field_parse(monkeypatch):
    # Valid rows never reach Field.parse: the bulk path reads them.
    def refuse(self, text):
        raise AssertionError(f"Field.parse called on {text!r}")

    expected = [QQ.parse(cell) for cell in _Q_VALID]
    monkeypatch.setattr(Field, "parse", refuse)
    x, _ = parse_certificate(_certificate_doc(_Q_VALID), QQ)
    assert list(x.entries[0]) == expected == [
        Fraction(3, 4), Fraction(3, 4), Fraction(2), Fraction(3), Fraction(7), Fraction(0)]


def test_gf_literal_past_digit_limit_names_its_entry():
    row = ["1", "7" * (_digit_limit() + 1), "2"]
    with pytest.raises(ScalarError, match=r"matrix X entry \(0,1\): .* more than .* decimal"):
        parse_certificate(_certificate_doc(row), GF(101))


def test_underscore_literal_is_refused_over_gf(tmp_path, capsysbinary):
    # int() reads "1_000" as 1000, the scalar pattern refuses it.
    doc = {**_one_by_one("1_000"), "field": "GF(101)"}
    with pytest.raises(ScalarError, match=r"matrix A entry \(0,0\): cannot parse scalar '1_000'"):
        parse_instance(json.dumps(doc))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path)]) == 2
    out = capsysbinary.readouterr()
    assert out.out == b""
    assert b"cannot parse scalar '1_000'" in out.err


# Emitting: _dumps writes the layout of json.dumps(indent=2,
# sort_keys=True) itself; the standard library is the oracle.
_JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\U0001f600'),
                     max_size=6)
_FIELD_CELLS = [(QQ, st.fractions(-50, 50, max_denominator=9)), (GF(5), st.integers(-50, 50))]
_MATRICES = st.tuples(st.sampled_from(_FIELD_CELLS), st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda t: st.lists(st.lists(t[0][1], min_size=t[2], max_size=t[2]), min_size=t[1],
                       max_size=t[1]).map(lambda rows: Matrix(t[0][0], rows, shape=t[1:]))
)
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _JSON_TEXT
    | _MATRICES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


def _plain(node):
    if isinstance(node, Matrix):
        data = [[str(x) for x in row] for row in node.entries]
        return {"rows": node.rows, "cols": node.cols, "data": data}
    if isinstance(node, dict):
        return {key: _plain(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_plain(item) for item in node]
    return node


@settings(max_examples=200, deadline=None)
@given(doc=_JSON_DOCS)
def test_dumps_writes_the_standard_library_layout(doc):
    expected = json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n"
    assert _dumps(doc) == expected.encode()
