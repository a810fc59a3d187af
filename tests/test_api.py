"""The package's public names, and the README's library example as written."""

import ast
import inspect
import re
from pathlib import Path

import frobrank
from frobrank import certificate, linalg, oracle

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC = {
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
}


def test_star_import_binds_exactly_the_public_names():
    assert len(frobrank.__all__) == len(set(frobrank.__all__))
    assert set(frobrank.__all__) == PUBLIC
    namespace = {}
    exec("from frobrank import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == PUBLIC
    for name in ("rank", "pivot_cols", "Lcg", "rref", "RrefResult", "InequalityWitness",
                 "kernel_basis"):
        assert not hasattr(frobrank, name)
    # Each result has one reader: a kernel is echelon(m).kernel(m.cols), a
    # column m.take_cols([j]) and D analysis.b.take_cols(analysis.b_pivots).
    assert not hasattr(linalg, "kernel_basis")
    assert not hasattr(frobrank.Matrix, "col")
    assert "column_basis" not in frobrank.Analysis._fields
    assert frobrank.echelon is linalg.echelon
    assert frobrank.Echelon is linalg.Echelon
    # perfbench/tracer.py reads linalg.rref on every run, so rref stays
    # until the tracer no longer does; its record is gone.
    assert callable(linalg.rref)
    assert not hasattr(linalg, "RrefResult")


def test_an_instance_is_one_triple():
    # The field travels on the matrices: emit_instance takes A, B and C
    # alone. The generator's state lives in random_instance, and the
    # family's scales in solution_family.
    assert list(inspect.signature(frobrank.emit_instance).parameters) == ["a", "b", "c"]
    assert not hasattr(oracle, "Lcg")
    assert not hasattr(certificate, "_scalar_sequence")


def test_no_module_uses_rref():
    # The tracer is rref's one reader: no module of the package imports,
    # names or calls it, so removing it deletes no caller.
    reads = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    for path in sorted((ROOT / "src" / "frobrank").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            field = reads.get(type(node))
            assert not field or getattr(node, field) != "rref", f"{path.name}:{node.lineno}"


def test_readme_library_example_prints_what_its_comments_say(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    code = blocks[0]
    # Each print line's comment begins with the line it prints.
    expected = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) == 3
    for line, comment in zip(printed, expected):
        assert line and comment.startswith(line)
