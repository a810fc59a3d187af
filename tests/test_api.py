"""The package's public names, and the README's library example as written."""

import re
from pathlib import Path

import frobrank
from frobrank import linalg

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "Analysis",
    "CriteriaReport",
    "ConstructionTrace",
    "DEFAULT_BUDGET",
    "EqualityCertificate",
    "Field",
    "GF",
    "InequalityWitness",
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
    "random_instance",
    "rref",
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
    for name in ("rank", "pivot_cols", "Lcg"):
        assert not hasattr(frobrank, name)
    # perfbench/tracer.py reads linalg.rref on every run, so rref and its
    # record stay until the tracer no longer does.
    assert frobrank.rref is linalg.rref
    assert frobrank.RrefResult is linalg.RrefResult


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
