import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frobrank.matrix import MAX_DIM

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TIGHT = str(FIXTURES / "tight_rational.json")
TIGHT_CERT = str(FIXTURES / "tight_rational_cert.json")
STRICT = str(FIXTURES / "strict_gf2.json")
# Seconds a command may take before it counts as a hang and fails its test.
TIMEOUT = 60


def run(*args, expect=None):
    proc = subprocess.run(
        [sys.executable, "-m", "frobrank", *args], capture_output=True, timeout=TIMEOUT
    )
    if expect is not None:
        assert proc.returncode == expect, proc.stderr.decode()
    return proc


def test_check_tight_exit_zero():
    proc = run("check", TIGHT, expect=0)
    lines = proc.stdout.decode().splitlines()
    assert "rank(B)=2" in lines
    assert "verdict=equality" in lines
    assert "X=" not in lines


def test_check_strict_exit_one():
    proc = run("check", STRICT, expect=1)
    assert "verdict=strict" in proc.stdout.decode().splitlines()


def test_certify_emits_verifying_pair(tmp_path):
    proc = run("certify", TIGHT, "--format", "json", expect=0)
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "equality"
    cert = tmp_path / "cert.json"
    cert.write_bytes(proc.stdout)
    check = run("verify", TIGHT, "--cert", str(cert), expect=0)
    assert check.stdout == b"verified=true\n"


def test_certify_strict_reports_witness():
    proc = run("certify", STRICT, "--format", "json", expect=1)
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "strict"
    assert doc["witness"]["data"] == [["0"], ["1"]]
    assert "certificate" not in doc


def test_certify_trace_flag():
    proc = run("certify", TIGHT, "--trace", expect=0)
    out = proc.stdout.decode()
    assert "trace.preimage_map=" in out
    assert "  [0 -1/2]" in out.splitlines()


def test_verify_rejects_wrong_pair(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "X": {"rows": 2, "cols": 3, "data": [["0", "0", "0"]] * 2},
                "Y": {"rows": 2, "cols": 3, "data": [["0", "0", "0"]] * 2},
            }
        )
    )
    proc = run("verify", TIGHT, "--cert", str(bad), expect=1)
    assert proc.stdout == b"verified=false\n"


def test_family_emits_verifying_pairs(tmp_path):
    proc = run("family", TIGHT, "--cert", TIGHT_CERT, "-n", "3", "--format", "json", expect=0)
    doc = json.loads(proc.stdout)
    assert doc["count"] == 3
    assert len(doc["pairs"]) == 3
    for pair in doc["pairs"]:
        cert = tmp_path / "pair.json"
        cert.write_text(json.dumps(pair))
        run("verify", TIGHT, "--cert", str(cert), expect=0)


def test_oracle_exit_codes():
    proc = run("oracle", STRICT, expect=1)
    assert proc.stdout == b"solvable=false\n"
    proc = run("oracle", STRICT, "--format", "json", expect=1)
    assert json.loads(proc.stdout) == {"solvable": False}


def test_gen_roundtrips_through_check(tmp_path):
    proc = run("gen", "--field", "GF(3)", "--dims", "2,2,2,2", "--seed", "5", expect=0)
    again = run("gen", "--field", "GF(3)", "--dims", "2,2,2,2", "--seed", "5", expect=0)
    assert proc.stdout == again.stdout
    inst = tmp_path / "inst.json"
    inst.write_bytes(proc.stdout)
    check = run("check", str(inst))
    assert check.returncode in (0, 1)


def test_input_errors_exit_two(tmp_path):
    run("check", str(tmp_path / "missing.json"), expect=2)
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "GF(6)"}')
    run("check", str(bad), expect=2)
    big = tmp_path / "big.json"
    proc = run("gen", "--field", "GF(3)", "--dims", "3,3,3,3", "--seed", "1", expect=0)
    big.write_bytes(proc.stdout)
    run("oracle", str(big), expect=2)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5)
    for args in (("check", str(deep)), ("verify", TIGHT, "--cert", str(deep))):
        proc = run(*args, expect=2)
        assert proc.stdout == b""
        assert proc.stderr == b"error: invalid JSON: nested too deeply\n"


def test_usage_error_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "frobrank", "unknown-verb"], capture_output=True,
        timeout=TIMEOUT,
    )
    assert proc.returncode == 2


def test_family_negative_count_exit_two():
    proc = run("family", TIGHT, "--cert", TIGHT_CERT, "-n", "-1", expect=2)
    assert proc.stdout == b""
    assert proc.stderr == b"error: pair count must be non-negative, got -1\n"


def test_family_without_slots_ends(tmp_path):
    # B has no rows, so BC has a kernel but X has no column and Y no row
    # to add it to: the family is empty and must not be searched for.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "field": "Q",
        "A": {"rows": 1, "cols": 0, "data": [[]]},
        "B": {"rows": 0, "cols": 2, "data": []},
        "C": {"rows": 2, "cols": 0, "data": [[], []]},
    }))
    cert = tmp_path / "cert.json"
    cert.write_bytes(run("certify", str(inst), "--format", "json", expect=0).stdout)
    proc = run("family", str(inst), "--cert", str(cert), "-n", "1", expect=0)
    assert proc.stdout == b"count=0\n"


def test_oracle_budget_names_the_power(tmp_path):
    # 101**2178 has more decimal digits than a string conversion allows,
    # so the message names the base and exponent, not the expanded power.
    inst = tmp_path / "inst.json"
    proc = run("gen", "--field", "GF(101)", "--dims", "33,33,33,33", "--seed", "1", expect=0)
    inst.write_bytes(proc.stdout)
    proc = run("oracle", str(inst), expect=2)
    assert proc.stdout == b""
    assert proc.stderr == b"error: 101**2178 candidate pairs exceed budget 1048576\n"


def test_boolean_shape_exit_two(tmp_path):
    doc = json.loads(Path(TIGHT).read_text())
    doc["A"]["rows"] = True
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps(doc))
    proc = run("check", str(bad), expect=2)
    assert proc.stderr == b"error: matrix A has invalid shape\n"


def test_digit_limit_exit_two(tmp_path):
    # Python 3.10.6 and earlier have no conversion limit and no getter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("integer string conversion is unlimited in this interpreter")
    doc = json.loads(Path(TIGHT).read_text())
    doc["B"]["data"][0][0] = "7" * (limit + 700)
    huge_in = tmp_path / "huge_in.json"
    huge_in.write_text(json.dumps(doc))
    proc = run("check", str(huge_in), expect=2)
    assert proc.stdout == b""
    assert proc.stderr == (
        f"error: matrix B entry (0,0): a scalar literal has an integer of more than "
        f"{limit} decimal digits, the most a document may hold\n"
    ).encode()
    # Certifying this triple computes X = C^-1, whose entry -1/c**2 is
    # past the limit although every input literal is within it.
    den = "1" + "0" * (limit * 3 // 4)
    doc = {
        "field": "Q",
        "A": {"rows": 1, "cols": 2, "data": [["0", "0"]]},
        "B": {"rows": 2, "cols": 2, "data": [["1", "0"], ["0", "1"]]},
        "C": {"rows": 2, "cols": 2, "data": [["1/" + den, "0"], ["1", "1/" + den]]},
    }
    huge_out = tmp_path / "huge_out.json"
    huge_out.write_text(json.dumps(doc))
    run("check", str(huge_out), expect=0)
    proc = run("certify", str(huge_out), "--format", "json", expect=2)
    assert proc.stdout == b""
    assert proc.stderr == (
        f"error: an output matrix has an integer of more than {limit} decimal digits, "
        "the most a document may hold\n"
    ).encode()


def test_import_loads_no_dataclasses_or_inspect():
    # Every invocation pays for what importing the CLI loads; the
    # dataclass machinery (and inspect, which it pulls in) is not needed.
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import frobrank.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = set(proc.stdout.decode().split())
    assert "frobrank.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_dimension_cap_exit_two(tmp_path):
    proc = run("gen", "--field", "GF(2)", "--dims", f"1,1,1,{MAX_DIM + 1}", "--seed", "1",
               expect=2)
    assert proc.stdout == b""
    assert f"cap of {MAX_DIM}".encode() in proc.stderr
    doc = json.loads(Path(TIGHT).read_text())
    doc["C"] = {"rows": 3, "cols": MAX_DIM + 1, "data": [["0"] * (MAX_DIM + 1)] * 3}
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    proc = run("check", str(wide), expect=2)
    assert proc.stderr == (
        f"error: matrix C is 3x{MAX_DIM + 1}, past the cap of {MAX_DIM} rows and columns\n"
    ).encode()
