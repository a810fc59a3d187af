import argparse
import contextlib
import errno
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import frobrank
from frobrank import cli
from frobrank.formats import emit_instance, parse_instance
from frobrank.matrix import MAX_DIM
from frobrank.oracle import DEFAULT_BUDGET

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TIGHT = str(FIXTURES / "tight_rational.json")
TIGHT_CERT = str(FIXTURES / "tight_rational_cert.json")
STRICT = str(FIXTURES / "strict_gf2.json")
SRC = Path(__file__).resolve().parent.parent / "src"
# Seconds a command may take before it counts as a hang and fails its test.
TIMEOUT = 60


def stdout_env(unbuffered):
    # With PYTHONUNBUFFERED set, sys.stdout.buffer is the raw file, whose
    # write may take only part of the bytes; without it, a BufferedWriter.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


# Runs a subprocess test in both stdout modes, whatever the caller set.
stdout_modes = pytest.mark.parametrize("unbuffered", [True, False],
                                       ids=["unbuffered", "buffered"])


def run(*args, expect=None, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "frobrank", *args], capture_output=True, timeout=TIMEOUT,
        env=env,
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


@stdout_modes
def test_certify_trace_flag(unbuffered):
    proc = run("certify", TIGHT, "--trace", expect=0, env=stdout_env(unbuffered))
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


def _oracle_dims(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("dims must be m,n,p,q")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _oracle_parser():
    # The argparse specification that the table in cli replaced, without
    # its help texts, kept as the reference its parser must agree with.
    parser = argparse.ArgumentParser(prog="frobrank")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("check", "certify", "verify", "family", "oracle"):
        p = sub.add_parser(verb)
        p.add_argument("instance")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if verb == "certify":
            p.add_argument("--trace", action="store_true")
        if verb in ("verify", "family"):
            p.add_argument("--cert", required=True)
        if verb == "family":
            p.add_argument("-n", "--count", type=int, required=True)
        if verb == "oracle":
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p = sub.add_parser("gen")
    p.add_argument("--field", required=True)
    p.add_argument("--dims", type=_oracle_dims, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--numerator-bound", type=int, default=3)
    p.add_argument("--denominator-bound", type=int, default=2)
    return parser


GEN = ["gen", "--field", "GF(5)", "--dims", "2,3,3,2", "--seed", "42"]
VALID_ARGV = [
    ["check", TIGHT],
    ["check", "--format", "json", TIGHT],
    ["check", TIGHT, "--format=json"],
    ["check", TIGHT, "--form", "json"],
    ["certify", "--trace", TIGHT, "--format", "text"],
    ["certify", TIGHT, "--tr"],
    ["verify", "--cert", TIGHT_CERT, TIGHT],
    ["verify", TIGHT, f"--cert={TIGHT_CERT}", "--format", "json"],
    ["family", TIGHT, "--cert", TIGHT_CERT, "-n5"],
    ["family", TIGHT, "--cert", TIGHT_CERT, "-n", "5"],
    ["family", "--count", "5", "--cert", TIGHT_CERT, TIGHT, "--format", "json"],
    ["family", TIGHT, "--cert", TIGHT_CERT, "-n", "-1"],
    ["oracle", TIGHT, "--budget", "10"],
    ["oracle", "--budget=10", TIGHT],
    GEN,
    GEN + ["--numerator-bound", "7", "--denominator-bound", "4"],
    ["gen", "--seed", "-3", "--dims=1,2,3,4", "--field", "Q", "--num", "9"],
    ["check", "--", TIGHT],
    ["check", "--format", "json", "--", "-x.json"],
    ["check", ""],
    ["verify", TIGHT, "--cert", ""],
]
INVALID_ARGV = [
    [],
    ["unknown-verb"],
    ["check"],
    ["verify", TIGHT],
    ["family", TIGHT, "-n", "1"],
    ["check", TIGHT, "--format", "xml"],
    ["gen", "--field", "Q", "--dims", "1,1,1", "--seed", "1"],
    ["gen", "--field", "Q", "--dims", "1,x,1,1", "--seed", "1"],
    ["family", TIGHT, "--cert", TIGHT_CERT, "-n", "x"],
    GEN + ["--format", "json"],
    ["check", TIGHT, "extra"],
    ["family", TIGHT, "--c", TIGHT_CERT, "-n", "1"],
    ["check", TIGHT, "--format"],
    ["check", "--format", "-x", TIGHT],
    ["certify", TIGHT, "--trace=1"],
    ["oracle", TIGHT, "--budget", "1.5"],
    ["check", "--", TIGHT, "--format", "json"],
]


def _argv_id(argv):
    return " ".join(argv).replace(f"{FIXTURES}{os.sep}", "") or "no arguments"


@pytest.mark.parametrize("argv", VALID_ARGV, ids=_argv_id)
def test_parser_matches_argparse(argv):
    expected = vars(_oracle_parser().parse_args(argv))
    assert vars(cli.parse_args(argv)) == expected


@pytest.mark.parametrize("argv", INVALID_ARGV, ids=_argv_id)
def test_parser_refuses_what_argparse_refuses(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        _oracle_parser().parse_args(argv)
    assert refused.value.code == 2
    old = capsys.readouterr()
    assert old.out == "" and old.err.startswith("usage: frobrank")
    assert cli.main(argv) == 2
    new = capsys.readouterr()
    assert new.out == ""
    assert new.err.startswith("usage: frobrank")
    assert re.search(r"^frobrank: error: \S", new.err, re.M)


def test_parser_agrees_with_argparse_on_seeded_argv():
    # Seeded argv over the options' spellings, values and mistakes. Help
    # is left out: argparse reports an ambiguous option anywhere before
    # it acts on -h, where the table's parser acts on the first one met.
    tokens = ["x.json", "-", "--", "-1", "-2.5", "5", "", "--format", "--format=json", "json",
              "--form", "--f", "--trace", "--tr", "--trace=1", "--cert", "--cert=c", "--c",
              "--co", "-n", "-n5", "-n=3", "--count", "--budget", "--b", "--budget=7", "--field",
              "Q", "--dims", "1,2,3,4", "1,2", "--seed", "--se", "--num", "--n", "--d",
              "--denominator-bound=4", "-x", "--bogus", "-nx", "a b"]
    rng = random.Random(1)
    parser = _oracle_parser()
    for _ in range(2000):
        argv = [rng.choice(list(cli.VERBS))] + rng.choices(tokens, k=rng.randint(0, 6))
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = vars(parser.parse_args(argv))
            except SystemExit as exc:
                expected = exc.code
        try:
            got = vars(cli.parse_args(argv))
        except cli._Stop as stop:
            got = 2 if stop.args[1] else 0
        assert got == expected, argv


@pytest.mark.parametrize("argv, usage, names", [
    (["-h"], "usage: frobrank [-h] {check,", tuple(cli.VERBS)),
    (["--help"], "usage: frobrank [-h] {check,", tuple(cli.VERBS)),
    (["certify", "-h"], "usage: frobrank certify [-h] [--trace]", ("--trace", "--format FORMAT")),
    (["family", "--help"], "usage: frobrank family [-h] --cert CERT", ("-n, --count COUNT",)),
], ids=["-h", "--help", "certify -h", "family --help"])
def test_help_exits_zero_on_stdout(argv, usage, names, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(usage)
    assert all(name in out for name in names)


def test_usage_error_names_the_problem(capsys):
    assert cli.main(["gen", "--field", "Q", "--dims", "1,1,1", "--seed", "1"]) == 2
    assert capsys.readouterr().err.endswith(
        "\nfrobrank: error: argument --dims: dims must be m,n,p,q\n")
    assert cli.main(["verify", TIGHT]) == 2
    assert capsys.readouterr().err == (
        "usage: frobrank verify [-h] --cert CERT [--format FORMAT] instance\n"
        "frobrank: error: the following arguments are required: --cert\n")
    assert cli.main(["check", TIGHT, "extra"]) == 2
    assert capsys.readouterr().err.endswith(
        "frobrank: error: unrecognized arguments: extra\n")


@stdout_modes
def test_piped_stdout_equals_in_process(tmp_path, capsysbinary, unbuffered):
    # The largest report in reach, more than a pipe buffer holds, goes
    # through a pipe from a process that ends without interpreter
    # teardown; every byte must still arrive.
    inst = tmp_path / "inst.json"
    gen = run("gen", "--field", "GF(101)", "--dims", "33,33,33,33", "--seed", "1", expect=0)
    inst.write_bytes(gen.stdout)
    argv = ["certify", str(inst), "--trace", "--format", "json"]
    assert cli.main(argv) == 0
    expected = capsysbinary.readouterr().out
    proc = run(*argv, expect=0, env=stdout_env(unbuffered))
    assert proc.stdout == expected
    assert len(expected) > 65536 and proc.stderr == b""


@stdout_modes
def test_exit_codes_through_the_command(tmp_path, unbuffered):
    env = stdout_env(unbuffered)
    assert run("check", TIGHT, expect=0, env=env).stderr == b""
    assert run("check", STRICT, expect=1, env=env).stderr == b""
    proc = run("check", str(tmp_path / "missing.json"), expect=2, env=env)
    assert proc.stdout == b""
    assert proc.stderr == (
        f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing.json'}'\n"
    ).encode()
    proc = run("check", TIGHT, "--format", "xml", expect=2, env=env)
    assert proc.stdout == b""
    assert proc.stderr == (
        b"usage: frobrank check [-h] [--format FORMAT] instance\n"
        b"frobrank: error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')\n"
    )


def test_help_through_the_command_is_flushed(capsys):
    # Help goes out by the same write and flush as any output; the
    # command then ends without interpreter teardown, which would flush
    # nothing left in a buffer.
    assert cli.main(["certify", "-h"]) == 0
    expected = capsys.readouterr().out.encode()
    proc = run("certify", "-h", env=stdout_env(False))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


def test_partial_writes_deliver_the_whole_document(monkeypatch, capsysbinary):
    # A raw stdout may take only part of each write; every byte must
    # still go out, in order.
    argv = ["certify", TIGHT, "--trace", "--format", "json"]
    assert cli.main(argv) == 0
    expected = capsysbinary.readouterr().out

    class Trickle(io.RawIOBase):
        def __init__(self):
            self.taken = bytearray()

        def writable(self):
            return True

        def write(self, data):
            self.taken += data[:5]
            return min(len(data), 5)

    trickle = Trickle()
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=trickle))
    assert cli.main(argv) == 0
    assert bytes(trickle.taken) == expected and len(expected) > 1000


@stdout_modes
def test_reader_that_closes_early_gets_exit_two(unbuffered):
    # More than a pipe buffer holds: the writer is still writing when the
    # reader closes, and the next write fails with a broken pipe.
    argv = ["gen", "--field", "GF(101)", "--dims", "60,60,60,60", "--seed", "1"]
    with subprocess.Popen([sys.executable, "-m", "frobrank", *argv], env=stdout_env(unbuffered),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=TIMEOUT) == 2
    assert stderr == b"error: [Errno 32] Broken pipe\n"


def run_closed(fd, *args, env=None):
    # The shell closes stdout (fd 1) or stderr (fd 2) before the
    # interpreter starts, which then sets that stream to None.
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m frobrank "$@" {fd}>&-', sys.executable, *args],
        capture_output=True, timeout=TIMEOUT, env=env,
    )


@stdout_modes
@pytest.mark.parametrize("argv", [
    ["check", TIGHT], ["-h"], ["gen", "--field", "Q", "--dims", "2,2,2,2", "--seed", "1"],
], ids=["check", "-h", "gen"])
def test_closed_stdout_exits_two(argv, unbuffered):
    # Not the verdict code of a command whose output was lost.
    proc = run_closed(1, *argv, env=stdout_env(unbuffered))
    assert proc.returncode == 2
    assert proc.stderr == f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n".encode()


@stdout_modes
def test_closed_stderr_keeps_the_exit_code(tmp_path, unbuffered):
    env = stdout_env(unbuffered)
    proc = run_closed(2, "check", str(tmp_path / "missing.json"), env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"")
    proc = run_closed(2, "check", TIGHT, env=env)
    assert proc.returncode == 0
    assert proc.stdout == run("check", TIGHT, expect=0, env=env).stdout


def test_unwritable_streams_in_process(monkeypatch, capsys):
    # main returns 2, not an AttributeError, for a stream sys holds as
    # None or one without a byte layer; an error line it cannot write
    # leaves the code as it was.
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["check", TIGHT]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert cli.main(["-h"]) == 2
    assert cli.main(["check", TIGHT, "--format", "xml"]) == 2
    assert sys.stderr.getvalue() == ""


def test_internal_disagreement_exits_three_through_run():
    # As tests/test_analysis.py::test_wrong_factor_test_exits_three does,
    # test 4's square solve is made to return a Z that W_BC @ Z misses W_B
    # with; B has full row rank, so its span tests run on all rows.
    probe = (
        "import sys\n"
        "from frobrank import analysis, cli, linalg\n"
        "from frobrank.formats import parse_instance\n"
        "path = sys.argv[1]\n"
        "with open(path, 'rb') as fh:\n"
        "    a, b, c = parse_instance(fh.read())\n"
        "ref = analysis.analyze(a, b, c)\n"
        "rows = linalg.echelon(ref.w_bc).pivot_rows\n"
        "square = (ref.w_bc.take_rows(rows), ref.w_b.take_rows(rows))\n"
        "def wrong_solve(n, m):\n"
        "    z = linalg.solve_right(n, m)\n"
        "    if (n, m) != square:\n"
        "        return z\n"
        "    return type(z)(z.field, [[x + 1 for x in r] for r in z.entries], shape=z.shape)\n"
        "analysis.solve_right = wrong_solve\n"
        "sys.argv = ['frobrank', 'certify', path]\n"
        "cli.run()\n"
        "print('run returned')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, TIGHT], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=TIMEOUT,
    )
    assert proc.returncode == 3, proc.stderr.decode()
    assert proc.stdout == b""
    # The message, then the instance document that replays the case.
    with open(TIGHT, "rb") as fh:
        replay = emit_instance(*parse_instance(fh.read()))
    assert proc.stderr == (
        b"error: tightness tests disagree: gap_zero=True, quotient_block_invertible=True, "
        b"kernel_intersections_equal=True, intersection_factor_exists=False\n" + replay
    )


def test_exception_from_main_keeps_its_traceback():
    probe = (
        "import frobrank.cli as cli\n"
        "def broken(argv=None):\n"
        "    raise RuntimeError('escaped main')\n"
        "cli.main = broken\n"
        "cli.run()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=TIMEOUT,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"Traceback")
    assert proc.stderr.endswith(b"RuntimeError: escaped main\n")


def test_command_imports_no_argparse():
    probe = (
        "import sys\n"
        "from frobrank.cli import main\n"
        f"code = main(['check', {TIGHT!r}])\n"
        "print(code, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "0"


def test_record_annotations_are_evaluated():
    # A string annotation makes typing.NamedTuple compile a ForwardRef
    # for the field on every import. Every exported record is checked.
    exported = [getattr(frobrank, name) for name in frobrank.__all__]
    records = [obj for obj in exported
               if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")]
    assert {record.__name__ for record in records} >= {
        "RankProfile", "CriteriaReport", "Analysis", "Echelon",
        "ConstructionTrace", "EqualityCertificate",
    }
    for record in records:
        assert record.__annotations__
        assert not [t for t in record.__annotations__.values() if isinstance(t, str)], record


def test_script_entry_point_is_callable():
    text = (SRC.parent / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\nfrobrank = "([\w.]+):(\w+)"$', text, re.M)
    assert target and target.groups() == ("frobrank.cli", "run")
    assert callable(getattr(importlib.import_module(target[1]), target[2]))
