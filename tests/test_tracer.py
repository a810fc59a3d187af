"""The benchmark's traced mode runs frobrank through perfbench/tracer.py,
which wraps the library's functions in place before calling ``cli.main``.
A change to ``src/`` that breaks the tracer breaks ``run.py --trace 1``
without failing any other test, so these run it as the benchmark does."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
FIXTURES = ROOT / "fixtures"


@pytest.mark.parametrize("argv", [
    ["certify", "--trace", "--format", "json", str(FIXTURES / "tight_rational.json")],
    ["check", str(FIXTURES / "strict_gf2.json")],
], ids=["certify-trace", "check"])
def test_tracer_keeps_stdout_and_exit_code(argv, tmp_path):
    plain = subprocess.run([sys.executable, "-m", "frobrank", *argv],
                           capture_output=True, timeout=60)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(TRACER), str(spans), "op", "--", *argv],
                            capture_output=True, timeout=60)
    assert traced.returncode == plain.returncode, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    assert plain.stdout
    doc = json.loads(spans.read_text())
    assert doc["code"] == plain.returncode
    assert any(span[0] == "cli.main" for span in doc["spans"])
