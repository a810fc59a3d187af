"""Tests of the benchmark's own parts: generator, checker, percentiles
and tracer. Run with ``python3 -m pytest perfbench/test_bench.py``."""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import corpus
import run
from check import Bad, check


def _certify(inst: corpus.Instance, tmp_path, *extra: str) -> tuple[bytes, int]:
    path = tmp_path / f"{inst.name}.json"
    path.write_bytes(inst.document())
    proc = subprocess.run([sys.executable, "-m", "frobrank", "certify", str(path), "--format",
                           "json", *extra], capture_output=True, env=run.child_env(), timeout=60)
    return proc.stdout, proc.returncode


def _small(klass: str, modulus: int | None = None) -> corpus.Instance:
    dims, ranks = corpus.SMALL_SHAPES[klass][2]
    return corpus.make_instance("t", 12345, modulus, dims, ranks, klass)


def test_lcg_follows_the_documented_recurrence():
    lcg = corpus.Lcg(42)
    state = 42
    for n in (2, 7, 101, 1 << 30):
        state = (6364136223846793005 * state + 1442695040888963407) % (1 << 64)
        assert lcg.below(n) == (state >> 33) % n


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_and_covers_every_class(workload):
    first = corpus.build(workload, 7)
    again = corpus.build(workload, 7)
    assert [i.document() for i in first] == [i.document() for i in again]
    other = corpus.build(workload, 8)
    assert [i.document() for i in first] != [i.document() for i in other]
    assert set(Counter(i.klass for i in first)) == set(corpus.CLASSES)
    for inst in first:
        assert inst.tight == (inst.klass != "strict")
        ra, rb, rc = inst.ranks
        assert inst.profile == (rb, min(ra, rb), min(rb, rc), min(ra, rb, rc))
    # The seed changes entries only, not shapes.
    assert [(i.dims, i.ranks) for i in first] == [(i.dims, i.ranks) for i in other]


def test_generated_ranks_hold_over_gf2():
    inst = corpus.make_instance("g", 3, 2, (40,) * 4, corpus.intended_ranks("strict", 40, 0), "strict")
    p = 2
    assert corpus.rank_mod(inst.b, p) == inst.profile[0]
    assert corpus.rank_mod(corpus._mul(inst.a, inst.b, p), p) == inst.profile[1]
    assert corpus.rank_mod(corpus._mul(inst.b, inst.c, p), p) == inst.profile[2]


def test_every_family_operation_yields_pairs(tmp_path):
    instances = corpus.build("cli_small", run.DEFAULT_SEED)
    ops = [op for op in run.make_ops("cli_small", instances) if op.command == "family"]
    assert len(ops) == 20 and all(op.inst.klass == "deficient" for op in ops)
    jobs = []
    for op in ops:
        (tmp_path / f"{op.inst.name}.json").write_bytes(op.inst.document())
        jobs.append([["certify", f"{op.inst.name}.json", "--format", "json"], f"{op.inst.name}.cert"])
        jobs.append([["family", f"{op.inst.name}.json", "--cert", f"{op.inst.name}.cert",
                      "-n", "5", "--format", "json"], f"{op.inst.name}.family"])
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    subprocess.run([sys.executable, str(run.BENCH / "warmup.py"), "jobs.json"], cwd=tmp_path,
                   env=run.child_env(), check=True, timeout=120)
    for op in ops:
        out = (tmp_path / f"{op.inst.name}.family").read_bytes()
        assert json.loads(out)["count"] >= 1, op.id
        check("family", op.inst, out, b"", 0, (tmp_path / f"{op.inst.name}.cert").read_bytes())


def test_checker_rejects_an_empty_family(tmp_path):
    inst = _small("deficient")
    cert, _ = _certify(inst, tmp_path)
    with pytest.raises(Bad, match="empty"):
        check("family", inst, b'{"count": 0, "pairs": []}', b"", 0, cert)


def test_traced_run_counts_each_operation_once_in_byte_totals(tmp_path):
    inst = _small("deficient")
    for sub in ("in", "out", "spans"):
        (tmp_path / sub).mkdir()
    (tmp_path / "in" / "t.json").write_bytes(inst.document())
    ops = run.make_ops("q_certify", [inst])
    assert [op.command for op in ops] == ["certify", "verify"]
    runner = run.Runner(tmp_path, run.perf() + 120)
    plain, traced = runner.run_pass(ops, True, {})
    metrics = run.layer_metrics(runner, ops, [plain], [traced], 1.0)
    stdout = [(tmp_path / op.out).read_bytes() for op in ops]
    assert metrics["formats.output_bytes"][0] == sum(len(out) for out in stdout)
    assert metrics["formats.input_bytes"][0] == len(inst.document()) * 2 + len(stdout[0])


def test_checker_accepts_a_correct_certificate_and_rejects_corrupted_x_and_y(tmp_path):
    inst = _small("deficient")
    out, code = _certify(inst, tmp_path)
    check("certify", inst, out, b"", code)
    # X[i][0] + 1 adds column i of BC to the residual, and Y[0][j] + 1
    # adds row j of AB; pick ones that are nonzero.
    bc = corpus._mul(inst.b, inst.c, None)
    ab = corpus._mul(inst.a, inst.b, None)
    i = next(i for i in range(len(bc[0])) if any(row[i] for row in bc))
    j = next(j for j, row in enumerate(ab) if any(row))
    for name, r, c in (("X", i, 0), ("Y", 0, j)):
        bad = json.loads(out)
        cells = bad["certificate"][name]["data"]
        cells[r][c] = str(Fraction(cells[r][c]) + 1)
        with pytest.raises(Bad, match="does not satisfy"):
            check("certify", inst, json.dumps(bad).encode(), b"", code)


def test_checker_rejects_a_witness_outside_ker_a(tmp_path):
    inst = _small("strict", 5)
    out, code = _certify(inst, tmp_path)
    check("certify", inst, out, b"", code)
    rows = inst.dims[1]
    for j in range(rows):
        unit = [["1" if i == j else "0"] for i in range(rows)]
        if any(row[j] % 5 for row in inst.a):
            break
    else:
        pytest.fail("A has a zero column in every position")
    bad = json.loads(out)
    bad["witness"]["data"] = unit
    with pytest.raises(Bad, match="Ker"):
        check("certify", inst, json.dumps(bad).encode(), b"", code)
    bad["witness"]["data"] = [["0"] for _ in range(rows)]
    with pytest.raises(Bad, match="zero"):
        check("certify", inst, json.dumps(bad).encode(), b"", code)


def test_checker_rejects_wrong_exit_code_and_traceback(tmp_path):
    inst = _small("full", 3)
    out, code = _certify(inst, tmp_path)
    with pytest.raises(Bad, match="exit code"):
        check("certify", inst, out, b"", 1)
    with pytest.raises(Bad, match="traceback"):
        check("certify", inst, out, b"Traceback (most recent call last):", code)


def test_percentile_needs_ten_samples_beyond():
    assert run.beyond(90, 100) == run.MIN_BEYOND
    assert run.beyond(90, 99) < run.MIN_BEYOND
    assert run.beyond(50, 20) == run.MIN_BEYOND


def test_percentile_estimates_the_quantile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == pytest.approx(50.5, abs=0.01)
    assert run.percentile(values, 90) == pytest.approx(90.5, abs=0.01)
    assert run.percentile([7.0] * 11, 90) == pytest.approx(7.0)
    assert run.percentile(values[:11], 50) < run.percentile(values[:11], 90)
    with pytest.raises(ValueError):
        run.percentile([1.0, 2.0, 3.0], 90)


def test_tracer_keeps_stdout_and_counts_calls(tmp_path):
    inst = _small("deficient")
    path = tmp_path / "i.json"
    path.write_bytes(inst.document())
    argv = ["certify", str(path), "--format", "json"]
    plain = subprocess.run([sys.executable, "-m", "frobrank", *argv], capture_output=True,
                           env=run.child_env(), timeout=60)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(run.BENCH / "tracer.py"), str(spans_path), "op",
                             "--", *argv], capture_output=True, env=run.child_env(), timeout=60)
    assert traced.stdout == plain.stdout and traced.returncode == plain.returncode
    doc = json.loads(spans_path.read_text())
    calls = Counter(span[0] for span in doc["spans"])
    assert calls["cli.main"] == 1
    assert calls["analysis.rank_profile"] >= 1 and calls["linalg.rref"] >= 1
    for name, start, end, parent in doc["spans"]:
        assert start <= end
        if parent >= 0:
            p_start, p_end = doc["spans"][parent][1:3]
            assert p_start <= start and end <= p_end


def test_latency_is_the_median_over_the_passes_that_ran_the_operation():
    ops = run.make_ops("q_certify", [_small("full"), _small("strict")])
    assert len(ops) == 3

    def ex(op, seconds):
        return run.Execution(op, seconds, 0, 0, "", b"", None)

    passes = [[ex(op, s) for op, s in zip(ops, row)] for row in ([1.0, 2.0, 3.0], [3.0, 4.0, 5.0])]
    passes.append([ex(ops[0], 2.5)])  # a partial last pass
    assert run.typical_seconds(ops, passes) == [2.5, 3.0, 4.0]


def test_timings_scale_to_the_reference_probe_speed(tmp_path):
    assert run.speed_scale([run.REFERENCE_PROBE_S] * 3) == pytest.approx(1.0)
    # A run whose probe takes twice as long ran at half speed.
    assert run.speed_scale([2 * run.REFERENCE_PROBE_S] * 3) == pytest.approx(0.5)
    runner = run.Runner(tmp_path, run.perf() + 60)
    runner.run_probes(0.0)
    assert len(runner.probes) == 1  # at least one probe after any operation
    runner.run_probes(2.0)
    assert sum(runner.probes[1:]) >= run.PROBE_SHARE * 2.0
