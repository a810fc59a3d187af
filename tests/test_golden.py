"""Golden corpus: SHA-256 digests of CLI stdout on seeded triples.

``golden_digests.json`` lists 51 triples from ``random_instance`` over
Q, GF(2) and GF(5) with dimensions up to 6, about half of them shaped
with a bottleneck (m < n, q < p) so that strict and rank-deficient
cases occur. For each one it holds the digest of ``check --format
text``, ``certify --trace --format json`` and ``certify --trace
--format text`` stdout. For each tight one it also holds the digest of
``family -n 3 --format text`` stdout, with ``--cert`` given the
``certify --format json`` report. A refactor must leave every digest
unchanged.

The benchmark's recorded digests (``perfbench/digests.json``, seed 1)
are checked too, for the certify operations of ``q_certify`` and
``gf_certify_trace``: deficient triples with a nonzero X at sizes the
corpus above cannot reach, Q up to n = 28 and GF(p) up to n = 60.

``scope_digests.json`` pins ``check`` and ``certify --format json``
stdout at the top of the stated scope, where W_BC's pivot rows are a
proper subset of B's: Q 40x40x40x40 deficient and strict triples and a
GF(101) 50x50x50x50 deficient one, each built as perfbench/corpus.py
builds a square class member with seed 11 and the class's second shape.
"""

import hashlib
import importlib
import json
from pathlib import Path

from frobrank import emit_instance, parse_field_tag, random_instance
from frobrank.cli import main

DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
SCOPE = Path(__file__).resolve().parent / "scope_digests.json"
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _stdout(capsysbinary, argv):
    code = main(argv)
    return code, capsysbinary.readouterr().out


def test_golden_digests(tmp_path, capsysbinary):
    entries = json.loads(DIGESTS.read_text())
    assert len(entries) >= 50
    path = tmp_path / "instance.json"
    cert = tmp_path / "cert.json"
    verdicts = set()
    families = set()
    mismatches = []

    def expect(entry, key, out):
        if hashlib.sha256(out).hexdigest() != entry[key]:
            mismatches.append((entry["seed"], key))

    for entry in entries:
        field = parse_field_tag(entry["field"])
        triple = random_instance(field, tuple(entry["dims"]), entry["seed"])
        path.write_bytes(emit_instance(field, *triple))
        check_code, check_out = _stdout(capsysbinary, ["check", str(path), "--format", "text"])
        cert_code, cert_out = _stdout(
            capsysbinary, ["certify", str(path), "--trace", "--format", "json"]
        )
        text_code, text_out = _stdout(
            capsysbinary, ["certify", str(path), "--trace", "--format", "text"]
        )
        assert check_code == cert_code == text_code and check_code in (0, 1)
        verdicts.add("equality" if check_code == 0 else "strict")
        if entry["verdict"] != ("equality" if check_code == 0 else "strict"):
            mismatches.append((entry["seed"], "verdict"))
        expect(entry, "check_text_sha256", check_out)
        expect(entry, "certify_trace_json_sha256", cert_out)
        expect(entry, "certify_trace_text_sha256", text_out)
        if check_code == 0:
            cert.write_bytes(_stdout(capsysbinary, ["certify", str(path), "--format", "json"])[1])
            family_code, family_out = _stdout(
                capsysbinary,
                ["family", str(path), "--cert", str(cert), "-n", "3", "--format", "text"],
            )
            assert family_code == 0
            families.add(not family_out.startswith(b"count=0\n"))
            expect(entry, "family_text_sha256", family_out)
    assert verdicts == {"equality", "strict"}
    assert families == {True, False}
    assert sum("family_text_sha256" in entry for entry in entries) == 32
    assert mismatches == []


def test_benchmark_certify_digests(monkeypatch, tmp_path, capsysbinary):
    # Each certify operation as the benchmark runs it, with --trace on
    # gf_certify_trace, on the instances perfbench/corpus.py builds.
    monkeypatch.syspath_prepend(str(BENCH))
    corpus = importlib.import_module("corpus")
    recorded = json.loads((BENCH / "digests.json").read_text())
    mismatches, classes = [], set()
    for workload, extra in (("q_certify", []), ("gf_certify_trace", ["--trace"])):
        for inst in corpus.build(workload, 1):
            path = tmp_path / f"{inst.name}.json"
            path.write_bytes(inst.document())
            code, out = _stdout(capsysbinary, ["certify", str(path), "--format", "json", *extra])
            assert code == (0 if inst.tight else 1), inst.name
            if hashlib.sha256(out).hexdigest() != recorded[workload][f"{inst.name}.certify"]:
                mismatches.append(inst.name)
            classes.add((inst.field_tag == "Q", inst.klass))
    assert len(classes) == 6
    assert mismatches == []


def test_scope_top_digests(monkeypatch, tmp_path, capsysbinary):
    monkeypatch.syspath_prepend(str(BENCH))
    corpus = importlib.import_module("corpus")
    recorded = json.loads(SCOPE.read_text())
    instances = (("q40_deficient", None, 40, "deficient", 0), ("q40_strict", None, 40, "strict", 1),
                 ("gf101_50_deficient", 101, 50, "deficient", 0))
    digests = {}
    for name, modulus, n, klass, code in instances:
        ranks = corpus.intended_ranks(klass, n, 1)
        inst = corpus.make_instance(name, 11, modulus, (n,) * 4, ranks, klass)
        path = tmp_path / f"{name}.json"
        path.write_bytes(inst.document())
        for verb in ("check", "certify"):
            got, out = _stdout(capsysbinary, [verb, str(path), "--format", "json"])
            assert got == code, (name, verb)
            digests[f"{name}.{verb}"] = hashlib.sha256(out).hexdigest()
    assert digests == recorded
