"""Outside-in benchmark of the frobrank command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload q_certify --seed 1 --seconds 38 --trace 0

Every operation is a fresh ``python -m frobrank ...`` subprocess, run in
a closed loop by one client with no threads, on inputs generated from
the seed. A pass runs every operation of the workload once; passes
repeat for about ``--seconds`` seconds. Each output is checked with
independent exact arithmetic outside the timed region. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported. Timings are scaled to a reference machine speed, measured by
a fixed probe kernel between operations (see ``speed_scale``). The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import corpus
from check import Bad, check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
WORKLOADS = ("q_certify", "gf_certify_trace", "cli_small")
DEFAULT_SEED = 1
# Set-ups per run: two before each pass, and at least SETUP_REPEATS.
SETUPS_PER_PASS = 2
SETUP_REPEATS = 5
# A run never outlives this, however slow or hung the program is.
RUN_LIMIT_S = 170.0
# A percentile is supported by at least this many samples beyond it.
MIN_BEYOND = 10
# After each operation the speed probe runs for this share of the
# operation's time, at least once.
PROBE_SHARE = 0.02
# The probe's time at the reference speed: about its median on the
# machine the benchmark was written on (a 2-core Intel Xeon VM).
REFERENCE_PROBE_S = 0.005

perf = time.perf_counter


@dataclass(frozen=True)
class Op:
    id: str
    command: str
    inst: corpus.Instance
    argv: tuple[str, ...]
    cert: str | None = None

    @property
    def out(self) -> str:
        return f"out/{self.id}.json"


@dataclass
class Execution:
    op: Op
    seconds: float
    code: int
    rss_kb: int
    out: str
    err: bytes
    cert: str | None


class RunAborted(Exception):
    """The run cannot go on: an operation overran the time limit, or a
    traced command wrote no spans."""


def beyond(percent: int, n: int) -> int:
    """How many of n samples lie above the nearest-rank percentile."""
    return n - max(1, -(-percent * n // 100))


def percentile(values: list[float], percent: int) -> float:
    """Harrell–Davis estimate of a percentile.

    A weighted mean of all order statistics, the i-th weighted by the
    Beta(p(n+1), (1-p)(n+1)) probability of ((i-1)/n, i/n]. Unlike a
    single order statistic it moves smoothly when noise reorders the
    samples near the percentile. The percentile is supported when at
    least MIN_BEYOND samples lie beyond it, so p90 needs 100 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    a = percent / 100 * (n + 1)
    b = n + 1 - a
    if a <= 1 or b <= 1:
        raise ValueError(f"{n} samples are too few for a p{percent} estimate")
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if not 0 < t < 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)

    panels = 64  # Simpson panels per sample
    h = 1 / (n * panels)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, panels))
        weights.append((density(lo) + inner + density(lo + panels * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def probe() -> float:
    """Seconds a fixed pure-Python kernel takes now: Fraction elimination
    of a 7 x 7 matrix and an integer loop, about 5 ms. It runs in this
    process between operations, never during one, and uses no frobrank
    code."""
    start = perf()
    n = 7
    m = [[Fraction((i * 31 + j * 17) % 11 - 5, 1 + (i + j) % 3) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    acc = 0
    for i in range(40000):
        acc += i * i % 101
    return perf() - start


def make_ops(workload: str, instances: list[corpus.Instance]) -> list[Op]:
    ops = []
    if workload in ("q_certify", "gf_certify_trace"):
        with_trace = workload == "gf_certify_trace"
        for inst in instances:
            argv = ("certify", f"in/{inst.name}.json", "--format", "json")
            certify = Op(f"{inst.name}.certify", "certify", inst,
                         argv + (("--trace",) if with_trace else ()))
            ops.append(certify)
            if inst.tight:
                ops.append(Op(f"{inst.name}.verify", "verify", inst,
                              ("verify", f"in/{inst.name}.json", "--cert", certify.out,
                               "--format", "json"), cert=certify.out))
        return ops
    for slot, inst in enumerate(instances):
        command = corpus.cli_slot(slot)[0]
        path = f"in/{inst.name}.json"
        cert = f"certs/{inst.name}.json"
        argv = {
            "check": ("check", path),
            "certify": ("certify", path, "--trace"),
            "verify": ("verify", path, "--cert", cert),
            "family": ("family", path, "--cert", cert, "-n", "5"),
            "oracle": ("oracle", path),
        }[command] + ("--format", "json")
        ops.append(Op(f"{inst.name}.{command}", command, inst, argv,
                      cert=cert if command in ("verify", "family") else None))
    return ops


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONSTARTUP"):
        env.pop(key, None)
    return env


def set_up(workload: str, seed: int, work: Path, deadline: float) -> tuple[list[Op], float]:
    """Generate the corpus, write it, and warm up; returns the operations
    and the seconds this took. Starts from a cold bytecode cache."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(SRC / "frobrank" / "__pycache__", ignore_errors=True)
    start = perf()
    instances = corpus.build(workload, seed)
    for sub in ("in", "out", "certs", "spans"):
        (work / sub).mkdir(parents=True)
    for inst in instances:
        (work / "in" / f"{inst.name}.json").write_bytes(inst.document())
    ops = make_ops(workload, instances)
    # Commands needing a certificate read one made here; otherwise the
    # warm-up checks the first instance.
    jobs = [[["certify", f"in/{op.inst.name}.json", "--format", "json"], op.cert]
            for op in ops if op.cert and op.cert.startswith("certs/")]
    jobs = jobs or [[["check", f"in/{instances[0].name}.json"], "out/warmup.txt"]]
    (work / "warmup.json").write_text(json.dumps(jobs))
    with open(work / "warmup.err", "wb+") as err:
        _, code, _ = run_child([sys.executable, str(BENCH / "warmup.py"), "warmup.json"], work,
                               child_env(), deadline, subprocess.DEVNULL, err)
        if code != 0:
            err.seek(0)
            raise SystemExit(f"warm-up failed with exit {code}: "
                             f"{err.read().decode(errors='replace')[-2000:]}")
    return ops, perf() - start


def _alarm(signum, frame):
    raise RunAborted("a process overran the run's time limit")


def run_child(argv: list[str], cwd: Path, env: dict[str, str], deadline: float, stdout,
              stderr) -> tuple[float, int, os.struct_rusage]:
    """Run one process to its end; returns its wall time, exit code and
    resource usage. ``os.wait4`` returns as soon as the child exits
    (``Popen.wait`` with a timeout polls, which adds up to 50 ms), and a
    timer, handled by ``_alarm``, kills the child at ``deadline``."""
    remaining = deadline - perf()
    if remaining <= 0:
        raise RunAborted("run time limit reached")
    start = perf()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=stdout,
                            stderr=stderr)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except RunAborted:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return perf() - start, os.waitstatus_to_exitcode(status), usage


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.env = child_env()
        self.deadline = deadline
        self.outputs: dict[str, bytes] = {}
        self.executions: list[Execution] = []
        self.spans: list[dict] = []
        self.probes: list[float] = []

    def run_probes(self, seconds: float) -> None:
        """Probe the machine's speed after an operation of ``seconds``."""
        spent = 0.0
        while spent == 0.0 or spent < PROBE_SHARE * seconds:
            self.probes.append(probe())
            spent += self.probes[-1]

    def store(self, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        self.outputs.setdefault(digest, data)
        return digest

    def run_op(self, op: Op, traced: bool, latest: dict[str, str]) -> Execution:
        if traced:
            spans = f"spans/{op.id}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), spans, op.id, "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "frobrank", *op.argv]
        out_path = self.work / op.out
        with open(out_path, "wb") as out, open(self.work / "stderr.txt", "wb+") as err:
            seconds, code, usage = run_child(argv, self.work, self.env, self.deadline, out, err)
            err.seek(0)
            err_bytes = err.read()
        self.run_probes(seconds)
        digest = latest[op.out] = self.store(out_path.read_bytes())
        ex = Execution(op, seconds, code, usage.ru_maxrss, digest, err_bytes,
                       latest.get(op.cert) if op.cert else None)
        self.executions.append(ex)
        if traced:
            try:
                doc = json.loads((self.work / spans).read_text())
            except (OSError, json.JSONDecodeError):
                raise RunAborted(f"{op.id}: the traced command wrote no spans") from None
            doc["wall_s"] = seconds
            self.spans.append(doc)
        return ex

    def run_pass(self, ops: list[Op], trace: bool, latest: dict[str, str],
                 stop: float = math.inf) -> tuple[list[Execution], list[Execution]]:
        """One untraced pass and, with ``trace``, one traced pass. The two
        executions of an operation run back to back, so the machine's
        speed changes little between them. No operation starts after
        ``stop``, so the last pass of a run may be partial."""
        plain, traced = [], []
        for op in ops:
            if perf() >= stop:
                break
            plain.append(self.run_op(op, False, latest))
            if trace:
                traced.append(self.run_op(op, True, latest))
        return plain, traced


def recorded_digests(workload: str, seed: int) -> dict[str, str]:
    """Expected stdout digest per operation; recorded for the default seed."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(DIGESTS.read_text())[workload]


def failures(runner: Runner, recorded: dict[str, str]) -> tuple[int, list[str]]:
    """Check every execution; returns the failed count and messages."""
    digests = defaultdict(set)
    for ex in runner.executions:
        digests[ex.op.id].add(ex.out)
    verdicts: dict[tuple, str | None] = {}
    failed, messages = 0, []
    for ex in runner.executions:
        key = (ex.op.id, ex.out, ex.code, ex.err, ex.cert)
        if key not in verdicts:
            problem = None
            if len(digests[ex.op.id]) > 1:
                problem = "stdout differs between executions"
            elif recorded and recorded.get(ex.op.id) != ex.out:
                problem = "stdout digest differs from the recorded one"
            else:
                try:
                    check(ex.op.command, ex.op.inst, runner.outputs[ex.out], ex.err, ex.code,
                          runner.outputs.get(ex.cert), "--trace" in ex.op.argv)
                except Bad as exc:
                    problem = str(exc)
                except Exception as exc:  # malformed output the checks did not foresee
                    problem = f"unreadable output: {exc!r}"
            verdicts[key] = problem
            if problem:
                messages.append(f"{ex.op.id}: {problem}")
        failed += verdicts[key] is not None
    return failed, messages


def _self_times(doc: dict) -> dict[str, float]:
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), inner in zip(spans, child):
        out[name] += end - start - inner
    return out


def layer_metrics(runner: Runner, ops: list[Op], passes: list[list[Execution]],
                  traced: list[list[Execution]], scale: float) -> dict:
    by_pass: list[dict] = []
    per_pass = len(ops)
    startup_ms = []
    # Only whole traced passes; the last one of a run may be partial.
    for i in range(0, len(runner.spans) - per_pass + 1, per_pass):
        calls, selfs, counters = Counter(), defaultdict(float), Counter()
        bits = Counter()
        for doc in runner.spans[i:i + per_pass]:
            for name, value in _self_times(doc).items():
                selfs[name] += value
            calls.update(span[0] for span in doc["spans"])
            for name, value in doc["counters"].items():
                if name.endswith("max_entry_bits"):
                    bits[name] = max(bits[name], value)
                else:
                    counters[name] += value
            startup_ms.append(1000 * scale * (doc["wall_s"] - doc["main_s"] - doc["own_s"]))
        by_pass.append({"calls": calls, "self": selfs, "counters": counters + bits})
    first = by_pass[0]

    def self_s(*names: str, prefix: str = "") -> float:
        return scale * statistics.median(
            sum(v for k, v in p["self"].items() if k in names or (prefix and k.startswith(prefix)))
            for p in by_pass)

    # One execution per operation; traced and untraced stdout are the same.
    in_bytes = sum((runner.work / op.argv[1]).stat().st_size for op in ops)
    in_bytes += sum(len(runner.outputs[ex.cert]) for ex in passes[0] if ex.cert)
    out_bytes = sum(len(runner.outputs[ex.out]) for ex in passes[0])
    metric = {
        "cli.startup_ms": (statistics.median(startup_ms), "ms"),
        "formats.parse_instance.self_s": (self_s("formats.parse_instance"), "s"),
        "formats.parse_certificate.self_s": (self_s("formats.parse_certificate"), "s"),
        "formats.emit_report.self_s": (self_s("formats.emit_report"), "s"),
        "formats.input_bytes": (in_bytes, "bytes"),
        "formats.output_bytes": (out_bytes, "bytes"),
        "analysis.self_s": (self_s(prefix="analysis."), "s"),
        "certificate.construct_certificate.self_s": (self_s("certificate.construct_certificate"), "s"),
        "certificate.verify_certificate.self_s": (self_s("certificate.verify_certificate"), "s"),
        "certificate.solution_family.self_s": (self_s("certificate.solution_family"), "s"),
        "linalg.rref.self_s": (self_s("linalg.rref"), "s"),
        "linalg.rref.cells": (first["counters"]["linalg.rref.cells"], "count"),
        "linalg.rref.cache_hits": (first["counters"]["linalg.rref.cache_hits"], "count"),
        "linalg.rref.max_entry_bits": (first["counters"]["linalg.rref.max_entry_bits"], "bits"),
        "matrix.matmul.self_s": (self_s("matrix.matmul"), "s"),
        "matrix.matmul.mults": (first["counters"]["matrix.matmul.mults"], "count"),
        "matrix.matmul.max_entry_bits": (first["counters"]["matrix.matmul.max_entry_bits"], "bits"),
        "oracle.brute_force_solvable.self_s": (self_s("oracle.brute_force_solvable"), "s"),
        "oracle.candidates": (first["counters"]["oracle.candidates"], "count"),
        "trace.overhead_ratio": (sum(ex.seconds for p in traced for ex in p)
                                 / sum(ex.seconds for p in passes for ex in p), "ratio"),
    }
    for name in CALL_COUNTS:
        metric[f"{name}.calls"] = (first["calls"][name], "count")
    return metric


CALL_COUNTS = (
    "analysis.rank_profile", "analysis.equality_criteria", "analysis.quotient_map_matrix",
    "analysis.intersection_basis", "certificate.verify_certificate", "linalg.rref",
    "linalg.solve_right", "linalg.extend_basis", "matrix.matmul", "oracle.brute_force_solvable",
)


def speed_scale(probes: list[float]) -> float:
    """The factor that scales this run's timings to the reference speed:
    REFERENCE_PROBE_S / the run's median probe time.

    The host shares its cores, and its speed drifts by a third over
    minutes, so a slow phase can cover most of a run. The probe's median
    over the run follows that drift, and frobrank's code plays no part
    in it.
    """
    return REFERENCE_PROBE_S / statistics.median(probes)


def typical_seconds(ops: list[Op], passes: list[list[Execution]]) -> list[float]:
    """Each operation's latency: its median over the passes that ran it,
    which damps bursts of machine noise that hit one operation in one
    pass."""
    return [statistics.median(p[i].seconds for p in passes if i < len(p))
            for i in range(len(ops))]


def end_to_end(ops: list[Op], passes: list[list[Execution]], setups: list[float],
               scale: float) -> dict:
    # Percentiles are taken over operations: pooling the raw executions of
    # a small, mixed corpus makes a percentile jump between operations from
    # run to run.
    typical = [scale * t for t in typical_seconds(ops, passes)]

    def pass_s(command: str) -> float:
        return sum(t for op, t in zip(ops, typical) if op.command == command)

    latencies = [t * 1000 for t in typical]
    return {
        "setup_s": (scale * statistics.median(setups), "s"),
        "certify_s": (pass_s("certify"), "s"),
        "verify_s": (pass_s("verify"), "s"),
        "op_p50_ms": (percentile(latencies, 50), "ms"),
        "op_p90_ms": (percentile(latencies, 90), "ms"),
        "ops_per_s": (len(ops) / sum(typical), "1/s"),
        "peak_rss_mb": (max(ex.rss_kb for p in passes for ex in p) / 1024, "MB"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = perf()
    if not (SRC / "frobrank" / "__main__.py").is_file():
        print(f"error: no frobrank package under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    ops, seconds = set_up(args.workload, args.seed, WORK, run_start + RUN_LIMIT_S)
    setups = [seconds]

    def set_up_again(count: int) -> None:
        # Later set-ups make the same files, so the operations stay valid.
        for _ in range(count):
            setups.append(set_up(args.workload, args.seed, WORK, run_start + RUN_LIMIT_S)[1])

    instances = list({op.inst.name: op.inst for op in ops}.values())
    classes = Counter(inst.klass for inst in instances)
    if set(classes) != set(corpus.CLASSES):
        raise SystemExit(f"error: corpus misses a class: {dict(classes)}")

    runner = Runner(WORK, run_start + RUN_LIMIT_S)
    latest: dict[str, str] = {}
    for op in ops:
        if op.cert and op.cert.startswith("certs/"):
            latest[op.cert] = runner.store((WORK / op.cert).read_bytes())
    passes: list[list[Execution]] = []
    traced_passes: list[list[Execution]] = []
    deadline = run_start + args.seconds
    aborted = None
    try:
        # The first pass is whole, so every operation runs at least once;
        # later passes stop at the deadline.
        stop = math.inf
        while perf() < deadline:
            # Set-ups are spread over the run, so their median sees the
            # same phases of machine speed as the passes do.
            set_up_again(SETUPS_PER_PASS - (not passes))
            plain, traced = runner.run_pass(ops, bool(args.trace), latest, stop)
            passes.append(plain)
            traced_passes.append(traced)
            stop = deadline
        set_up_again(SETUP_REPEATS - len(setups))
    except RunAborted as exc:
        aborted = str(exc)
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    recorded = recorded_digests(args.workload, args.seed)
    failed, messages = failures(runner, recorded)
    if aborted:
        failed += 1
        messages.append(aborted)
    attempted = len(runner.executions) + bool(aborted)
    for msg in messages[:20]:
        print(f"FAIL {msg}", file=sys.stderr)

    metrics = {}
    scale = speed_scale(runner.probes) if runner.probes else None
    if passes and not aborted:
        if args.trace:
            metrics = layer_metrics(runner, ops, passes, traced_passes, scale)
        else:
            metrics = end_to_end(ops, passes, setups, scale)
    samples = len(ops)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "instances": len(instances),
        "classes": dict(classes),
        "fields": dict(Counter(inst.field_tag for inst in instances)),
        "ops_per_pass": dict(Counter(op.command for op in ops)),
        "passes": len(passes),
        "whole_passes": sum(len(p) == len(ops) for p in passes),
        "traced_passes": len(runner.spans) // len(ops),
        "probes": len(runner.probes),
        "probe_median_ms": round(1000 * statistics.median(runner.probes), 4)
        if runner.probes else None,
        # Timings are multiplied by this; raw = reported / speed_scale.
        "speed_scale": round(scale, 4) if scale else None,
        "op_latency_samples": samples,
        "op_p90_samples_beyond": beyond(90, samples),
        "op_p90_supported": beyond(90, samples) >= MIN_BEYOND,
        "setup_runs": [round(s, 4) for s in setups],
        "fail_ratio": failed / attempted if attempted else 0.0,
        "digests_checked": bool(recorded),
        # The stdout SHA-256 of each operation; digests.json holds the
        # expected ones for the default seed.
        "op_sha256": {ex.op.id: ex.out for ex in passes[0]} if passes else {},
        # Raw latencies, before scaling to the reference speed.
        "op_ms": {op.id: round(t * 1000, 3) for op, t in zip(ops, typical_seconds(ops, passes))}
        if passes else {},
    }
    print(json.dumps({"context": context}, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
