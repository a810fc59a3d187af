"""Run one frobrank command with spans around each layer's public functions.

Usage: python tracer.py SPANS_OUT OP_ID -- COMMAND ARGS...

The public functions of cli, formats, analysis, certificate, linalg and
oracle, and Matrix.__matmul__, are wrapped in place, including the names
other modules imported, before ``frobrank.cli.main`` runs the command.
Each call becomes a span (name, start, end, parent) kept in memory and
written to SPANS_OUT as JSON when the command returns, together with
call counts and work counters. Per-element field arithmetic is not
wrapped: the wrapper would cost more than the call. Time spent on the
tracer's own bookkeeping (entry bit lengths, for instance) is taken out
of every span by a paused clock. stdout and the exit code are those of
the untraced command.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import frobrank.cli
from frobrank import analysis, certificate, formats, linalg, matrix, oracle

perf = time.perf_counter

WRAPPED = (
    (formats, ("parse_instance", "parse_certificate", "build_report", "emit_report",
               "emit_flag", "emit_family")),
    (analysis, ("rank_profile", "equality_criteria", "quotient_map_matrix",
                "intersection_basis")),
    (certificate, ("construct_certificate", "verify_certificate", "solution_family")),
    (linalg, ("rref", "rank", "kernel_basis", "pivot_column_basis", "extend_basis",
              "solve_right", "inverse")),
    (oracle, ("brute_force_solvable",)),
)


def _entry_bits(m) -> int:
    best = 0
    for row in m.entries:
        for x in row:
            if type(x) is int:
                best = max(best, x.bit_length())
            else:
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.paused = 0.0
        self.counters: Counter = Counter()

    def now(self) -> float:
        return perf() - self.paused

    def _account(self, name: str, args, result, fresh: bool) -> None:
        # Work counters, computed off the span clock.
        start = perf()
        c = self.counters
        if name == "linalg.rref" and fresh:
            m = args[0]
            c["linalg.rref.cells"] += m.rows * m.cols * result.rank
            c["linalg.rref.max_entry_bits"] = max(c["linalg.rref.max_entry_bits"],
                                                  _entry_bits(result.rref))
        elif name == "matrix.matmul":
            lhs, rhs = args
            c["matrix.matmul.mults"] += lhs.rows * lhs.cols * rhs.cols
            c["matrix.matmul.max_entry_bits"] = max(c["matrix.matmul.max_entry_bits"],
                                                    _entry_bits(result))
        elif name == "oracle.brute_force_solvable":
            a, b, cm = args[:3]
            cells = cm.cols * b.cols + b.rows * a.rows
            c["oracle.candidates"] += a.field.modulus ** cells
        self.paused += perf() - start

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        cache_info = getattr(fn, "cache_info", None)
        counted = name in ("linalg.rref", "matrix.matmul", "oracle.brute_force_solvable")

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            span = [name, self.now(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.now()
                stack.pop()
            if counted:
                fresh = cache_info is None or cache_info().misses != misses
                self._account(name, args, result, fresh)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "frobrank"]
        for module, names in WRAPPED:
            for fname in names:
                # A function the program no longer has just counts no calls.
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module.__name__.split('.')[-1]}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        matrix.Matrix.__matmul__ = self.wrap("matrix.matmul", matrix.Matrix.__matmul__)

    def run(self, argv: list[str]) -> tuple[int, float]:
        main = self.wrap("cli.main", frobrank.cli.main)
        start = perf()
        code = main(argv)
        return code, perf() - start


def main() -> int:
    start = perf()
    out, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT OP_ID -- COMMAND ARGS...")
    rref = linalg.rref
    tracer = Tracer()
    tracer.install()
    setup_s = perf() - start
    code, main_s = tracer.run(argv)
    write_start = perf()
    info = getattr(rref, "cache_info", None)
    if info is not None:
        tracer.counters["linalg.rref.cache_hits"] = info().hits
    spans = json.dumps(tracer.spans)
    head = {
        "op": op_id,
        "code": code,
        "main_s": main_s,
        "counters": dict(tracer.counters),
        # Tracer set-up and output are not program start-up.
        "own_s": setup_s + perf() - write_start,
    }
    with open(out, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "spans": ' + spans + "}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
