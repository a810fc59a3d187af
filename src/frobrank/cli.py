"""Command-line interface.

One verb per capability: ``check`` reports ranks and the tightness
verdict, ``certify`` additionally builds a solution pair or witness,
``verify`` checks a supplied pair, ``family`` derives further pairs,
``oracle`` decides solvability by exhaustive search, and ``gen`` emits
a seeded instance document.

Exit codes: 0 tight / accepted / solvable, 1 strict / rejected /
unsolvable, 2 usage or input error, 3 internal disagreement.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .certificate import solution_family, verify_certificate
from .errors import FrobrankError, InternalDisagreement
from .fields import parse_field_tag
from .formats import (
    build_report,
    emit_family,
    emit_flag,
    emit_instance,
    emit_report,
    parse_certificate,
    parse_instance,
)
from .oracle import DEFAULT_BUDGET, brute_force_solvable, random_instance


def _write(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def _read_instance(path: str):
    return parse_instance(Path(path).read_bytes())


def _cmd_report(args) -> int:
    # check has no --trace flag and reports no certificate.
    _, a, b, c = _read_instance(args.instance)
    certify = args.command == "certify"
    report = build_report(a, b, c, include_certificate=certify,
                          include_trace=certify and args.trace)
    _write(emit_report(report, args.format))
    return 0 if report["verdict"] == "equality" else 1


def _cmd_verify(args) -> int:
    field, a, b, c = _read_instance(args.instance)
    x, y = parse_certificate(Path(args.cert).read_bytes(), field)
    ok = verify_certificate(a, b, c, x, y)
    _write(emit_flag("verified", ok, args.format))
    return 0 if ok else 1


def _cmd_family(args) -> int:
    field, a, b, c = _read_instance(args.instance)
    x, y = parse_certificate(Path(args.cert).read_bytes(), field)
    pairs = solution_family(a, b, c, x, y, args.count)
    _write(emit_family(pairs, args.format))
    return 0


def _cmd_oracle(args) -> int:
    _, a, b, c = _read_instance(args.instance)
    solvable = brute_force_solvable(a, b, c, budget=args.budget)
    _write(emit_flag("solvable", solvable, args.format))
    return 0 if solvable else 1


def _cmd_gen(args) -> int:
    field = parse_field_tag(args.field)
    a, b, c = random_instance(field, args.dims, args.seed,
                              args.numerator_bound, args.denominator_bound)
    _write(emit_instance(field, a, b, c))
    return 0


def _dims(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("dims must be m,n,p,q")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobrank",
        description="Exact tightness analysis of the Frobenius rank inequality "
        "and certificates for B = BCX + YAB.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="rank profile, criteria, and verdict")
    p.add_argument("instance")
    _add_format(p)
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("certify", help="report plus a solution pair or witness")
    p.add_argument("instance")
    p.add_argument("--trace", action="store_true", help="include construction trace")
    _add_format(p)
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("verify", help="check a provided X, Y pair")
    p.add_argument("instance")
    p.add_argument("--cert", required=True, help="certificate document")
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("family", help="derive further solution pairs from a base pair")
    p.add_argument("instance")
    p.add_argument("--cert", required=True, help="base certificate document")
    p.add_argument("-n", "--count", type=int, required=True, help="pairs to emit")
    _add_format(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("oracle", help="decide solvability by exhaustive enumeration")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max candidate pairs (default 2**20)")
    _add_format(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a seeded instance document")
    p.add_argument("--field", required=True, help="Q or GF(p)")
    p.add_argument("--dims", type=_dims, required=True, help="m,n,p,q")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--numerator-bound", type=int, default=3)
    p.add_argument("--denominator-bound", type=int, default=2)
    p.set_defaults(handler=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InternalDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FrobrankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
