"""Command-line interface.

One verb per capability: ``check`` reports ranks and the tightness
verdict, ``certify`` additionally builds a solution pair or witness,
``verify`` checks a supplied pair, ``family`` derives further pairs,
``oracle`` decides solvability by exhaustive search, and ``gen`` emits
a seeded instance document. One table, ``VERBS``, gives each verb's
positional and options; it both parses argv and renders ``-h``.

Exit codes: 0 tight / accepted / solvable, 1 strict / rejected /
unsolvable, 2 usage or input error or a stdout or stderr that cannot be
written, 3 internal disagreement.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from types import SimpleNamespace
from typing import Sequence

from .certificate import solution_family, verify_certificate
from .errors import FrobrankError, InternalDisagreement
from .fields import parse_field_tag
from .formats import (
    build_report,
    emit_instance,
    emit_report,
    parse_certificate,
    parse_instance,
)
from .oracle import DEFAULT_BUDGET, brute_force_solvable, random_instance


def _write(stream, data: bytes | str) -> None:
    # A stream closed at start-up is None and io.StringIO has no byte layer;
    # neither can be written. Unbuffered (python -u), stream.buffer is the
    # raw file, whose write may take part of the bytes, or raise after a closed reader.
    out = getattr(stream, "buffer", None)
    if out is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    if isinstance(data, str):
        data = data.encode(stream.encoding, stream.errors)
    view = memoryview(data)
    while view:
        view = view[out.write(view):]
    out.flush()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cmd_report(args, _, a, b, c) -> tuple[bytes, int]:
    # Each handler takes args and, but for gen, the instance's field, A, B
    # and C; it returns its output and exit code. check has no --trace flag.
    certify = args.command == "certify"
    report = build_report(a, b, c, include_certificate=certify,
                          include_trace=certify and args.trace)
    return emit_report(report, args.format), 0 if report["verdict"] == "equality" else 1


def _cmd_verify(args, field, a, b, c) -> tuple[bytes, int]:
    x, y = parse_certificate(_read(args.cert), field)
    ok = verify_certificate(a, b, c, x, y)
    return emit_report({"verified": ok}, args.format), 0 if ok else 1


def _cmd_family(args, field, a, b, c) -> tuple[bytes, int]:
    x, y = parse_certificate(_read(args.cert), field)
    pairs = [{"X": px, "Y": py} for px, py in solution_family(a, b, c, x, y, args.count)]
    return emit_report({"count": len(pairs), "pairs": pairs}, args.format), 0


def _cmd_oracle(args, _, a, b, c) -> tuple[bytes, int]:
    solvable = brute_force_solvable(a, b, c, budget=args.budget)
    return emit_report({"solvable": solvable}, args.format), 0 if solvable else 1


def _cmd_gen(args) -> tuple[bytes, int]:
    field = parse_field_tag(args.field)
    a, b, c = random_instance(field, args.dims, args.seed,
                              args.numerator_bound, args.denominator_bound)
    return emit_instance(field, a, b, c), 0


def _format(text: str) -> str:
    if text not in ("text", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'text', 'json')")
    return text


def _dims(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("dims must be m,n,p,q")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


DESCRIPTION = ("Exact tightness analysis of the Frobenius rank inequality "
               "and certificates for B = BCX + YAB.")
# Each verb: (handler, help, positional or None, options). An option is
# (flags, dest, converter, default, help); a converter of None makes a
# flag without a value, and a default of ... a required option.
_FORMAT = (("--format",), "format", _format, "text", "output format, text or json")
_CERT = (("--cert",), "cert", str, ..., "certificate document")
VERBS = {
    "check": (_cmd_report, "rank profile, criteria, and verdict", "instance", (_FORMAT,)),
    "certify": (_cmd_report, "report plus a solution pair or witness", "instance",
                ((("--trace",), "trace", None, False, "include construction trace"), _FORMAT)),
    "verify": (_cmd_verify, "check a provided X, Y pair", "instance", (_CERT, _FORMAT)),
    "family": (_cmd_family, "derive further solution pairs from a base pair", "instance",
               (_CERT, (("-n", "--count"), "count", int, ..., "pairs to emit"), _FORMAT)),
    "oracle": (_cmd_oracle, "decide solvability by exhaustive enumeration", "instance",
               ((("--budget",), "budget", int, DEFAULT_BUDGET,
                 "max candidate pairs (default 2**20)"), _FORMAT)),
    "gen": (_cmd_gen, "generate a seeded instance document", None,
            ((("--field",), "field", str, ..., "Q or GF(p)"),
             (("--dims",), "dims", _dims, ..., "m,n,p,q"),
             (("--seed",), "seed", int, ..., "generator seed"),
             (("--numerator-bound",), "numerator_bound", int, 3, "default 3"),
             (("--denominator-bound",), "denominator_bound", int, 2, "default 2"))),
}
# What an option takes as its value, or counts as a positional: not an
# option, which starts with "-" and is neither "-" nor a number.
_VALUE = re.compile(r"(?!-)|-$|-\d+$|-\d*\.\d+$")


class _Stop(Exception):
    """Raised with (verb, message) when no command runs: for a usage
    error, or, with no message, for -h (of the program if verb is None)."""


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The verb as ``command`` and its values by dest. Options go before
    or after the positional, as --opt value, --opt=value, -n5 or a unique
    prefix of a long option; -- ends them."""
    verb, rest = (argv[0], list(argv[1:])) if argv else ("", [])
    if verb in ("-h", "--h", "--he", "--hel", "--help"):
        raise _Stop(None, None)
    if verb not in VERBS:
        raise _Stop(None, f"invalid command {verb!r} (choose from {', '.join(VERBS)})" if verb
                    else "the following arguments are required: command")
    _, _, positional, options = VERBS[verb]
    lookup = {flag: option for option in options for flag in option[0]}
    lookup |= {"-h": "help", "--help": "help"}
    values = {"command": verb} | {option[1]: option[3] for option in options}
    extra, ended = [], False
    while rest:
        arg = rest.pop(0)
        if ended or _VALUE.match(arg):
            if positional and positional not in values:
                values[positional] = arg
            else:
                extra.append(arg)
            continue
        if arg == "--":
            ended = True
            continue
        flag, eq, value = arg.partition("=")
        if flag not in lookup and arg[1] != "-":
            # A short option with its value attached, as -n5.
            flag, eq, value = arg[:2], arg[2:], arg[2:]
        matches = [flag] if flag in lookup else [name for name in lookup if name.startswith(flag)]
        if len(matches) > 1:
            raise _Stop(verb, f"ambiguous option: {flag} could match {', '.join(matches)}")
        option = lookup[matches[0]] if matches else None
        if option == "help":
            raise _Stop(verb, None)
        if option is None:
            extra.append(arg)
            continue
        flags, dest, convert, _, _ = option
        name = "/".join(flags)
        if convert is None:
            if eq:
                raise _Stop(verb, f"argument {name}: ignored explicit argument {value!r}")
            values[dest] = True
            continue
        if not eq:
            if not rest or not _VALUE.match(rest[0]):
                raise _Stop(verb, f"argument {name}: expected one argument")
            value = rest.pop(0)
        try:
            values[dest] = convert(value)
        except ValueError as exc:
            raise _Stop(verb, f"argument {name}: {exc}") from None
    missing = [positional] if positional and positional not in values else []
    missing += ["/".join(flags) for flags, dest, *_ in options if values[dest] is ...]
    if missing:
        raise _Stop(verb, f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise _Stop(verb, f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(**values)


def _spec(option: tuple, flags: tuple[str, ...]) -> str:
    # The flags, then the option's value named after its dest.
    return ", ".join(flags) + (f" {option[1].upper()}" if option[2] else "")


def _help(verb: str | None, full: bool) -> str:
    """The usage line of the program or a verb and, if ``full``, its help."""
    if verb is None:
        usage = f"usage: frobrank [-h] {{{','.join(VERBS)}}} ..."
        head, rows = DESCRIPTION, [(name, spec[1]) for name, spec in VERBS.items()]
    else:
        _, head, positional, options = VERBS[verb]
        specs = [(_spec(o, o[0][:1]), o[3] is ...) for o in options]
        words = [spec if required else f"[{spec}]" for spec, required in specs]
        usage = " ".join(["usage: frobrank", verb, "[-h]", *words, positional or ""]).rstrip()
        rows = [(_spec(o, o[0]), o[4]) for o in options]
    if not full:
        return usage
    width = max(len(name) for name, _ in rows) + 2
    return f"{usage}\n\n{head}\n\n" + "".join(f"  {n:<{width}}{t}\n" for n, t in rows)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code. All it prints is written
    here, to the sys.stdout or sys.stderr of the time of writing."""
    err = ""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        handler, _, positional, _ = VERBS[args.command]
        instance = parse_instance(_read(args.instance)) if positional else ()
        out, code = handler(args, *instance)
    except _Stop as stop:
        verb, message = stop.args
        if message is None:
            out, code = _help(verb, True), 0
        else:
            err, code = f"{_help(verb, False)}\nfrobrank: error: {message}\n", 2
    except InternalDisagreement as exc:
        # Only check and certify raise it, after reading the instance; the
        # instance document after the message replays the case.
        err, code = f"error: {exc}\n" + emit_instance(*instance).decode(), 3
    except (FrobrankError, OSError, ValueError) as exc:
        err, code = f"error: {exc}\n", 2
    if not err:
        try:
            _write(sys.stdout, out)
            return code
        except (OSError, ValueError) as exc:
            err, code = f"error: {exc}\n", 2
    try:
        _write(sys.stderr, err)
    except (OSError, ValueError):
        pass  # The exit code still tells what went wrong.
    return code


def run() -> None:
    """The ``frobrank`` command: ``main``, then an exit that skips
    interpreter teardown and atexit handlers; ``main`` flushes each
    write. An exception that escapes ``main`` takes the normal exit."""
    os._exit(main())
