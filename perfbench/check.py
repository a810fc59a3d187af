"""Independent output checker for the benchmark.

Shares no code with ``frobrank``: every claim in a command's JSON output
is re-checked with exact standard-library arithmetic against what the
generator built. Certificates must satisfy B - BC·X - Y·AB = 0, a
witness w must be nonzero with A·w = 0 and lie in Rg(B) but outside
Rg(BC), reported ranks must equal the ranks the instance was built
with, and the exit code must match the verdict.
"""

from __future__ import annotations

import json
from fractions import Fraction

from corpus import Instance, rank_mod


class Bad(Exception):
    """An output that fails a check."""


def _scalar(text, modulus: int | None):
    if not isinstance(text, str):
        raise Bad(f"scalar {text!r} is not a string")
    try:
        value = Fraction(text) if modulus is None else int(text)
    except ValueError:
        raise Bad(f"cannot read scalar {text!r}") from None
    if str(value) != text:
        raise Bad(f"scalar {text!r} is not in canonical form")
    if modulus is not None and not 0 <= value < modulus:
        raise Bad(f"residue {text!r} is outside [0, {modulus})")
    return value


def _matrix(obj, modulus: int | None, shape: tuple[int, int]) -> list:
    if not isinstance(obj, dict) or set(obj) != {"rows", "cols", "data"}:
        raise Bad("malformed matrix object")
    if (obj["rows"], obj["cols"]) != shape:
        raise Bad(f"matrix is {obj['rows']}x{obj['cols']}, expected {shape[0]}x{shape[1]}")
    data = obj["data"]
    if len(data) != shape[0] or any(len(row) != shape[1] for row in data):
        raise Bad("matrix data does not match its shape")
    return [[_scalar(x, modulus) for x in row] for row in data]


def _mul(a: list, b: list, modulus: int | None) -> list:
    cols = list(zip(*b))
    if modulus is None:
        return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) % modulus for col in cols] for row in a]


def _rank(m: list, modulus: int | None) -> int:
    if modulus is not None:
        return rank_mod(m, modulus)
    work = [list(row) for row in m]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        hit = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if hit is None:
            continue
        work[rank], work[hit] = work[hit], work[rank]
        lead = work[rank]
        for r in range(rank + 1, len(work)):
            f = work[r][col] / lead[col]
            if f:
                work[r] = [x - f * y for x, y in zip(work[r], lead)]
        rank += 1
    return rank


def _hstack(a: list, b: list) -> list:
    return [ra + rb for ra, rb in zip(a, b)]


def _solves(inst: Instance, x: list, y: list) -> bool:
    """Whether B - BC·X - Y·AB is exactly zero."""
    p = inst.modulus
    bcx = _mul(_mul(inst.b, inst.c, p), x, p)
    yab = _mul(y, _mul(inst.a, inst.b, p), p)
    for rb, r1, r2 in zip(inst.b, bcx, yab):
        for v, u, w in zip(rb, r1, r2):
            d = v - u - w
            if (d % p if p else d) != 0:
                return False
    return True


def _pair(obj, inst: Instance) -> tuple[list, list]:
    m, n, k, q = inst.dims
    if not isinstance(obj, dict) or not {"X", "Y"} <= set(obj):
        raise Bad("certificate needs matrices X and Y")
    return _matrix(obj["X"], inst.modulus, (q, k)), _matrix(obj["Y"], inst.modulus, (n, m))


def _check_report(doc: dict, inst: Instance, certify: bool, traced: bool) -> None:
    p = inst.modulus
    if doc.get("field") != inst.field_tag:
        raise Bad(f"field {doc.get('field')!r}, expected {inst.field_tag}")
    rb, rab, rbc, rabc = inst.profile
    want_profile = {
        "rank_b": rb, "rank_ab": rab, "rank_bc": rbc, "rank_abc": rabc,
        "lhs": rabc + rb, "rhs": rab + rbc, "gap": rabc + rb - rab - rbc,
    }
    if doc.get("rank_profile") != want_profile:
        raise Bad(f"rank profile {doc.get('rank_profile')}, expected {want_profile}")
    names = ("gap_zero", "quotient_block_invertible", "kernel_intersections_equal",
             "intersection_factor_exists")
    if doc.get("criteria") != {name: inst.tight for name in names}:
        raise Bad(f"criteria {doc.get('criteria')} do not all read {inst.tight}")
    if doc.get("verdict") != ("equality" if inst.tight else "strict"):
        raise Bad(f"verdict {doc.get('verdict')!r} for a {'tight' if inst.tight else 'strict'} triple")
    keys = {"field", "rank_profile", "criteria", "verdict"}
    if certify and inst.tight:
        keys |= {"certificate", "trace"} if traced else {"certificate"}
        x, y = _pair(doc.get("certificate"), inst)
        if not _solves(inst, x, y):
            raise Bad("certificate does not satisfy B = BC·X + Y·AB")
        if traced:
            trace = doc.get("trace", {})
            if trace.get("rank") != rb or trace.get("intersection_dim") != rb - rab:
                raise Bad("trace rank or intersection dimension is wrong")
    elif certify:
        keys.add("witness")
        w = _matrix(doc.get("witness"), p, (inst.dims[1], 1))
        if all(v == 0 for (v,) in w):
            raise Bad("witness is zero")
        if any(v != 0 for (v,) in _mul(inst.a, w, p)):
            raise Bad("witness is not in Ker(A)")
        if _rank(_hstack(inst.b, w), p) != rb:
            raise Bad("witness is not in Rg(B)")
        if _rank(_hstack(_mul(inst.b, inst.c, p), w), p) != rbc + 1:
            raise Bad("witness lies in Rg(BC)")
    if set(doc) != keys:
        raise Bad(f"report keys {sorted(doc)}, expected {sorted(keys)}")


def check(command: str, inst: Instance, stdout: bytes, stderr: bytes, code: int,
          cert: bytes | None = None, traced: bool = False) -> None:
    """Raise Bad unless one command's outcome on ``inst`` is correct.

    ``cert`` is the certificate document a verify or family command read.
    """
    if b"Traceback" in stderr:
        raise Bad("traceback on stderr")
    try:
        doc = json.loads(stdout)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise Bad(f"stdout is not JSON (exit {code}): {stderr[-200:]!r}") from None
    if not isinstance(doc, dict):
        raise Bad("stdout is not a JSON object")
    if command in ("check", "certify"):
        _check_report(doc, inst, command == "certify", traced)
        expected_code = 0 if inst.tight else 1
    elif command == "verify":
        if not _solves(inst, *_pair(json.loads(cert).get("certificate"), inst)):
            raise Bad("the certificate under test does not satisfy B = BC·X + Y·AB")
        if doc != {"verified": True}:
            raise Bad(f"verify printed {doc} for a valid certificate")
        expected_code = 0
    elif command == "family":
        base = _pair(json.loads(cert).get("certificate"), inst)
        pairs = doc.get("pairs")
        if set(doc) != {"count", "pairs"} or doc["count"] != len(pairs) or len(pairs) > 5:
            raise Bad("malformed family document")
        m, _, _, q = inst.dims
        _, rank_ab, rank_bc, _ = inst.profile
        if not pairs and (rank_ab < m or rank_bc < q):
            raise Bad("family is empty although AB or BC has a kernel")
        seen = [base]
        for obj in pairs:
            pair = _pair(obj, inst)
            if pair in seen:
                raise Bad("family repeats a pair")
            if not _solves(inst, *pair):
                raise Bad("family pair does not satisfy B = BC·X + Y·AB")
            seen.append(pair)
        expected_code = 0
    elif command == "oracle":
        if doc != {"solvable": inst.tight}:
            raise Bad(f"oracle printed {doc} for a {'tight' if inst.tight else 'strict'} triple")
        expected_code = 0 if inst.tight else 1
    else:
        raise ValueError(f"unknown command {command!r}")
    if code != expected_code:
        raise Bad(f"exit code {code}, expected {expected_code}")
