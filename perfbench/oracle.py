"""Independent oracle for the benchmark: every result the program returns is
recomputed here without importing djcalc.

Counts use the O(e^2) factorisation of the multilinear coefficient,

    ordered = prod(a) * sum_k ff(g, k) * ff(d-r-g, e-k) * e_k(a),

divided by the symmetry factor prod n_v!.  Families with a classical closed
form are also checked against it.  Dimension records are recomputed as
rho + e - f(r+1-|mu|+f) together with the conditions under which the program
must skip the cell instead.
"""

from __future__ import annotations

import csv
import io
import json
from math import factorial


class OracleError(Exception):
    """The oracle itself could not produce a value (a benchmark defect)."""


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def ff(x: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= x - i
    return out


def binom(m: int, k: int) -> int:
    if k < 0:
        return 0
    return ff(m, k) // factorial(k)


def elementary_all(values) -> list[int]:
    """[e_0, ..., e_n] of `values`, by expanding prod(1 + v t) one factor at a time."""
    coeffs = [1]
    for v in values:
        nxt = coeffs + [0]
        for i in range(1, len(nxt)):
            nxt[i] += v * coeffs[i - 1]
        coeffs = nxt
    return coeffs


def ordered_count(g: int, r: int, d: int, parts) -> int:
    e = len(parts)
    prod_a = 1
    for a in parts:
        prod_a *= a
    ek = elementary_all(parts)
    return prod_a * sum(ff(g, k) * ff(d - r - g, e - k) * ek[k] for k in range(e + 1))


def symmetry_factor(parts) -> int:
    out = 1
    for v in set(parts):
        out *= factorial(parts.count(v))
    return out


def unordered_count(g: int, r: int, d: int, parts) -> tuple[int, int]:
    """(unordered, ordered) count; raises OracleError if the division is inexact."""
    ordered = ordered_count(g, r, d, parts)
    value, rem = divmod(ordered, symmetry_factor(parts))
    if rem:
        raise OracleError(f"symmetry factor does not divide {ordered} at g={g} r={r} d={d} mu={parts}")
    return value, ordered


def closed_form(family: str, g: int, r: int, d: int):
    """The classical closed form of a family's unordered count, or None."""
    if family == "double":
        return (1 << r) * sum(binom(g, k) * binom(d - r - k, r - k) for k in range(r + 1))
    if family == "ramification":
        return (r + 1) * d + (r + 1) * r * (g - 1)
    if family == "theta":
        return (1 << (g - 1)) * ((1 << g) - 1)
    return None


def rho(g: int, r: int, d: int) -> int:
    return g - (r + 1) * (g - d + r)


def count_verdict(g: int, r: int, d: int) -> str:
    """Verdict attached to a count record (the dimension theorem at f = d - r)."""
    return "possible" if g >= 0 and r >= 1 and d >= 1 and rho(g, r, d) >= 0 else ""


def canonical(parts) -> str:
    return ",".join(str(a) for a in sorted(parts, reverse=True))


# ---------------------------------------------------------------------------
# expected records (every field as the CLI prints it in csv/plain)
# ---------------------------------------------------------------------------

def expect_count(g, r, d, parts, family) -> dict:
    value, _ = unordered_count(g, r, d, parts)
    closed = closed_form(family, g, r, d)
    if closed is not None and closed != value:
        raise OracleError(f"closed form {closed} != oracle {value} for {family} g={g} r={r} d={d}")
    return {"g": str(g), "r": str(r), "d": str(d), "mu": canonical(parts), "result": str(value),
            "paths": "bracket+coefficient", "delta": "0", "status": "ok",
            "verdict": count_verdict(g, r, d)}


def expect_plucker(g, r, d) -> dict:
    parts = [r + 1] + [1] * (d - r - 1)
    value, _ = unordered_count(g, r, d, parts)
    closed = closed_form("ramification", g, r, d)
    if value != closed:
        raise OracleError(f"simple ramification {value} != Plucker total {closed} at g={g} r={r} d={d}")
    return {"g": str(g), "r": str(r), "d": str(d), "result": str(closed),
            "paths": "coefficient+closed_form", "delta": "0", "status": "ok", "verdict": ""}


def expect_identity(samples, seed, lo, hi) -> dict:
    return {"samples": str(samples), "seed": str(seed), "lo": str(lo), "hi": str(hi),
            "result": str(samples), "paths": "polynomial", "delta": "0", "status": "ok",
            "verdict": ""}


def expand_pattern(items, g, r, d):
    """Parts of a pattern given as [(base(g,r,d), exp(g,r,d)), ...], or None
    when the CLI must reject it (negative multiplicity or non-positive part)."""
    parts = []
    for base_fn, exp_fn in items:
        base, exp = base_fn(g, r, d), exp_fn(g, r, d)
        if exp < 0 or (exp > 0 and base < 1):
            return None
        parts.extend([base] * exp)
    return parts


def expect_cell(what, g, r, d, pattern_text, items, f_text, f_fn) -> tuple[dict, bool]:
    """(expected record, ok) for one sweep cell; a skipped cell's status is
    matched by its 'skipped: ' prefix only."""
    rec = {"g": str(g), "r": str(r), "d": str(d), "mu": pattern_text, "f": f_text,
           "result": "", "paths": "", "delta": "", "status": "skipped: ", "verdict": ""}
    parts = expand_pattern(items, g, r, d)
    if parts is None:
        return rec, False
    e, s = len(parts), sum(parts)
    f = f_fn(g, r, d, e, s)
    rec["mu"], rec["f"] = canonical(parts), str(f)
    rho_value = rho(g, r, d)
    valid = g >= 0 and r >= 1 and d >= 1 and f >= 0 and s - r <= f <= s and rho_value >= 0
    if not valid:
        return rec, False
    dim = rho_value + e - f * (r + 1 - s + f)
    rec.update(result=str(dim) if what == "dim" else ("true" if dim < 0 else "false"),
               paths="dimension", status="ok", verdict="empty" if dim < 0 else "possible")
    return rec, True


def matches(expected: dict, got: dict) -> bool:
    if expected["status"] == "skipped: ":
        if not got.get("status", "").startswith("skipped: "):
            return False
        return all(got.get(k) == v for k, v in expected.items() if k != "status")
    return got == expected


# ---------------------------------------------------------------------------
# reading CLI output back into string-valued records
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _from_json(obj) -> dict:
    rec = {k: _cell(v) for k, v in obj["inputs"].items()}
    rec.update(result=_cell(obj["result"]), paths="+".join(obj["paths"]),
               delta=_cell(obj["cross_check_delta"]), status=obj["status"],
               verdict=_cell(obj["verdict"]))
    return rec


def _from_plain(line: str) -> dict:
    head, tail = line.split(" status=", 1)
    status, verdict = tail.rsplit(" verdict=", 1)
    rec = dict(token.split("=", 1) for token in head.split(" "))
    rec.update(status=status, verdict=verdict)
    return rec


def parse_records(fmt: str, text: str, many: bool) -> list[dict]:
    """Records of one CLI output as dicts of strings, keyed by input name and
    result/paths/delta/status/verdict."""
    if fmt == "json":
        payload = json.loads(text)
        return [_from_json(obj) for obj in (payload if many else [payload])]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        header = ["delta" if h == "cross_check_delta" else h for h in rows[0]]
        return [dict(zip(header, row)) for row in rows[1:]]
    if not text.endswith("\n"):
        raise ValueError("plain output does not end with a newline")
    return [_from_plain(line) for line in text[:-1].split("\n")]


def identity_plain(samples: int) -> str:
    return f"{samples}/{samples} identity holds\n"
