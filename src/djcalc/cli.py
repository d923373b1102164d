"""Command-line front end: counts, dimensions, emptiness verdicts, identity
checks and parameter-grid sweeps, in machine-readable formats.

Every record is one flat tuple: its command's input values in the order of
`KEYS`, then result, paths, cross_check_delta, status and verdict.  Rows come
out in a fixed order, so identical invocations produce byte-identical
output.  Exit codes: 0 success, 2 validation error, 3 internal cross-check
failure (the offending record is still emitted, with a failure marker in its
status).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import random
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from math import prod
from operator import itemgetter
from typing import Callable, Container, Iterable, Mapping, Sized

from . import bn, dejonq, lls
from .errors import IntegralityError
from .exact import Partition

FORMATS = ("json", "csv", "plain")


# ---------------------------------------------------------------------------
# tiny integer expression language for partition patterns and f specs
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal() or c.isalpha():  # isdecimal: exactly the digits that int() reads
            same = str.isdecimal if c.isdecimal() else str.isalpha  # the two classes are disjoint
            j = i + 1
            while j < len(text) and same(text[j]):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif c in "+-*()":
            tokens.append(c)
            i += 1
        else:
            raise ValueError(f"unexpected character {c!r} in expression {text!r}")
    return tokens


# Deeper nesting of parentheses or unary minus is rejected, so that neither
# compiling nor evaluating an expression can exhaust the interpreter's stack.
MAX_NESTING = 100

# The most parts a partition spec may expand to; checked before the parts
# are allocated.
MAX_PARTS = 1_000_000

# The most cells a sweep takes; checked before anything is compiled, so an
# oversized grid allocates nothing.
MAX_CELLS = 200_000

# The most characters of partition text the records of one request hold,
# about 50 MB of peak memory in any format; checked cell by cell, so an
# oversized sweep stops before it is rendered.
MAX_MU_TEXT = 10_000_000

# The most work the counts of one request take, as the sum of (e+5)^3 over
# its counts of e parts each; checked before each count runs.  Both routes
# of a count took about 38 to 78 ns per unit from 1 to 526 parts on a
# shared 2-vCPU VM with Python 3.11, so a request at the bound runs for
# about 12 s at most.  A single count takes at most 526 parts.
MAX_COUNT_WORK = 150_000_000

# The most samples `identity` draws: well under a second of proof_identity calls.
MAX_SAMPLES = 100_000


def compile_int_expr(
    text: str, names: Container[str]
) -> tuple[Callable[[dict[str, int]], int], frozenset[str]]:
    """Compile an integer expression over +, -, *, parentheses and the
    variables in `names` (e.g. g, r, d) into a function of an env that binds
    every name, and the set of names the expression reads.  Syntax errors
    and unknown variables raise ValueError here, never at evaluation time."""
    tokens = _tokenize(text)
    pos = 0
    reads: set[str] = set()

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def nest(depth: int) -> int:
        if depth >= MAX_NESTING:
            raise ValueError(f"expression {text!r} nests deeper than {MAX_NESTING} levels")
        return depth + 1

    # A compiled node is an int (a constant) or a function of env.
    def atom(depth: int):
        tok = peek()
        if tok is None:
            raise ValueError(f"unexpected end of expression {text!r}")
        if tok == "-":
            take()
            inner = atom(nest(depth))
            return -inner if isinstance(inner, int) else lambda env: -inner(env)
        if tok == "(":
            take()
            value = expr(nest(depth))
            if peek() != ")":
                raise ValueError(f"missing ')' in expression {text!r}")
            take()
            return value
        take()
        if tok.isdecimal():
            return int(tok)
        if tok in names:
            reads.add(tok)
            return itemgetter(tok)
        raise ValueError(f"unknown variable {tok!r} in expression {text!r}")

    def term(depth: int):
        const, factors = 1, []
        while True:
            node = atom(depth)
            if isinstance(node, int):
                const *= node
            else:
                factors.append(node)
            if peek() != "*":
                break
            take()
        if not factors:
            return const
        if const == 1 and len(factors) == 1:
            return factors[0]

        def product(env):
            value = const
            for factor in factors:
                value *= factor(env)
            return value
        return product

    def expr(depth: int):
        const, added, subtracted = 0, [], []
        sign = "+"
        while True:
            node = term(depth)
            if isinstance(node, int):
                const += node if sign == "+" else -node
            else:
                (added if sign == "+" else subtracted).append(node)
            if peek() not in ("+", "-"):
                break
            sign = take()
        if not added and not subtracted:
            return const
        if const == 0 and len(added) == 1 and not subtracted:
            return added[0]

        def total(env):
            value = const
            for node in added:
                value += node(env)
            for node in subtracted:
                value -= node(env)
            return value
        return total

    result = expr(0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens {tokens[pos:]} in expression {text!r}")
    value_of = (lambda env: result) if isinstance(result, int) else result
    return value_of, frozenset(reads)


def compile_partition_spec(
    spec: str, names: Container[str], grid: Mapping[str, Sized] | None = None
) -> Callable[[dict[str, int]], tuple[Partition, str] | ValueError]:
    """Compile a partition spec, '2,2,1' or power notation '2^3,1^2', into a
    function of env that returns the partition and its record text, or the
    ValueError of the first failed check, unraised.  Bases and exponents may
    be expressions in the variables in `names` (e.g. '2^r,1^(d-2*r)').  Zero
    exponents drop the part; negative exponents, non-positive parts and
    specs of more than MAX_PARTS parts are rejected.  A compile error in an
    item is returned only when evaluation reaches that item, so the earlier
    items' checks come first, item by item.

    `grid` maps each name to the values it takes over one request.  When a
    name the spec does not read takes more than one, the values of the names
    it does read repeat from cell to cell, and the function memoizes its
    value, or its error, on them for as long as it lives, keeping partitions
    of at most MAX_PARTS parts in all.  Otherwise, and without `grid`, each
    call builds afresh, so no partition outlives its cell.
    """
    items = []
    reads: set[str] = set()
    compile_error = None  # of the first item that fails to compile; later items are never reached
    for item in spec.split(","):
        item = item.strip()
        try:
            if not item:
                raise ValueError(f"empty item in partition spec {spec!r}")
            if "^" in item:
                base_text, exp_text = item.split("^", 1)
                base, base_reads = compile_int_expr(base_text, names)
                exp, exp_reads = compile_int_expr(exp_text, names)
                reads |= base_reads | exp_reads
            else:
                base, base_reads = compile_int_expr(item, names)
                exp = None
                reads |= base_reads
        except ValueError as exc:
            compile_error = exc.with_traceback(None)
            break
        items.append((item, base, exp))

    def partition(env: dict[str, int]) -> tuple[Partition, str] | ValueError:
        parts: list[int] = []
        for item, base_of, exp_of in items:
            base = base_of(env)
            exp = 1 if exp_of is None else exp_of(env)
            if exp < 0:
                return ValueError(f"partition item {item!r} has negative multiplicity {exp}")
            if exp > 0 and base < 1:
                return ValueError(f"partition item {item!r} has non-positive part {base}")
            if len(parts) + exp > MAX_PARTS:
                return ValueError(f"partition item {item!r} takes the partition past {MAX_PARTS} parts")
            parts.extend([base] * exp)
        if compile_error is not None:
            return compile_error
        mu = Partition(parts)
        return mu, _mu_text(mu)

    if grid is None or all(len(values) <= 1 for name, values in grid.items() if name not in reads):
        return partition
    key_of = itemgetter(*sorted(reads)) if reads else (lambda env: None)
    memo: dict[object, tuple[Partition, str] | ValueError] = {}
    room = MAX_PARTS  # the memo keeps at most one largest partition's worth of parts

    def memoized(env: dict[str, int]) -> tuple[Partition, str] | ValueError:
        nonlocal room
        key = key_of(env)
        entry = memo.get(key)
        if entry is None:
            entry = partition(env)
            size = 0 if isinstance(entry, ValueError) else entry[0].length
            if size <= room:
                room -= size
                memo[key] = entry
        return entry
    return memoized


def compile_f_spec(spec: str, names: Iterable[str]) -> Callable[[dict[str, int]], int | ValueError]:
    """Compile an f spec into a function of an env that binds `names` (e.g.
    g, r, d) and e and s, the length and the sum of the cell's partition: an
    integer expression over those names, or 'span=<expr>' for
    f = s - span - 1.  A compile error is returned, unraised, when the
    function is called."""
    span = spec.startswith("span=")
    try:
        value_of, _ = compile_int_expr(spec[len("span="):] if span else spec, {*names, "e", "s"})
    except ValueError as exc:
        compile_error = exc.with_traceback(None)
        return lambda env: compile_error
    return (lambda env: env["s"] - value_of(env) - 1) if span else value_of


def parse_range(text: str) -> range:
    """Inclusive integer interval 'lo:hi', or a single value 'n'."""
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

# The input keys of each command's records, in order; a sweep's records
# have the keys of its --what.  After the input values a record holds the
# FIELDS, with paths a tuple of strings.
KEYS = {
    "count": ("g", "r", "d", "mu"),
    "dim": ("g", "r", "d", "mu", "f"),
    "empty": ("g", "r", "d", "mu", "f"),
    "plucker": ("g", "r", "d"),
    "identity": ("samples", "seed", "lo", "hi"),
}
FIELDS = ("result", "paths", "cross_check_delta", "status", "verdict")


def _mu_text(mu: Partition) -> str:
    return ",".join(str(a) for a in mu.parts)


def _verdict(dim: int) -> str:
    return "empty" if dim < 0 else "possible"


def _charge(work: int, g: int, r: int, d: int, e: int) -> int:
    """`work` plus (e+5)^3, the charge of a count of e parts at cell (g, r, d);
    raises ValueError once a request's total passes MAX_COUNT_WORK."""
    work += (e + 5) ** 3
    if work > MAX_COUNT_WORK:
        raise ValueError(
            f"the counts of a request take at most {MAX_COUNT_WORK} in the sum of (e+5)^3 over their partitions,"
            f" passed at g={g}, r={r}, d={d}"
        )
    return work


def _cross_check(
    inputs: tuple, paths: tuple[str, ...], checked: Callable[[], tuple[int, int]], disagreement: str, verdict=None
):
    """A cross-checked result as (record, exit code).  `checked` returns
    (value, check); the record holds value as its result and check - value
    as its delta.  A nonzero delta or an IntegralityError gives a failure
    status and exit code 3."""
    try:
        value, check = checked()
    except IntegralityError as exc:
        return (*inputs, None, paths, None, f"integrality violation: {exc}", None), 3
    delta = check - value
    status = "ok" if delta == 0 else f"cross-check failed: {disagreement}"
    return (*inputs, value, paths, delta, status, verdict), (0 if delta == 0 else 3)


def _count_record(g: int, r: int, d: int, mu: Partition, mu_text: str):
    # the dimension theorem at f = d - r gives the verdict, when its hypotheses hold
    dim = bn.expected_dim_or_error(g, r, d, mu.length, mu.total, d - r)
    return _cross_check(
        (g, r, d, mu_text), ("bracket", "coefficient"),
        lambda: (dejonq.dj_count(g, r, d, mu, path="coefficient").value,
                 dejonq.dj_count(g, r, d, mu, path="bracket").value),
        "bracket and coefficient paths disagree", None if isinstance(dim, ValueError) else _verdict(dim),
    )


# ---------------------------------------------------------------------------
# commands: each returns (records, exit_code)
# ---------------------------------------------------------------------------

def _cmd_cells(args):
    """count, dim, empty and sweep: the cells of a (g, r, d) grid in
    lexicographic order.  A cell that fails validation in its specs, in
    dejonq.count_error or in the kernel gets that error as a value: a sweep
    emits a `skipped: <message>` record, whose inputs show each spec's text
    until it evaluates, and a single command, the 1x1x1 grid, raises it.  A
    count is charged to the request only once count_error passes it."""
    sweep = args.command == "sweep"
    if sweep:
        grid = (parse_range(args.g), parse_range(args.r), parse_range(args.d))
        cells = prod(values.stop - values.start for values in grid)  # len() overflows past sys.maxsize
        if cells > MAX_CELLS:
            raise ValueError(f"a sweep takes at most {MAX_CELLS} cells, got {cells}")
    else:
        grid = ((args.g,), (args.r,), (args.d,))
    what, names = args.what, ("g", "r", "d")
    count = what == "count"
    mu_of = compile_partition_spec(args.mu, names, dict(zip(names, grid)))
    f_of = None if count else compile_f_spec(args.f, names)
    records = []
    code = text = work = 0
    for g, r, d in itertools.product(*grid):
        env = {"g": g, "r": r, "d": d}
        mu_text, f = args.mu, args.f
        entry = mu_of(env)
        if isinstance(entry, ValueError):
            error = entry
        elif count:
            mu, mu_text = entry
            error = dejonq.count_error(g, r, d, mu.length, mu.total)
            if error is None:
                work = _charge(work, g, r, d, mu.length)
                record, cell_code = _count_record(g, r, d, mu, mu_text)
        else:
            mu, mu_text = entry
            env["e"], env["s"] = mu.length, mu.total
            value = f_of(env)
            if isinstance(value, ValueError):
                error = value
            else:
                f, dim = value, bn.expected_dim_or_error(g, r, d, mu.length, mu.total, value)
                if isinstance(dim, ValueError):
                    error = dim
                else:
                    error, cell_code = None, 0
                    record = (g, r, d, mu_text, f, dim if what == "dim" else dim < 0, ("dimension",), None, "ok",
                              _verdict(dim))
        if error is not None:
            if not sweep:
                raise error
            inputs = (g, r, d, mu_text) if count else (g, r, d, mu_text, f)
            record, cell_code = (*inputs, None, (), None, f"skipped: {error}", None), 0
        text += len(mu_text)
        if text > MAX_MU_TEXT:
            raise ValueError(
                f"a request writes at most {MAX_MU_TEXT} characters of partition text,"
                f" passed at g={g}, r={r}, d={d}"
            )
        records.append(record)
        code = max(code, cell_code)
    return records, code


def _cmd_plucker(args):
    g, r, d = args.g, args.r, args.d
    if r >= 1 and g >= 0 and d >= r + 1:  # otherwise the count's own precondition names the fault
        _charge(0, g, r, d, d - r)  # the count has mu = (r+1, 1^(d-r-1))
    record, code = _cross_check(  # the closed form is the result, the count its check
        (g, r, d), ("coefficient", "closed_form"),
        lambda: dejonq.ramification_count_check(g, r, d)[::-1], "count and closed form disagree",
    )
    return [record], code


def _cmd_identity(args):
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be <= {MAX_SAMPLES}, got {args.samples}")
    if args.lo > args.hi:
        raise ValueError(f"--lo must be <= --hi, got --lo {args.lo} and --hi {args.hi}")
    lo, width = args.lo, args.hi - args.lo + 1
    getrandbits, bits = random.Random(args.seed).getrandbits, width.bit_length()

    def draw() -> int:
        # what randint(lo, hi) draws: lo + _randbelow(width), which CPython's
        # Random computes as getrandbits(bits) until the value is below width
        value = getrandbits(bits)
        while value >= width:
            value = getrandbits(bits)
        return lo + value

    proof_identity = lls.proof_identity
    failures = 0
    for _ in range(args.samples):
        lhs, rhs = proof_identity(draw(), draw(), draw(), draw(), draw(), draw())  # g, m, r, d, s, f
        if lhs != rhs:
            failures += 1
    record, code = _cross_check(
        (args.samples, args.seed, args.lo, args.hi), ("polynomial",), lambda: (args.samples - failures, args.samples),
        f"{failures} tuples violate the identity",
    )
    return [record], code


COMMANDS = {
    "count": _cmd_cells,
    "dim": _cmd_cells,
    "empty": _cmd_cells,
    "plucker": _cmd_plucker,
    "identity": _cmd_identity,
    "sweep": _cmd_cells,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    """A record field as plain and CSV write it; paths are joined with '+'."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is tuple:
        return "+".join(value)
    return str(value)


# How json.dumps writes each leaf type of a record, all through C callables;
# the lookup is by type, so 1 and True never meet.
_JSON_LEAF = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


# Cached for good: 5 KEYS times 2 pads.
@cache
def _json_record_template(keys: tuple[str, ...], pad: str) -> str:
    """json.dumps(..., indent=2) of a record with these input keys, as an
    "inputs" object, indented by `pad`: a %-template with one %s per field
    of the record."""
    placeholder = {"inputs": dict.fromkeys(keys, "%s"), **dict.fromkeys(FIELDS, "%s")}
    return pad + json.dumps(placeholder, indent=2).replace('"%s"', "%s").replace("\n", f"\n{pad}")


class _JsonLists(dict):
    """Each tuple of strings as json.dumps(..., indent=2) writes it, built once
    per render: a dict lookup costs less per record than a function call."""

    def __init__(self, pad: str):
        super().__init__()
        self.pad = pad

    def __missing__(self, strings: tuple[str, ...]) -> str:
        text = self[strings] = json.dumps(strings, indent=2).replace("\n", f"\n{self.pad}  ")
        return text


def render(records, fmt: str, command: str, what: str) -> str:
    """The records of `command` in `fmt`, with the input keys of `what` (a
    sweep's --what, else the command), so each format's layout is built once
    from `KEYS` and `FIELDS`: json is json.dumps(records if a sweep else the
    one record, indent=2) with each record's input values as an "inputs"
    object and its paths as a list.  Its layout is derived from json.dumps
    of a placeholder record, once per process, and each record is written
    through that %-template, since the pure-Python encoder that json.dumps
    uses for indented output costs more than the cells; csv is a header and
    a row per record, plain a line per record, both of `_cell`s."""
    keys = KEYS[what]
    if fmt == "plain" and what == "identity":
        record = records[0]
        samples, passes = record[0], record[len(keys)]
        line = f"{passes}/{samples} identity holds"
        if passes != samples:
            line += f" ({samples - passes} failures)"
        return line + "\n"
    if fmt == "json":
        many = command == "sweep"
        pad = "  " if many else ""
        template = _json_record_template(keys, pad)
        leaf = {**_JSON_LEAF, tuple: _JsonLists(pad).__getitem__}
        body = ",\n".join([template % tuple([leaf[type(value)](value) for value in record]) for record in records])
        return f"[\n{body}\n]\n" if many else body + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow((*keys, *FIELDS))
        writer.writerows(map(_cell, record) for record in records)
        return buf.getvalue()
    line = " ".join(f"{key}=%s" for key in (*keys, "result", "paths", "delta", "status", "verdict"))
    return "\n".join([line % tuple(map(_cell, record)) for record in records]) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="djcalc",
        description="Exact counts and dimension predicates for contact divisors in linear series on curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    series = argparse.ArgumentParser(add_help=False)
    for name in ("--g", "--r", "--d"):
        series.add_argument(name, type=int, required=True)

    p = sub.add_parser("count", parents=[series], help="contact-divisor count via both evaluation paths")
    p.add_argument("--mu", required=True, help="partition, e.g. '2,2' or '2^3,1^2'")
    p.set_defaults(f=None, what="count")

    p = sub.add_parser("dim", parents=[series], help="expected dimension of the universal secant locus")
    p.add_argument("--mu", required=True)
    p.add_argument("--f", required=True, help="rank deficiency: integer, expression, or 'span=<s>'")
    p.set_defaults(what="dim")

    p = sub.add_parser(
        "empty", parents=[series], help="is the secant locus empty for every series on a general curve?"
    )
    p.add_argument("--mu", required=True)
    p.add_argument("--f", required=True)
    p.set_defaults(what="empty")

    p = sub.add_parser("plucker", parents=[series], help="simple-ramification count against the closed-form total")
    p.set_defaults(what="plucker")

    p = sub.add_parser("identity", help="randomized check of the dimension-count identity")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lo", type=int, default=-5)
    p.add_argument("--hi", type=int, default=20)
    p.set_defaults(what="identity")

    p = sub.add_parser("sweep", help="evaluate a grid of (g, r, d) cells in fixed order")
    p.add_argument("--g", required=True, help="inclusive range 'lo:hi' or single value")
    p.add_argument("--r", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--mu", required=True, help="partition pattern, e.g. '2^r,1^(d-2*r)'")
    p.add_argument("--f", help="required for --what dim/empty")
    p.add_argument("--what", choices=("count", "dim", "empty"), default="count")

    for p in sub.choices.values():  # last, so that it is each subcommand's last option
        p.add_argument("--format", choices=FORMATS, default="plain")
    return parser


def run(argv) -> tuple[int, str]:
    """Execute one parsed request: returns (exit code, serialized output).

    Validation problems raise ValueError; cross-check failures return exit
    code 3 with the offending record still present in the output.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.what in ("dim", "empty") and args.f is None:
        raise ValueError("--f is required for --what dim/empty")
    records, code = COMMANDS[args.command](args)
    return code, render(records, args.format, args.command, args.what)


def main(argv=None) -> int:
    try:
        code, output = run(argv)
    except ValueError as exc:  # ContractViolation and HypothesisViolation among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
