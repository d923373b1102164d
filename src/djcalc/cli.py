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
import itertools
import json
import random
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from math import prod
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Container, Iterable, Mapping, Sized

from . import bn, dejonq, lls
from .errors import IntegralityError
from .exact import MAX_DIGITS, Partition, too_long

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
# of a count with g > e took about 38 to 78 ns per unit from 1 to 526 parts
# on a shared 2-vCPU VM with Python 3.11, so a request at the bound runs for
# about 12 s at most.  A count with 0 <= g <= e evaluates one term of each
# route's sum and costs far less, so the worst admitted counts have g > e.
# A single count takes at most 526 parts.
MAX_COUNT_WORK = 150_000_000

# The most samples `identity` draws: well under a second of proof_identity calls.
MAX_SAMPLES = 100_000

# A literal of an expression, a range or an integer option, and a part, a
# partition's sum, an f value, a dimension or a cross-checked result of a
# cell, take at most MAX_DIGITS digits: no literal that int() converts is
# refused, and no record or message holds a number its format cannot write.
def _int_literal(tok: str, text: str, error: type[Exception] = ValueError) -> int:
    """int(tok), for a literal of expression, range or option `text`; refuses
    more than MAX_DIGITS digits with `error` before converting."""
    if len(tok) > MAX_DIGITS:
        digits = sum(map(str.isdecimal, tok))  # int() also reads a sign, blanks and underscores
        if digits > MAX_DIGITS:
            raise error(f"a literal takes at most {MAX_DIGITS} digits, got {digits} in {text!r}")
    return int(tok)


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
            return _int_literal(tok, text)
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
) -> tuple[Callable[[dict[str, int]], tuple[Partition, str] | ValueError], frozenset[str]]:
    """Compile a partition spec, '2,2,1' or power notation '2^3,1^2', into a
    function of env that returns the partition and its record text, or the
    ValueError of the first failed check, unraised, and the set of names the
    function reads.  Bases and exponents may be expressions in the variables
    in `names` (e.g. '2^r,1^(d-2*r)').  Zero exponents drop the part;
    negative exponents, non-positive parts, parts of more than MAX_DIGITS
    digits, specs of more than MAX_PARTS parts and sums of more than
    MAX_DIGITS digits are rejected.  A compile error in an item is returned
    only when evaluation reaches that item, so the earlier items' checks come
    first, item by item.

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
                shown = f"of more than {MAX_DIGITS} digits" if too_long(exp) else exp
                return ValueError(f"partition item {item!r} has negative multiplicity {shown}")
            if exp > 0 and base < 1:
                shown = f"of more than {MAX_DIGITS} digits" if too_long(base) else base
                return ValueError(f"partition item {item!r} has non-positive part {shown}")
            if exp > 0 and too_long(base):
                return ValueError(f"partition item {item!r} has a part of more than {MAX_DIGITS} digits")
            if len(parts) + exp > MAX_PARTS:
                return ValueError(f"partition item {item!r} takes the partition past {MAX_PARTS} parts")
            parts.extend([base] * exp)
        if compile_error is not None:
            return compile_error
        mu = Partition(parts)
        if too_long(mu.total):
            return ValueError(f"partition spec {spec!r} sums to more than {MAX_DIGITS} digits")
        return mu, _mu_text(mu)

    reads = frozenset(reads)
    if grid is None or all(len(values) <= 1 for name, values in grid.items() if name not in reads):
        return partition, reads
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
    return memoized, reads


def compile_f_spec(
    spec: str, names: Iterable[str]
) -> tuple[Callable[[dict[str, int]], int | ValueError], frozenset[str]]:
    """Compile an f spec into a function of an env that binds `names` (e.g.
    g, r, d) and e and s, the length and the sum of the cell's partition: an
    integer expression over those names, or 'span=<expr>' for
    f = s - span - 1; and the set of names the function reads.  A compile
    error, or a value of more than MAX_DIGITS digits, is returned,
    unraised, when the function is called."""
    span = spec.startswith("span=")
    try:
        value_of, reads = compile_int_expr(spec[len("span="):] if span else spec, {*names, "e", "s"})
    except ValueError as exc:
        compile_error = exc.with_traceback(None)
        return (lambda env: compile_error), frozenset()

    def f(env: dict[str, int]) -> int | ValueError:
        value = env["s"] - value_of(env) - 1 if span else value_of(env)
        if too_long(value):
            return ValueError(f"f spec {spec!r} gives a value of more than {MAX_DIGITS} digits")
        return value
    return f, (reads | {"s"} if span else reads)


def parse_range(text: str) -> range:
    """Inclusive integer interval 'lo:hi', or a single value 'n'."""
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = _int_literal(lo_text, text), _int_literal(hi_text, text)
    else:
        lo = hi = _int_literal(text, text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

# After a record's input values (see KEYS) come these fields, with paths a
# tuple of strings.
FIELDS = ("result", "paths", "cross_check_delta", "status", "verdict")


def _mu_text(mu: Partition) -> str:
    texts = {a: str(a) for a in set(mu.parts)}  # each distinct part converted once
    return ",".join(map(texts.__getitem__, mu.parts))


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
    status and exit code 3.  A value of more than MAX_DIGITS digits
    gives its ValueError, unraised, in place of the record."""
    try:
        value, check = checked()
    except IntegralityError as exc:
        return (*inputs, None, paths, None, f"integrality violation: {exc}", None), 3
    delta = check - value
    code = 0 if delta == 0 else 3
    if too_long(value):
        return ValueError(f"the result has more than {MAX_DIGITS} digits"), code
    status = "ok" if delta == 0 else f"cross-check failed: {disagreement}"
    return (*inputs, value, paths, delta, status, verdict), code


def _count_record(g: int, r: int, d: int, mu: Partition, mu_text: str):
    # The verdict is the dimension theorem's at f = d - r, where for a counted
    # partition (|mu| = d, len(mu) = d - r) the dimension is rho: "possible"
    # when the theorem's hypotheses hold, never "empty".
    verdict = "possible" if r >= 1 and d >= 1 and bn.rho_raw(g, r, d) >= 0 else None
    return _cross_check(
        (g, r, d, mu_text), ("bracket", "coefficient"),
        lambda: (dejonq.dj_count(g, r, d, mu, path="coefficient").value,
                 dejonq.dj_count(g, r, d, mu, path="bracket").value),
        "bracket and coefficient paths disagree", verdict,
    )


# ---------------------------------------------------------------------------
# commands: each returns (records, exit_code)
# ---------------------------------------------------------------------------

def _cmd_cells(args):
    """count, dim, empty and sweep: the cells of a (g, r, d) grid in
    lexicographic order.  A cell that fails validation in its specs, in
    dejonq.count_error or in the kernel, or whose dimension or count has
    more than MAX_DIGITS digits, gets that error as a value: a sweep
    emits a `skipped: <message>` record, whose inputs show each spec's text
    until it evaluates, and a single command, the 1x1x1 grid, raises it.  A
    count is charged to the request only once count_error passes it.

    A cell's work is split in two: its head (see `head`), which g enters
    only through a spec that reads g, and its tail, which reads g:
    count_error and the count, or the kernel's half that reads g.  When
    neither spec reads g and g takes several values, every g takes the heads
    of the first g, each built the first time a cell reaches it."""
    sweep = args.command == "sweep"
    if sweep:
        grid = (parse_range(args.g), parse_range(args.r), parse_range(args.d))
        cells = prod(values.stop - values.start for values in grid)  # len() overflows past sys.maxsize
        if cells > MAX_CELLS:
            shown = f"a count of more than {MAX_DIGITS} digits" if too_long(cells) else cells
            raise ValueError(f"a sweep takes at most {MAX_CELLS} cells, got {shown}")
    else:
        grid = ((args.g,), (args.r,), (args.d,))
    what, names = args.what, ("g", "r", "d")
    count, is_dim = what == "count", what == "dim"
    mu_spec, f_spec = args.mu, args.f
    gs, rs, ds = grid
    f_reads = frozenset()
    if not count:
        f_of, f_reads = compile_f_spec(f_spec, names)
    # Unless --f reads g, --mu is evaluated at the first g alone (see
    # `shared`), so its memo needs only the values the other names take.
    mu_of, reads = compile_partition_spec(mu_spec, names, {"g": gs if "g" in f_reads else gs[:1], "r": rs, "d": ds})
    reads |= f_reads

    def skipped(error: ValueError) -> str:
        if not sweep:
            raise error
        return f"skipped: {error}"

    def head(g: int, r: int, d: int) -> tuple:
        """(mu field, f field, what the tail takes, status): the tail takes
        the partition of a count, or the kernel's half that does not read g,
        with its skip status when that is an error.  A spec's error leaves
        the tail nothing, and its skip status is the cell's."""
        env = {"g": g, "r": r, "d": d}
        entry = mu_of(env)
        if isinstance(entry, ValueError):
            return mu_spec, f_spec, None, skipped(entry)
        mu, mu_text = entry
        if count:
            return mu_text, None, mu, None
        env["e"], env["s"] = e, s = mu.length, mu.total
        f = f_of(env)
        if isinstance(f, ValueError):
            return mu_text, f_spec, None, skipped(f)
        fixed = bn.fixed_dim_or_error(r, d, e, s, f)
        return mu_text, f, fixed, (f"skipped: {fixed}" if isinstance(fixed, ValueError) else None)

    first = gs[0]
    shared = len(gs) > 1 and "g" not in reads
    if shared:  # built as cells reach them, so the text bound stops a request before the heads past it
        head = cache(head)
    records = []
    append = records.append
    code = text = work = 0
    for g, r, d in itertools.product(gs, rs, ds):
        mu_text, f, tail, status = head(first if shared else g, r, d)
        if tail is None:  # a spec's error, which status names
            pass
        elif count:
            error = dejonq.count_error(g, r, d, tail.length, tail.total)
            if error is None:
                work = _charge(work, g, r, d, tail.length)
                record, cell_code = _count_record(g, r, d, tail, mu_text)
                code = max(code, cell_code)
                if isinstance(record, ValueError):
                    status = skipped(record)
            else:
                status = skipped(error)
        else:
            dim = bn.general_dim_or_error(g, r, d, tail)
            if isinstance(dim, ValueError):
                if dim is not tail or not sweep:  # else the head's status names it
                    status = skipped(dim)
            elif is_dim and too_long(dim):
                status = skipped(ValueError(f"the dimension has more than {MAX_DIGITS} digits"))
            else:
                record = (g, r, d, mu_text, f, dim if is_dim else dim < 0, ("dimension",), None, "ok",
                          "empty" if dim < 0 else "possible")
        if status is not None:
            record = (g, r, d, mu_text, None, (), None, status, None) if count else (
                g, r, d, mu_text, f, None, (), None, status, None)
        text += len(mu_text)
        if text > MAX_MU_TEXT:
            raise ValueError(
                f"a request writes at most {MAX_MU_TEXT} characters of partition text,"
                f" passed at g={g}, r={r}, d={d}"
            )
        append(record)
    return records, code


def _cmd_plucker(args):
    g, r, d = args.g, args.r, args.d
    if dejonq.ramification_error(g, r, d) is None:  # otherwise the count raises it, uncharged
        _charge(0, g, r, d, d - r)  # the count has mu = (r+1, 1^(d-r-1))
    record, code = _cross_check(  # the closed form is the result, the count its check
        (g, r, d), ("coefficient", "closed_form"),
        lambda: dejonq.ramification_count_check(g, r, d)[::-1], "count and closed form disagree",
    )
    if isinstance(record, ValueError):
        raise record
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


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

# How each format writes each leaf type of a record; the lookup is by type, so
# 1 and True never meet.  Plain and CSV join paths with '+'.
_JSON_LEAF = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_CELL = {
    int: int.__repr__,
    str: str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: ""}.__getitem__,
    tuple: "+".join,
}
# A csv writer hands each line it makes to `write` and returns what that
# returns, here the line itself.
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_field(text: str) -> str:
    """`text` as the csv module writes it as one field of a row of several:
    quoted by its own rule, which has changed between Python versions."""
    return _csv_line(("", text))[1:-1]  # a row of one empty field would be quoted


# CSV writes its strings, paths once joined, as the csv module quotes them.
_CSV = {**_CELL, str: _csv_field, tuple: lambda strings: _csv_field("+".join(strings))}
# The leaf types that %s writes as each format does.
_JSON_AS_IS = frozenset({int})
_CELL_AS_IS = frozenset({int, str})
_CSV_AS_IS = frozenset({int})


def _column(values: tuple, convert: Mapping[type, Callable], as_is: frozenset[type]) -> Iterable:
    """A column of records as its format writes it: as it is when every type
    in it is one of `as_is`, else each distinct value converted once, through
    `convert` of its type, and the column mapped through those texts.  Where
    bools and ints meet, 1 == True would give both one text, so each value
    is converted on its own."""
    distinct = set(values)
    types = set(map(type, distinct))
    if 0 in distinct or 1 in distinct:  # the set keeps one of 0 and False, and of 1 and True
        types = set(map(type, values))
    if types <= as_is:
        return values
    if bool in types and int in types:
        return [convert[type(value)](value) for value in values]
    texts = {value: convert[type(value)](value) for value in distinct}
    return map(texts.__getitem__, values)


# Records are converted and written a block at a time, so that only one
# block's columns are held at once.
_BLOCK = 4096


# Cached for good: 5 KEYS times 2 pads.
@cache
def _json_record_template(keys: tuple[str, ...], pad: str) -> str:
    """json.dumps(..., indent=2) of a record with these input keys, as an
    "inputs" object, indented by `pad`: a %-template with one %s per field
    of the record."""
    placeholder = {"inputs": dict.fromkeys(keys, "%s"), **dict.fromkeys(FIELDS, "%s")}
    return pad + json.dumps(placeholder, indent=2).replace('"%s"', "%s").replace("\n", f"\n{pad}")


def render(records, fmt: str, command: str, what: str) -> str:
    """The records of `command` in `fmt`, with the input keys of `what` (a
    sweep's --what, else the command): json is json.dumps(records if a sweep
    else the one record, indent=2) with each record's input values as an
    "inputs" object and its paths as a list; csv is the csv module's header
    and a row per record, plain a line per record, both of `_CELL` strings,
    with CSV strings quoted by the csv module.  Each format's layout is built
    once per call from `KEYS` and `FIELDS`: a head, a line %-template (JSON's
    derived from json.dumps of a placeholder record, since the pure-Python
    encoder that json.dumps uses for indented output costs more than the
    cells), a separator, a tail and a leaf table.  Each block of records is
    converted column by column (see `_column`) and written through the line
    template repeated once per record, and the head and the tail are added to
    the first and last blocks' texts, so that the joined body is not copied
    again."""
    keys = KEYS[what]
    if fmt == "plain" and what == "identity":
        record = records[0]
        samples, passes = record[0], record[len(keys)]
        line = f"{passes}/{samples} identity holds"
        if passes != samples:
            line += f" ({samples - passes} failures)"
        return line + "\n"
    width = len(keys) + len(FIELDS)
    head = sep = tail = ""
    if fmt == "json":
        many = command == "sweep"
        pad = "  " if many else ""
        head, tail = ("[\n", "\n]\n") if many else ("", "\n")
        line, sep = _json_record_template(keys, pad), ",\n"
        convert = {**_JSON_LEAF, tuple: lambda strings: json.dumps(strings, indent=2).replace("\n", f"\n{pad}  ")}
        as_is = _JSON_AS_IS
    elif fmt == "csv":
        head, line, convert, as_is = _csv_line((*keys, *FIELDS)), ",".join(["%s"] * width) + "\n", _CSV, _CSV_AS_IS
    else:
        line = " ".join(f"{key}=%s" for key in (*keys, "result", "paths", "delta", "status", "verdict")) + "\n"
        convert, as_is = _CELL, _CELL_AS_IS
    texts = []
    for start in range(0, len(records), _BLOCK):
        block = records[start:start + _BLOCK]
        fields = [None] * (len(block) * width)  # the block's fields, record after record
        for i, values in enumerate(zip(*block)):
            fields[i::width] = _column(values, convert, as_is)
        texts.append(sep.join([line] * len(block)) % tuple(fields))
    del block, fields, values  # else the last block's are held through the join below
    texts[0] = head + texts[0]
    texts[-1] += tail
    return sep.join(texts)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_option(text: str) -> int:
    """An integer option, read as a range bound is.  argparse prints the digit
    bound's ArgumentTypeError as it stands, and names this type in its own
    `invalid int value` message."""
    return _int_literal(text, text, argparse.ArgumentTypeError)


_int_option.__name__ = "int"

_SERIES = tuple((name, {"type": _int_option, "required": True}) for name in ("--g", "--r", "--d"))

# Each subcommand's handler, which returns (records, exit code), its help
# text, and its options in the order its help lists them (--format follows,
# last).
SUBCOMMANDS = {
    "count": (
        _cmd_cells, "contact-divisor count via both evaluation paths",
        (*_SERIES, ("--mu", {"required": True, "help": "partition, e.g. '2,2' or '2^3,1^2'"})),
    ),
    "dim": (
        _cmd_cells, "expected dimension of the universal secant locus",
        (*_SERIES, ("--mu", {"required": True}),
         ("--f", {"required": True, "help": "rank deficiency: integer, expression, or 'span=<s>'"})),
    ),
    "empty": (
        _cmd_cells, "is the secant locus empty for every series on a general curve?",
        (*_SERIES, ("--mu", {"required": True}), ("--f", {"required": True})),
    ),
    "plucker": (_cmd_plucker, "simple-ramification count against the closed-form total", _SERIES),
    "identity": (
        _cmd_identity, "randomized check of the dimension-count identity",
        (("--samples", {"type": _int_option, "default": 1000}), ("--seed", {"type": _int_option, "default": 0}),
         ("--lo", {"type": _int_option, "default": -5}), ("--hi", {"type": _int_option, "default": 20})),
    ),
    "sweep": (
        _cmd_cells, "evaluate a grid of (g, r, d) cells in fixed order",
        (("--g", {"required": True, "help": "inclusive range 'lo:hi' or single value"}),
         ("--r", {"required": True}), ("--d", {"required": True}),
         ("--mu", {"required": True, "help": "partition pattern, e.g. '2^r,1^(d-2*r)'"}),
         ("--f", {"help": "required for --what dim/empty"}),
         ("--what", {"choices": ("count", "dim", "empty"), "default": "count"})),
    ),
}

# The input keys of each command's records, in order, are its option names; a sweep's are those of its --what.
KEYS = {name: tuple(option[2:] for option, _ in row[2]) for name, row in SUBCOMMANDS.items() if name != "sweep"}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The djcalc parser: every subcommand when `command` is None, else only
    the one it names, under a metavar that names all six so that the
    top-level usage line reads as the full parser's.  Setting up the other
    subcommands would cost most of a one-cell request.  No parser reads an
    abbreviated option."""
    parser = argparse.ArgumentParser(
        prog="djcalc",
        description="Exact counts and dimension predicates for contact divisors in linear series on curves.",
        allow_abbrev=False,
    )
    # Unset on the full parser: argparse also names the action by its
    # metavar, in `argument command: invalid choice`.
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text, allow_abbrev=False)
            p.set_defaults(what=name, f=None)  # before the options: sweep's --what keeps its default, count has no --f
            for option, kwargs in options:
                p.add_argument(option, **kwargs)
            p.add_argument("--format", choices=FORMATS, default="plain")
    return parser


def run(argv=None) -> tuple[int, str]:
    """Execute one parsed request (`sys.argv[1:]` when `argv` is None):
    returns (exit code, serialized output).

    Validation problems raise ValueError; cross-check failures return exit
    code 3 with the offending record still present in the output.
    """
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser has no option but -h, so a request whose first
    # word names a subcommand reaches that subparser and no other one.
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    if args.command == "sweep" and args.what != "count" and args.f is None:
        raise ValueError("--f is required for --what dim/empty")
    if args.command == "sweep" and args.what == "count" and args.f is not None:
        raise ValueError("--f applies only to --what dim/empty")
    records, code = SUBCOMMANDS[args.command][0](args)
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
