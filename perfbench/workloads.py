"""The benchmark's three workloads: request pools, seeded request streams and
the per-request correctness check.

Each workload is a closed loop with one client.  A run is a sequence of
*rounds*; every round holds a fixed number of requests from each cost class,
so the median and p90 fall inside a class instead of on the edge between two.

Requests come from fixed pools built from POOL_SEED.  A run is a whole number
of *epochs*; an epoch runs every pool member exactly once, and the run's seed
sets the order.  Runs with different seeds therefore time the same requests,
and differ only by the machine's noise.  For the CLI workloads the output digest of every pool request
was recorded at the commit that introduced the benchmark (golden/*.json,
written by make_golden.py); each op's output must still match it byte for
byte, and must also pass the oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
from pathlib import Path

import oracle

POOL_SEED = 20221014
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FORMATS = ("plain", "json", "csv")

# Every class pool holds EPOCH_ROUNDS rounds' worth of requests, so one
# epoch of that many rounds runs each pool member exactly once.
EPOCH_ROUNDS = {"count_stream": 50, "grid_sweep": 3, "wide_bracket": 6}

# count_stream: one class per partition length e, one request of each per
# round.  e stops at 15 because the seed's coefficient route is exponential
# in e (e=29 does not finish).
COUNT_MAX_E = 15

# grid_sweep: (class, requests per round, cell range).  The huge class is
# one fixed 16,400-cell grid in JSON, the largest output.
SWEEP_CLASSES = (
    ("identity", 4, None),
    ("small", 4, (300, 500)),
    ("medium", 4, (1000, 1200)),
    ("large", 4, (2500, 3000)),
    ("xl", 3, (5000, 6000)),
    ("huge", 1, (16400, 16400)),
)
HUGE_GRID = ((0, 41), (1, 20), (1, 20))  # (first value, count) of g, r, d

# wide_bracket: (requests per round, e range)
BRACKET_CLASSES = ((6, (30, 40)), (6, (55, 65)), (4, (85, 100)), (3, (125, 135)), (1, (190, 200)))

PATTERNS = {
    "2^r,1^(d-2*r)": ((lambda g, r, d: 2, lambda g, r, d: r), (lambda g, r, d: 1, lambda g, r, d: d - 2 * r)),
    "r+1,1^(d-r-1)": ((lambda g, r, d: r + 1, lambda g, r, d: 1), (lambda g, r, d: 1, lambda g, r, d: d - r - 1)),
    "2^(g-1)": ((lambda g, r, d: 2, lambda g, r, d: g - 1),),
}

F_SPECS = {
    "0": lambda g, r, d, e, s: 0,
    "1": lambda g, r, d, e, s: 1,
    "2": lambda g, r, d, e, s: 2,
    "3": lambda g, r, d, e, s: 3,
    "e-1": lambda g, r, d, e, s: e - 1,
    "s-r": lambda g, r, d, e, s: s - r,
    "s-e": lambda g, r, d, e, s: s - e,
    "2*e-r": lambda g, r, d, e, s: 2 * e - r,
    "d-r": lambda g, r, d, e, s: d - r,
    "span=0": lambda g, r, d, e, s: s - 1,
    "span=1": lambda g, r, d, e, s: s - 2,
    "span=e-1": lambda g, r, d, e, s: s - e,
    "span=r-1": lambda g, r, d, e, s: s - r,
}


@dataclasses.dataclass(frozen=True)
class Request:
    """One op: `argv` for cli.run (empty for a dj_count op), the output
    format, and in `params` what the oracle needs to check the result, which
    for a dj_count op are also its arguments."""

    kind: str
    argv: tuple
    fmt: str
    params: tuple
    index: int = -1  # position in the workload's pool; -1 outside any pool


# ---------------------------------------------------------------------------
# pools and streams
# ---------------------------------------------------------------------------

def _spec_text(rng: random.Random, parts, pattern: str | None) -> str:
    forms = ["literal", "power"] + (["pattern"] if pattern else [])
    form = rng.choice(forms)
    if form == "pattern":
        return pattern
    if form == "literal":
        shuffled = list(parts)
        rng.shuffle(shuffled)
        return ",".join(map(str, shuffled))
    values = sorted(set(parts))
    rng.shuffle(values)
    return ",".join(f"{v}^{parts.count(v)}" for v in values)


def _format_args(rng: random.Random, forced: str | None = None) -> tuple[str, list[str]]:
    fmt = forced or rng.choice(FORMATS + (None,))
    return (fmt or "plain"), ([] if fmt is None else ["--format", fmt])


def _count_request(rng: random.Random, e: int) -> Request:
    if rng.random() < 0.15:
        g, r = rng.randint(0, 30), rng.randint(1, 8)
        fmt, fargs = _format_args(rng)
        argv = ["plucker", "--g", str(g), "--r", str(r), "--d", str(r + e)] + fargs
        return Request("plucker", tuple(argv), fmt, (g, r, r + e))
    family = rng.choice(("double", "ramification", "theta", "random"))
    g = rng.randint(0, 30)
    if family == "double":
        r = rng.randint(1, e)
        parts, pattern = [2] * r + [1] * (e - r), "2^r,1^(d-2*r)"
    elif family == "ramification":
        r = rng.randint(1, 10)
        parts, pattern = [r + 1] + [1] * (e - 1), "r+1,1^(d-r-1)"
    elif family == "theta":
        g, r = e + 1, e
        parts, pattern = [2] * e, "2^(g-1)"
    else:
        parts, pattern = [rng.randint(1, 4) for _ in range(e)], None
        if max(parts) == 1:
            parts[0] = 2
        r = sum(parts) - e
    d = sum(parts)
    fmt, fargs = _format_args(rng)
    argv = ["count", "--g", str(g), "--r", str(r), "--d", str(d), "--mu", _spec_text(rng, parts, pattern)] + fargs
    return Request("count", tuple(argv), fmt, (g, r, d, tuple(parts), family))


def _range_text(lo: int, n: int) -> str:
    return str(lo) if n == 1 else f"{lo}:{lo + n - 1}"


def _sweep_request(rng: random.Random, cells: tuple[int, int], huge: bool) -> Request:
    if huge:
        (g0, gn), (r0, rn), (d0, dn) = HUGE_GRID
    else:
        lo, hi = cells
        while True:
            rn, dn = rng.randint(3, 12), rng.randint(8, 30)
            gn = max(1, round(rng.randint(lo, hi) / (rn * dn)))
            if lo <= gn * rn * dn <= hi:
                break
        g0, r0, d0 = rng.choice((0, 0, 1, 2, 4)), rng.choice((0, 1, 1, 1, 2)), rng.choice((0, 1, 1, 2, 3))
    what = rng.choice(("dim", "empty"))
    pattern = rng.choice(sorted(PATTERNS))
    f_text = rng.choice(sorted(F_SPECS))
    fmt, fargs = _format_args(rng, "json" if huge else None)
    argv = ["sweep", "--what", what, "--g", _range_text(g0, gn), "--r", _range_text(r0, rn),
            "--d", _range_text(d0, dn), "--mu", pattern, "--f", f_text] + fargs
    grid = (range(g0, g0 + gn), range(r0, r0 + rn), range(d0, d0 + dn))
    return Request("sweep", tuple(argv), fmt, (what, grid, pattern, f_text))


def _identity_request(rng: random.Random) -> Request:
    samples, seed = rng.randint(1000, 4000), rng.randint(0, 10**6)
    lo, hi = (-5, 20) if rng.random() < 0.5 else (rng.randint(-30, 0), rng.randint(1, 40))
    fmt, fargs = _format_args(rng)
    argv = ["identity", "--samples", str(samples), "--seed", str(seed)]
    if (lo, hi) != (-5, 20):
        argv += ["--lo", str(lo), "--hi", str(hi)]
    return Request("identity", tuple(argv + fargs), fmt, (samples, seed, lo, hi))


def _bracket_request(rng: random.Random, e_range: tuple[int, int]) -> Request:
    e = rng.randint(*e_range)
    family = rng.choice(("double", "theta", "random"))
    if family == "double":
        r, g = rng.randint(1, e), rng.randint(0, 40)
        parts = [2] * r + [1] * (e - r)
    elif family == "theta":
        g, r = e + 1, e
        parts = [2] * e
    else:
        g = rng.randint(0, 40)
        parts = [rng.randint(1, 4) for _ in range(e)]
        if max(parts) == 1:
            parts[0] = 2
        r = sum(parts) - e
    return Request("bracket", (), "", (g, r, sum(parts), tuple(parts), family))


def round_plan(workload: str) -> list[int]:
    """Requests per round for each cost class."""
    if workload == "count_stream":
        return [1] * COUNT_MAX_E
    if workload == "grid_sweep":
        return [per_round for _, per_round, _ in SWEEP_CLASSES]
    return [per_round for per_round, _ in BRACKET_CLASSES]


def build_pool(workload: str) -> list[list[Request]]:
    """The fixed request pool of a workload, one list per cost class."""
    rng = random.Random(POOL_SEED)
    sizes = [per_round * EPOCH_ROUNDS[workload] for per_round in round_plan(workload)]
    if workload == "count_stream":
        classes = [[_count_request(rng, e) for _ in range(size)] for e, size in enumerate(sizes, 1)]
    elif workload == "grid_sweep":
        classes = [[_identity_request(rng) if cells is None else _sweep_request(rng, cells, name == "huge")
                    for _ in range(size)] for (name, _, cells), size in zip(SWEEP_CLASSES, sizes)]
    else:
        classes = [[_bracket_request(rng, e_range) for _ in range(size)]
                   for (_, e_range), size in zip(BRACKET_CLASSES, sizes)]
    index = itertools.count()
    return [[dataclasses.replace(req, index=next(index)) for req in members] for members in classes]


def pool_sha256(pool: list[list[Request]]) -> str:
    text = "\n".join(" ".join(req.argv) for members in pool for req in members)
    return hashlib.sha256(text.encode()).hexdigest()


class Stream:
    """Seeded epochs of one workload.  An epoch runs every pool member once;
    the seed orders the members within each class and the requests within
    each round."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(seed)
        self.plan = round_plan(workload)
        self.pool = build_pool(workload)
        self.rounds = EPOCH_ROUNDS[workload]

    def epoch(self) -> list[list[Request]]:
        batches = [[] for _ in range(self.rounds)]
        for members, per_round in zip(self.pool, self.plan):
            shuffled = list(members)
            self.rng.shuffle(shuffled)
            for i, req in enumerate(shuffled):
                batches[i // per_round].append(req)
        for batch in batches:
            self.rng.shuffle(batch)
        return batches


def warmup_request(workload: str) -> Request:
    """A fixed small request run once during set-up."""
    if workload == "count_stream":
        return Request("count", ("count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2"), "plain",
                       (3, 2, 4, (2, 2), "double"))
    if workload == "grid_sweep":
        what, pattern, f_text = "dim", "2^r,1^(d-2*r)", "1"
        argv = ("sweep", "--what", what, "--g", "0:3", "--r", "1:3", "--d", "1:8", "--mu", pattern, "--f", f_text)
        return Request("sweep", argv, "plain", (what, (range(0, 4), range(1, 4), range(1, 9)), pattern, f_text))
    return Request("bracket", (), "", (10, 15, 45, (2,) * 15 + (1,) * 15, "double"))


# ---------------------------------------------------------------------------
# golden digests
# ---------------------------------------------------------------------------

def output_digest(code: int, output: str) -> str:
    return hashlib.sha256(f"{code}\n{output}".encode()).hexdigest()[:16]


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str, pool: list[list[Request]]) -> list[str]:
    data = json.loads(golden_path(workload).read_text())
    if data["pool_sha256"] != pool_sha256(pool):
        raise RuntimeError(f"the {workload} request pool no longer matches {golden_path(workload).name}")
    return data["digests"]


# ---------------------------------------------------------------------------
# checking one op
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Outcome:
    ok: bool
    records: int = 1
    ok_records: int = 0
    reason: str = ""


def _sweep_expected(params):
    what, (gs, rs, ds), pattern, f_text = params
    items, f_fn = PATTERNS[pattern], F_SPECS[f_text]
    for g in gs:
        for r in rs:
            for d in ds:
                yield oracle.expect_cell(what, g, r, d, pattern, items, f_text, f_fn)


def check_cli(req: Request, result, digest: str | None) -> Outcome:
    """Check one cli.run result: exit code 0, the recorded digest (unless
    `digest` is None) and every record against the oracle."""
    if isinstance(result, BaseException):
        return Outcome(False, reason=f"raised {type(result).__name__}: {result}")
    code, output = result
    if code != 0:
        return Outcome(False, reason=f"exit code {code}")
    if digest is not None and output_digest(code, output) != digest:
        return Outcome(False, reason="output bytes differ from the recorded digest")
    kind, p = req.kind, req.params
    try:
        if kind == "identity" and req.fmt == "plain":
            ok = output == oracle.identity_plain(p[0])
            return Outcome(ok, 1, int(ok), "" if ok else "identity failures reported")
        got = oracle.parse_records(req.fmt, output, many=kind == "sweep")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, reason=f"unreadable output: {exc}")
    if kind == "sweep":
        expected = list(_sweep_expected(p))
        if len(got) != len(expected):
            return Outcome(False, len(got), reason=f"{len(got)} records for {len(expected)} cells")
        ok_records = 0
        for (exp, valid), rec in zip(expected, got):
            if not oracle.matches(exp, rec):
                return Outcome(False, len(got), reason=f"record {rec} != expected {exp}")
            ok_records += valid
        return Outcome(True, len(got), ok_records)
    if kind == "count":
        exp = oracle.expect_count(*p)
    elif kind == "plucker":
        exp = oracle.expect_plucker(*p)
    else:
        exp = oracle.expect_identity(*p)
    if len(got) != 1 or not oracle.matches(exp, got[0]):
        return Outcome(False, reason=f"records {got} != expected {exp}")
    return Outcome(True, 1, 1)


def check_bracket(req: Request, result) -> Outcome:
    """Check one dj_count(..., path="bracket") result against the oracle."""
    if isinstance(result, BaseException):
        return Outcome(False, reason=f"raised {type(result).__name__}: {result}")
    g, r, d, parts, family = req.params
    value, ordered = oracle.unordered_count(g, r, d, parts)
    closed = oracle.closed_form(family, g, r, d)
    if closed is not None and closed != value:
        raise oracle.OracleError(f"closed form {closed} != oracle {value} for {req.params}")
    got = tuple(getattr(result, name, None) for name in ("value", "ordered_value", "path"))
    if got != (value, ordered, "bracket"):
        return Outcome(False, reason=f"dj_count {got} != expected {(value, ordered, 'bracket')}")
    return Outcome(True, 1, 1)
