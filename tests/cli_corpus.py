"""Golden corpus of command-line invocations.

Each entry holds an argv, the exit code of `cli.main`, the sha256 of its
stdout and its stderr verbatim.  `test_cli_golden.py` replays the entries and
requires byte-identical results.  To record the corpus, run from the
repository root, at the commit whose behaviour is the reference:

    PYTHONPATH=src python tests/cli_corpus.py

To replay it without pytest, on any Python version, run

    PYTHONPATH=src python tests/cli_corpus.py --replay

which exits nonzero and prints the first entry that differs.  To compare
this tree with another checkout of the repository, such as a `git archive`
of the parent commit, run

    PYTHONPATH=src python tests/cli_corpus.py --against <checkout>

which draws seeded random requests from the tables below, runs them here
and, in one child process, against `<checkout>/src`, and exits nonzero at
the first request whose exit code, stdout digest or stderr differs.

The argv cover every subcommand in every format, every sweep `--what`, valid
and invalid `--mu`/`--f` specs and ranges, skipped sweep rows, `--help` and
argparse errors.  Entries that end in argparse (help text, usage errors) are
marked, because argparse's wording belongs to the Python version that
recorded them.  Left out on purpose: `plucker` with r < 1 and counts near
or past the count budget (`cli.MAX_COUNT_WORK`), whose behaviour differs
from the recording commit on purpose and which have tests of their own.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from djcalc import cli

CORPUS = Path(__file__).resolve().parent / "cli_golden.json"

# argparse wraps help text to the terminal width; fix it.
COLUMNS = "80"

FORMATS = ([], ["--format", "plain"], ["--format", "json"], ["--format", "csv"])

MU_SPECS = (
    "2,2", "2^2", " 2 , 2 ", "1,2^2,1", "2^r,1^(d-2*r)", "r+1,1^(d-r-1)", "2^(g-1)",
    "3,1", "3", "4", "2,1", "1^d", "d", "2*2", "1^0", "2^0,2,2", "2,1,1", "(r+1),1^(d-r-1)",
    "2,x", "2,,1", "(2", "2)", "0^2", "2^(r-3)", "-1", "2#", "1^1000001", "", "2^", "^2",
    "q+1", "(" * 101 + "2" + ")" * 101, "(" * 50 + "2" + ")" * 50 + ",2", "-" * 101 + "2",
    "2^(r-9),,1",
)

F_SPECS = (
    "0", "1", "2", "3", "d-r", "s-2", "s-r", "e-1", "2*e-r", "s", "s+1", "-1",
    "span=0", "span=1", "span=r-2", "span=e-1", "span=", "x", "1)", "(" * 101 + "1" + ")" * 101,
)

TRIPLES = [(g, r, d) for g in (-1, 0, 1, 3, 4, 8) for r in (0, 1, 2, 3) for d in (0, 1, 2, 3, 4, 5, 6)]


def _shaped_cells(rng: random.Random, cells: int) -> list[tuple[int, int, int, str]]:
    """`cells` single cells (g, r, d, mu) of the count shape: each mu is a drawn
    partition of at most 40 parts, d = |mu|, r = d - len(mu), and g is drawn
    from -2..2 len(mu) + 2, so it falls on both sides of len(mu)."""
    out = []
    for _ in range(cells):
        parts = [rng.randint(1, 5) for _ in range(rng.randint(1, 40))]
        e, d = len(parts), sum(parts)
        mu = ",".join(f"{v}^{parts.count(v)}" for v in sorted(set(parts), reverse=True))
        out.append((rng.randint(-2, 2 * e + 2), d - e, d, mu))
    return out


CELLS = _shaped_cells(random.Random(2022), 200)

SWEEP_RANGES = (
    ("0:2", "1:2", "2:6"),
    ("0", "0:2", "1:4"),
    ("3", "2", "4"),
    ("0:6", "2", "4"),
    ("-1:1", "1", "1:3"),
    ("4:2", "1", "2"),
    ("0", "x", "2"),
    ("0", "1", "1:"),
    ("0", "1:3", "4"),
)


def capture(argv: list[str]) -> dict:
    """Run `cli.main(argv)` and return its exit code, stdout digest and stderr."""
    out, err = io.StringIO(), io.StringIO()
    argparse_exit = False
    with patch.dict(os.environ, {"COLUMNS": COLUMNS}), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, argparse_exit = exc.code, True
    return {
        "argv": argv,
        "code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
        "argparse": argparse_exit,
    }


def mismatches(entries: list[dict]):
    """Each entry whose replay differs from it, with what the replay gave."""
    for entry in entries:
        got = capture(entry["argv"])
        if got != entry:
            yield entry, got


def random_argv(rng: random.Random) -> list[str]:
    """A request drawn from the tables above: a command at one of TRIPLES, a
    count, dim or empty at one of CELLS half of the time, or a sweep over
    ranges whose ends are values of TRIPLES (at most 280 cells)."""
    command = rng.choice(("count", "dim", "empty", "plucker", "identity", "sweep"))
    if command == "identity":
        argv = ["identity", "--samples", str(rng.randint(0, 50)), f"--seed={rng.randint(0, 9)}"]
    else:
        if command == "sweep":
            what = rng.choice(("count", "dim", "empty"))
            argv = ["sweep", "--what", what]
            grd = [":".join(map(str, sorted(rng.choices(values, k=2)))) for values in zip(*TRIPLES)]
            mu = rng.choice(MU_SPECS)
        elif command != "plucker" and rng.random() < 0.5:
            what, argv, (*grd, mu) = command, [command], rng.choice(CELLS)
        else:
            what, argv, grd, mu = command, [command], rng.choice(TRIPLES), rng.choice(MU_SPECS)
        argv += [f"--{name}={value}" for name, value in zip("grd", grd)]
        if what != "plucker":
            argv += ["--mu", mu]
        if what in ("dim", "empty"):
            argv += ["--f", rng.choice(F_SPECS)]
    return argv + rng.choice(FORMATS)


# The child process of `against`: captures each argv read from stdin with the
# djcalc on its path, and writes where that djcalc lives and the captures.
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from cli_corpus import capture, cli
json.dump({"cli": cli.__file__, "entries": [capture(argv) for argv in json.load(sys.stdin)]}, sys.stdout)
"""


def against(checkout: Path, requests: int = 3000) -> int:
    """Run `requests` seeded random requests here and against `checkout`;
    print the first that differs and return 1, or return 0."""
    rng = random.Random(0)
    argvs = [random_argv(rng) for _ in range(requests)]
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent)], input=json.dumps(argvs),
        stdout=subprocess.PIPE, text=True, check=True, cwd=checkout,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
    )
    theirs = json.loads(child.stdout)
    if not Path(theirs["cli"]).resolve().is_relative_to(checkout.resolve()):
        print(f"the child ran {theirs['cli']}, not the djcalc of {checkout}", file=sys.stderr)
        return 1
    for argv, entry in zip(argvs, theirs["entries"]):
        got = capture(argv)
        if got != entry:
            print(f"mismatch:\n  {checkout} gave {json.dumps(entry)}\n  this tree gave {json.dumps(got)}",
                  file=sys.stderr)
            return 1
    print(f"{requests} requests gave the same exit code, stdout and stderr here and in {checkout}")
    return 0


def corpus_argv() -> list[list[str]]:
    rng = random.Random(20221014)

    def grd(g, r, d):
        return ["--g", str(g), "--r", str(r), "--d", str(d)]

    argvs = []
    for _ in range(500):
        argvs.append(["count", *grd(*rng.choice(TRIPLES)), "--mu", rng.choice(MU_SPECS), *rng.choice(FORMATS)])
    for command in ("dim", "empty"):
        for _ in range(400):
            argvs.append([command, *grd(*rng.choice(TRIPLES)), "--mu", rng.choice(MU_SPECS),
                          "--f", rng.choice(F_SPECS), *rng.choice(FORMATS)])
    # cells that mostly pass validation, next to the random ones above that mostly fail it
    for g in (0, 1, 2, 3, 5, 8):
        for r in (1, 2, 3):
            for d in range(r + 1, r + 6):
                for mu in ("2^r,1^(d-2*r)", "r+1,1^(d-r-1)"):
                    argvs.append(["count", *grd(g, r, d), "--mu", mu, *rng.choice(FORMATS)])
    valid = [(g, r, d, mu, f) for g in (0, 1, 2, 3) for r in (1, 2, 3) for d in range(r + 1, r + 5)
             for mu in ("2,2", "3", "2,1", "2^r,1^(d-2*r)") for f in ("span=1", "s-r", "e-1", "2", "1")]
    for command in ("dim", "empty"):
        for g, r, d, mu, f in rng.sample(valid, 150):
            argvs.append([command, *grd(g, r, d), "--mu", mu, "--f", f, *rng.choice(FORMATS)])
    for g, r, d in TRIPLES:
        if r >= 1:
            argvs.append(["plucker", *grd(g, r, d), *rng.choice(FORMATS)])
    for samples in ("0", "1", "10", "50"):
        for seed in ("0", "7"):
            for bounds in ([], ["--lo", "-30", "--hi", "40"], ["--lo", "3", "--hi", "3"]):
                argvs.append(["identity", "--samples", samples, "--seed", seed, *bounds, *rng.choice(FORMATS)])
    for what in ("count", "dim", "empty"):
        for g, r, d in SWEEP_RANGES:
            for fmt in FORMATS:
                mu = rng.choice(MU_SPECS)
                f = ["--f", rng.choice(F_SPECS)] if what != "count" else []
                argvs.append(["sweep", "--what", what, "--g", g, "--r", r, "--d", d, "--mu", mu, *f, *fmt])
    for what in ("count", "dim", "empty"):
        for fmt in FORMATS:
            f = ["--f", "s-r"] if what != "count" else []
            argvs.append(["sweep", "--what", what, "--g", "0:3", "--r", "1:3", "--d", "1:6",
                          "--mu", "2^r,1^(d-2*r)", *f, *fmt])
    argvs += [
        ["sweep", "--g", "0:2", "--r", "1:2", "--d", "2:6", "--mu", "2^r,1^(d-2*r)"],
        ["sweep", "--g", "0", "--r", "1:3", "--d", "4", "--mu", "2^(r-2),,1", "--format", "json"],
        ["sweep", "--g", "1", "--r", "2", "--d", "4", "--mu", "2,2", "--what", "dim"],
        ["sweep", "--g", "1", "--r", "2", "--d", "4", "--mu", "2,2", "--what", "empty", "--format", "csv"],
        ["sweep", "--g", "0:3", "--r", "1:3", "--d", "1:8", "--mu", "r+1,1^(d-r-1)", "--f", "span=1",
         "--what", "dim", "--format", "csv"],
        [], ["--help"], ["bogus"], ["count"], ["count", "--g", "x", "--r", "2", "--d", "4", "--mu", "2,2"],
        ["count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--format", "xml"],
        ["count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--bogus"],
        ["dim", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2"],
        ["sweep", "--g", "0", "--r", "1", "--d", "2", "--mu", "2", "--what", "bad"],
        ["identity", "--samples", "x"],
    ]
    argvs += [[command, "--help"] for command in ("count", "dim", "empty", "plucker", "identity", "sweep")]
    return argvs


def replay() -> int:
    """Replay the corpus, its argparse entries only on the Python version that
    recorded them; print the first mismatch and return 1, or return 0."""
    golden = json.loads(CORPUS.read_text())
    argparse_too = list(sys.version_info[:2]) == golden["python"]
    entries = [entry for entry in golden["entries"] if argparse_too or not entry["argparse"]]
    for entry, got in mismatches(entries):
        print(f"mismatch:\n  recorded {json.dumps(entry)}\n  replayed {json.dumps(got)}", file=sys.stderr)
        return 1
    print(f"replayed {len(entries)} of {len(golden['entries'])} entries byte-identically")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Record the golden corpus, replay it with --replay, or compare with a checkout with --against."
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--replay", action="store_true", help="replay the corpus instead of recording it")
    mode.add_argument("--against", type=Path, metavar="CHECKOUT",
                      help="run random requests here and against CHECKOUT/src instead of recording")
    options = parser.parse_args()
    if options.replay:
        sys.exit(replay())
    if options.against:
        sys.exit(against(options.against))
    entries = [capture(argv) for argv in corpus_argv()]
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    CORPUS.write_text(f'{{"python": {list(sys.version_info[:2])},\n"entries": [\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} entries to {CORPUS}")
