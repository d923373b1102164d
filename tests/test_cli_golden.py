"""Replay of the golden command-line corpus (see cli_corpus.py), and the
property that a sweep row is the single command's record of its cell."""

import argparse
import io
import itertools
import json
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_corpus import CORPUS, against, capture, mismatches
from djcalc import cli

GOLDEN = json.loads(CORPUS.read_text())


def replay(argparse_exit):
    changed = list(mismatches([entry for entry in GOLDEN["entries"] if entry["argparse"] is argparse_exit]))
    assert not changed, f"{len(changed)} invocations changed; first: {changed[0]}"


def test_cli_corpus_replays_byte_identically():
    replay(argparse_exit=False)


@pytest.mark.skipif(
    list(sys.version_info[:2]) != GOLDEN["python"],
    reason="argparse's help and usage text depends on the Python version that recorded the corpus",
)
def test_cli_corpus_argparse_output_replays_byte_identically():
    replay(argparse_exit=True)


def test_against_finds_a_one_byte_difference_in_a_checkout(tmp_path, capsys):
    root = CORPUS.parent.parent
    assert against(root, requests=60) == 0
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    changed = tmp_path / "src" / "djcalc" / "cli.py"
    text = changed.read_text()
    assert text.count('f"error: {exc}"') == 1
    changed.write_text(text.replace('f"error: {exc}"', 'f"error:  {exc}"'))
    assert against(tmp_path, requests=60) == 1
    assert capsys.readouterr().err.startswith("mismatch:")


# ---------------------------------------------------------------------------
# the per-command parser answers as the full parser does, on every Python
# ---------------------------------------------------------------------------

# One valid request of each subcommand.
ONE_REQUEST_EACH = [
    ["count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2"],
    ["dim", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "2"],
    ["empty", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "2"],
    ["plucker", "--g", "1", "--r", "2", "--d", "4"],
    ["identity", "--samples", "5"],
    ["sweep", "--g", "0:1", "--r", "1", "--d", "2", "--mu", "1,1"],
]

# The corpus's argparse entries (help, usage and option errors of every
# subcommand), requests whose last word names another subcommand, and each
# subcommand's request with a trailing word that the top-level parser
# refuses under its usage line.
PARSER_ARGV = [entry["argv"] for entry in GOLDEN["entries"] if entry["argparse"]] + [
    ["sweep", "--g", "0", "--r", "1", "--d", "2", "--mu", "2", "--what", "count"],
    ["sweep", "--g", "0", "--r", "1", "--d", "2", "--mu", "2", "--f", "0", "--what", "dim"],
    ["identity", "--samples", "1", "plucker"],
    ["--", "count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2"],
] + [[*argv, "extra"] for argv in ONE_REQUEST_EACH]

# What the console script passes: main(None) reads sys.argv.
SYS_ARGV = [[], ["--help"], ["bogus"], ["count", "--help"]]


def test_per_command_parser_answers_as_the_full_parser(monkeypatch):
    build_parser = cli.build_parser
    built = []

    def recording(command=None):
        built.append(command)
        return build_parser(command)

    def from_sys_argv(argv):
        with patch.object(sys, "argv", ["djcalc", *argv]):
            return {**capture(None), "argv": argv}

    monkeypatch.setattr(cli, "build_parser", recording)
    per_command = [capture(argv) for argv in PARSER_ARGV] + [from_sys_argv(argv) for argv in SYS_ARGV]
    assert built == [argv[0] if argv and argv[0] in cli.SUBCOMMANDS else None for argv in PARSER_ARGV + SYS_ARGV]

    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser(None))
    full = [capture(argv) for argv in PARSER_ARGV + SYS_ARGV]
    assert per_command == full
    assert [entry["code"] for entry in full[-4:]] == [2, 0, 2, 0]
    assert "djcalc: error: argument command: invalid choice: 'bogus'" in full[-2]["stderr"]
    refused = [(entry["code"], entry["stderr"]) for entry in full if entry["argv"][-1:] == ["extra"]]
    assert refused == [(2, (
        "usage: djcalc [-h] {count,dim,empty,plucker,identity,sweep} ...\n"
        "djcalc: error: unrecognized arguments: extra\n"
    ))] * len(ONE_REQUEST_EACH)


def test_a_request_builds_only_its_own_subcommand_parser(monkeypatch):
    init = argparse.ArgumentParser.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    per_request = []
    for argv in ONE_REQUEST_EACH:
        built.clear()
        assert cli.run(argv)[0] == 0
        per_request.append(len(built))
    assert per_request == [2] * len(cli.SUBCOMMANDS)  # the top level and the request's subcommand
    built.clear()
    cli.build_parser(None)
    assert len(built) == 1 + len(cli.SUBCOMMANDS)


# ---------------------------------------------------------------------------
# sweep rows are single-command records
# ---------------------------------------------------------------------------

def main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


mu_specs = st.sampled_from(
    ["2,2", "2^r,1^(d-2*r)", "r+1,1^(d-r-1)", "2^(g-1)", "3", "2,1", "1^d", "2,x", "2,,1", "0^2", "2^(r-3)"]
)
# With those that read g, which must not share one value across a sweep's g.
f_specs = st.sampled_from(
    ["0", "1", "2", "d-r", "s-r", "e-1", "span=0", "span=1", "span=r-2", "x", "s+1", "g", "g-r", "span=g-1"]
)


def values(lo, most):
    """A sweep range starting at one of `lo`, of 1 to `most` values, as its text and its values."""
    return st.tuples(lo, st.integers(1, most)).map(lambda start_n: (
        f"{start_n[0]}:{start_n[0] + start_n[1] - 1}", range(start_n[0], start_n[0] + start_n[1])
    ))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["count", "dim", "empty"]),
    values(st.integers(-2, 6), 4), values(st.integers(-1, 4), 3), values(st.integers(-1, 9), 3),
    mu_specs, f_specs,
)
def test_sweep_row_is_the_single_command_record(what, gs, rs, ds, mu, f):
    specs = ["--mu", mu] + (["--f", f] if what != "count" else [])
    sweep_code, sweep_out, sweep_err = main(
        ["sweep", "--what", what, f"--g={gs[0]}", f"--r={rs[0]}", f"--d={ds[0]}", *specs, "--format", "json"]
    )
    rows = json.loads(sweep_out)
    assert sweep_err == ""
    assert [tuple(row["inputs"][key] for key in "grd") for row in rows] == list(itertools.product(gs[1], rs[1], ds[1]))
    codes = [0]
    for row in rows:
        cell = [f"--{key}={row['inputs'][key]}" for key in "grd"]
        if what != "count" and row["inputs"]["g"] < 0 and type(row["inputs"]["f"]) is int:
            # both specs evaluated (f is no longer the spec's text), so the
            # kernel's first check, of the genus, is the one that fails
            assert row["status"] == f"skipped: genus must be >= 0, got g={row['inputs']['g']}"
        code, out, err = main([what, *cell, *specs, "--format", "json"])
        if row["status"].startswith("skipped: "):
            assert (code, out, err) == (2, "", f"error: {row['status'][len('skipped: '):]}\n")
        else:
            assert (json.loads(out), err) == (row, "")
            codes.append(code)
    assert sweep_code == max(codes)
