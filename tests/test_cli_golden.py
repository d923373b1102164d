"""Replay of the golden command-line corpus (see cli_corpus.py), and the
property that a sweep row is the single command's record of its cell."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_corpus import CORPUS, capture
from djcalc import cli

GOLDEN = json.loads(CORPUS.read_text())


def replay(argparse_exit):
    mismatches = []
    for entry in GOLDEN["entries"]:
        if entry["argparse"] is argparse_exit:
            got = capture(entry["argv"])
            if got != entry:
                mismatches.append((entry, got))
    assert not mismatches, f"{len(mismatches)} invocations changed; first: {mismatches[0]}"


def test_cli_corpus_replays_byte_identically():
    replay(argparse_exit=False)


@pytest.mark.skipif(
    list(sys.version_info[:2]) != GOLDEN["python"],
    reason="argparse's help and usage text depends on the Python version that recorded the corpus",
)
def test_cli_corpus_argparse_output_replays_byte_identically():
    replay(argparse_exit=True)


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
f_specs = st.sampled_from(["0", "1", "2", "d-r", "s-r", "e-1", "span=0", "span=1", "span=r-2", "x", "s+1"])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["count", "dim", "empty"]),
    st.integers(-1, 6), st.integers(-1, 4), st.integers(-1, 9),
    mu_specs, f_specs,
)
def test_sweep_row_is_the_single_command_record(what, g, r, d, mu, f):
    cell = ["--g", str(g), "--r", str(r), "--d", str(d), "--mu", mu]
    if what != "count":
        cell += ["--f", f]
    sweep_code, sweep_out, _ = main(["sweep", "--what", what, *cell, "--format", "json"])
    [row] = json.loads(sweep_out)
    code, out, err = main([what, *cell, "--format", "json"])
    if row["status"].startswith("skipped: "):
        assert sweep_code == 0
        assert (code, out, err) == (2, "", f"error: {row['status'][len('skipped: '):]}\n")
    else:
        assert (code, json.loads(out), err) == (sweep_code, row, "")
