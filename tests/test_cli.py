import csv
import io
import json
import os
import random
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from djcalc import cli, dejonq, lls
from djcalc.dejonq import CountResult
from djcalc.errors import IntegralityError
from djcalc.exact import Partition


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# request parsing
# ---------------------------------------------------------------------------


# Compile with the env's own names and evaluate once, as a single command does.
def evaluate(text, env):
    value_of, _ = cli.compile_int_expr(text, env)
    return value_of(env)


# A compiled spec returns its error; these raise it, as a single command does.
def partition(spec, env):
    entry = cli.compile_partition_spec(spec, env)(env)
    if isinstance(entry, ValueError):
        raise entry
    mu, _ = entry
    return mu


def f_value(spec, env, mu):
    env = dict(env, e=mu.length, s=mu.total)  # as the cell binds them once --mu evaluates
    value = cli.compile_f_spec(spec, ("g", "r", "d"))(env)
    if isinstance(value, ValueError):
        raise value
    return value


def test_eval_int_expr():
    env = {"g": 3, "r": 2, "d": 10}
    assert evaluate("d-2*r", env) == 6
    assert evaluate("(r+1)*(d-r)", env) == 24
    assert evaluate("-r", env) == -2
    assert evaluate(" 7 ", env) == 7
    with pytest.raises(ValueError):
        evaluate("d-2r x", env)
    with pytest.raises(ValueError):
        evaluate("q+1", env)
    with pytest.raises(ValueError):
        evaluate("(d", env)


def test_parse_partition_spec():
    env = {"g": 3, "r": 2, "d": 6}
    assert partition("2,2,1", env) == Partition([2, 2, 1])
    assert partition("2^3,1^2", env) == Partition([2, 2, 2, 1, 1])
    assert partition("1,2^2,1", env) == Partition([2, 2, 1, 1])  # canonicalized
    assert partition("2^r,1^(d-2*r)", env) == Partition([2, 2, 1, 1])
    assert partition("r+1,1^(d-r-1)", env) == Partition([3, 1, 1, 1])
    assert partition("1^0", env) == Partition([])
    with pytest.raises(ValueError):
        partition("2^(r-3)", env)  # negative multiplicity
    with pytest.raises(ValueError):
        partition("0^2", env)  # non-positive part
    with pytest.raises(ValueError):
        partition("2,,1", env)


def test_parse_f_spec():
    env = {"g": 3, "r": 2, "d": 4}
    mu = Partition([2, 2])
    assert f_value("2", env, mu) == 2
    assert f_value("d-r", env, mu) == 2
    assert f_value("s-2", env, mu) == 2
    # span=s inverts the span formula f = |mu| - span - 1
    assert f_value("span=1", env, mu) == 2
    assert f_value("span=r-2", env, mu) == 3


def test_non_decimal_digits_name_their_expression(capsys):
    # '²' passes str.isdigit but not int(); '٢' is a decimal digit, read as 2
    cell = ["--g", "3", "--r", "2", "--d", "4"]
    for argv in (["count", *cell, "--mu", "²,2"], ["dim", *cell, "--mu", "2,2", "--f", "span=²"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: unexpected character '²' in expression '²'\n")
    assert run(["count", *cell, "--mu", "٢,٢"], capsys) == run(["count", *cell, "--mu", "2,2"], capsys)
    assert run(["dim", *cell, "--mu", "2,2", "--f", "span=٢"], capsys) == run(
        ["dim", *cell, "--mu", "2,2", "--f", "span=2"], capsys)


def test_eval_int_expr_long_chain_is_not_recursive():
    assert evaluate("+".join(["1"] * 1500), {}) == 1500
    assert evaluate("*".join(["r"] * 1500), {"r": 1}) == 1


def test_eval_int_expr_nesting_limit():
    env = {"r": 2}
    depth = cli.MAX_NESTING
    assert evaluate("(" * depth + "r" + ")" * depth, env) == 2
    assert evaluate("-" * depth + "r", env) == 2
    depth += 1
    for text in ("(" * depth + "r" + ")" * depth, "-" * depth + "r"):
        with pytest.raises(ValueError, match="nests deeper than"):
            evaluate(text, env)


def test_deep_nesting_exits_2(capsys):
    mu = "(" * 400 + "2" + ")" * 400 + ",2"
    assert cli.main(["count", "--g", "3", "--r", "2", "--d", "4", "--mu", mu]) == 2
    assert "error:" in capsys.readouterr().err
    mu = "(" * 50 + "2" + ")" * 50 + ",2"
    code, out = run(["count", "--g", "3", "--r", "2", "--d", "4", "--mu", mu], capsys)
    assert code == 0
    assert "result=28" in out


def test_partition_spec_bounds_parts_before_allocating():
    with pytest.raises(ValueError, match=r"partition item '1\^999999999' takes the partition past 1000000 parts"):
        partition("2,1^999999999", {})
    assert len(partition(f"1^{cli.MAX_PARTS}", {})) == cli.MAX_PARTS


def test_partition_spec_first_error_wins():
    # the empty item is a compile error, but the per-env check of the item
    # before it comes first, as when each item was read in turn
    compiled = cli.compile_partition_spec("2^(r-9),,1", ("g", "r", "d"))
    assert outcome(compiled, {"g": 0, "r": 2, "d": 0}) == (
        "error", ValueError, "partition item '2^(r-9)' has negative multiplicity -7"
    )
    assert outcome(compiled, {"g": 0, "r": 9, "d": 0}) == (
        "error", ValueError, "empty item in partition spec '2^(r-9),,1'"
    )


def test_compile_int_expr_reports_the_names_it_reads():
    names = ("g", "r", "d")
    assert cli.compile_int_expr("d-2*r", names)[1] == {"r", "d"}
    assert cli.compile_int_expr("r*0+7", names)[1] == {"r"}
    assert cli.compile_int_expr("(3)", names)[1] == set()


# Specs that read no grid variable, one, two and all three; several end in
# an error at keys that repeat across the grid.
MEMO_SPECS = [
    "2,2", "x,2", "3^2,1,,2",
    "2^(g-1)", "r+1", "0^r", "1^(d-3)",
    "2^r,1^(d-2*r)", "r+1,1^(d-r-1)", "2^(r-2),,1", "2^(g-1),1^(d-2*g)",
    "2^r,1^(d-2*r-g)", "g+1,1^(d-r)",
]


NAMES = ("g", "r", "d")
GRID = {"g": range(-1, 4), "r": range(-1, 4), "d": range(-1, 7)}


@pytest.mark.parametrize("spec", MEMO_SPECS)
def test_memoized_partition_spec_matches_fresh_compiles(spec):
    memoized = cli.compile_partition_spec(spec, NAMES, GRID)
    for g in GRID["g"]:
        for r in GRID["r"]:
            for d in GRID["d"]:
                env = {"g": g, "r": r, "d": d}
                assert outcome(memoized, env) == outcome(cli.compile_partition_spec(spec, NAMES), env)


def test_partition_spec_memoizes_only_where_the_grid_repeats_a_key():
    cell, again = {"g": 0, "r": 1, "d": 4}, {"g": 5, "r": 1, "d": 4}

    def memoizes(spec, grid):
        by_spec = cli.compile_partition_spec(spec, NAMES, grid)
        first, second = by_spec(cell), by_spec(again)
        assert first == second
        return first is second

    assert memoizes("2^r,1^(d-2*r)", GRID)  # g is not read and takes five values
    assert not memoizes("2^r,1^(d-2*r)", {**GRID, "g": range(0, 1)})  # each (r, d) is one cell
    assert not memoizes("2^r,1^(d-2*r)", None)
    assert not memoizes("2^r,1^(d-2*r-g*0)", GRID)  # reads all three names


def test_partition_spec_memo_keeps_at_most_max_parts(monkeypatch):
    monkeypatch.setattr(cli, "MAX_PARTS", 10)
    by_d = cli.compile_partition_spec("1^d", NAMES, {"g": range(2), "r": range(1), "d": range(20)})
    kept = [by_d({"g": 0, "r": 0, "d": d}) is by_d({"g": 1, "r": 0, "d": d}) for d in (4, 6, 1, 3)]
    assert kept == [True, True, False, False]  # 4 + 6 parts fill the memo


def test_memo_keeps_one_error_per_key_and_a_single_command_raises_afresh():
    by_g = cli.compile_partition_spec("2^(g-1)", NAMES, GRID)
    errors = [by_g({"g": 0, "r": r, "d": 4}) for r in (1, 2, 3)]  # one key, g = 0
    assert outcome(lambda: errors[0]) == ("error", ValueError, "partition item '2^(g-1)' has negative multiplicity -1")
    assert errors[0] is errors[1] is errors[2]
    assert errors[0].__traceback__ is None  # returned, never raised
    assert by_g({"g": -1, "r": 1, "d": 4}) is not errors[0]  # another key, another error
    for mu in ("2^(g-1)", "x,2"):  # an evaluation error and a compile error
        raised = []
        for _ in range(3):
            with pytest.raises(ValueError) as info:
                cli.run(["dim", "--g", "0", "--r", "1", "--d", "4", "--mu", mu, "--f", "0"])
            raised.append(info.value)
        assert len({id(exc) for exc in raised}) == 3
        assert len({str(exc) for exc in raised}) == 1


# ---------------------------------------------------------------------------
# oracle: the interpreting parser that evaluated each expression as it read
# it.  Slow, since it re-reads the text for every env, but independent of
# the compiler in cli.
# ---------------------------------------------------------------------------


def oracle_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif c in "+-*()":
            tokens.append(c)
            i += 1
        else:
            raise ValueError(f"unexpected character {c!r} in expression {text!r}")
    return tokens


def oracle_eval_int_expr(text, env):
    tokens = oracle_tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom():
        tok = peek()
        if tok is None:
            raise ValueError(f"unexpected end of expression {text!r}")
        if tok == "-":
            take()
            return -atom()
        if tok == "(":
            take()
            value = expr()
            if peek() != ")":
                raise ValueError(f"missing ')' in expression {text!r}")
            take()
            return value
        take()
        if tok.isdecimal():
            return int(tok)
        if tok in env:
            return env[tok]
        raise ValueError(f"unknown variable {tok!r} in expression {text!r}")

    def term():
        value = atom()
        while peek() == "*":
            take()
            value *= atom()
        return value

    def expr():
        value = term()
        while peek() in ("+", "-"):
            if take() == "+":
                value += term()
            else:
                value -= term()
        return value

    result = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens {tokens[pos:]} in expression {text!r}")
    return result


def oracle_parse_partition_spec(spec, env):
    parts = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            raise ValueError(f"empty item in partition spec {spec!r}")
        if "^" in item:
            base_text, exp_text = item.split("^", 1)
            base = oracle_eval_int_expr(base_text, env)
            exp = oracle_eval_int_expr(exp_text, env)
        else:
            base = oracle_eval_int_expr(item, env)
            exp = 1
        if exp < 0:
            raise ValueError(f"partition item {item!r} has negative multiplicity {exp}")
        if exp > 0 and base < 1:
            raise ValueError(f"partition item {item!r} has non-positive part {base}")
        parts.extend([base] * exp)
    return Partition(parts)


def oracle_partition_entry(spec, env):
    """What a compiled partition spec returns: the partition and its record text."""
    mu = oracle_parse_partition_spec(spec, env)
    return mu, ",".join(str(a) for a in mu.parts)


def oracle_parse_f_spec(spec, env, mu):
    env = dict(env, e=mu.length, s=mu.total)
    if spec.startswith("span="):
        return mu.total - oracle_eval_int_expr(spec[len("span="):], env) - 1
    return oracle_eval_int_expr(spec, env)


def outcome(fn, *args):
    """("value", value) or ("error", type, message); an error that fn returns
    compares equal to the same error raised."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    if isinstance(value, ValueError):
        return "error", type(value), str(value)
    return "value", value


# Numbers of at most two digits: a product of a few of them is far below
# cli.MAX_PARTS, so no case allocates a large partition in either parser.
# '٢' is a decimal digit (2) and '²' a digit that int() does not read.
spec_texts = st.lists(
    st.sampled_from(list("0123456789٢²grdesx+-*()^,") + ["span=", " "]), max_size=10,
).map("".join).filter(lambda text: not re.search(r"\d{3}", text))
envs = st.fixed_dictionaries({name: st.integers(-3, 6) for name in "grd"})


@settings(max_examples=400, deadline=None)
@given(spec_texts, st.lists(envs, min_size=1, max_size=3), st.lists(st.integers(1, 4), max_size=4))
def test_compiled_specs_match_interpreting_oracle(text, cells, parts):
    mu = Partition(parts)
    compiled_mu = cli.compile_partition_spec(text, ("g", "r", "d"))
    compiled_f = cli.compile_f_spec(text, ("g", "r", "d"))
    for env in cells:  # one compiled form serves every cell, as in a sweep
        assert outcome(compiled_mu, env) == outcome(oracle_partition_entry, text, env)
        assert outcome(partition, text, env) == outcome(oracle_parse_partition_spec, text, env)
        expected_f = outcome(oracle_parse_f_spec, text, env, mu)
        assert outcome(compiled_f, dict(env, e=mu.length, s=mu.total)) == expected_f
        assert outcome(f_value, text, env, mu) == expected_f


def test_parse_range():
    assert list(cli.parse_range("0:3")) == [0, 1, 2, 3]
    assert list(cli.parse_range("5")) == [5]
    with pytest.raises(ValueError):
        cli.parse_range("4:2")


# ---------------------------------------------------------------------------
# single commands
# ---------------------------------------------------------------------------


def readme_examples():
    """The `djcalc ...` lines of the sh block under README's `## Command line`."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as readme:
        section = readme.read().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("djcalc ")]


def test_readme_command_line_examples_exit_0(capsys):
    lines = readme_examples()
    assert lines
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == "", line


def test_count_json(capsys):
    code, out = run(["count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["result"] == 28
    assert record["paths"] == ["bracket", "coefficient"]
    assert record["cross_check_delta"] == 0
    assert record["status"] == "ok"


def test_count_plain(capsys):
    code, out = run(["count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2"], capsys)
    assert code == 0
    assert "result=28" in out
    assert "delta=0" in out


def test_count_with_29_parts(capsys):
    # e=29: a 2^e subset sum over the parts would not finish
    code, out = run(["count", "--g", "3", "--r", "1", "--d", "30", "--mu", "2,1^28"], capsys)
    assert code == 0
    assert "result=64" in out


def test_empty_verdict(capsys):
    code, out = run(["empty", "--g", "4", "--r", "1", "--d", "3", "--mu", "3", "--f", "2", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["result"] is True
    assert record["verdict"] == "empty"


def test_dim_command(capsys):
    code, out = run(["dim", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "2", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["result"] == 0
    assert record["verdict"] == "possible"


def test_plucker_command(capsys):
    code, out = run(["plucker", "--g", "3", "--r", "2", "--d", "4", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["result"] == 24
    assert record["cross_check_delta"] == 0


def test_identity_command(capsys):
    code, out = run(["identity", "--samples", "1000", "--seed", "7"], capsys)
    assert code == 0
    assert out == "1000/1000 identity holds\n"


def test_identity_json(capsys):
    code, out = run(["identity", "--samples", "50", "--seed", "3", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["result"] == 50
    assert record["cross_check_delta"] == 0
    assert record["inputs"]["seed"] == 3


def test_identity_with_no_samples_holds(capsys):
    assert run(["identity", "--samples", "0"], capsys) == (0, "0/0 identity holds\n")


@pytest.mark.parametrize("argv, message", [
    (["--samples", "-5"], "--samples must be >= 0, got -5"),
    (["--lo", "5", "--hi", "2"], "--lo must be <= --hi, got --lo 5 and --hi 2"),
    (["--lo", "3", "--hi", "2"], "--lo must be <= --hi, got --lo 3 and --hi 2"),
    (["--samples", "-1", "--lo", "5", "--hi", "2"], "--samples must be >= 0, got -1"),
])
def test_identity_rejects_bad_options(capsys, argv, message):
    assert cli.main(["identity", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("seed, lo, hi", [
    (0, -5, 20), (7, 3, 3), (11, -40, -2), (-3, 0, 1), (2**70, -9, 10**30),
])
def test_identity_draws_what_randint_draws(monkeypatch, seed, lo, hi):
    drawn = []

    def proof_identity(*args):
        drawn.append(args)
        return 0, 0

    monkeypatch.setattr(lls, "proof_identity", proof_identity)
    argv = ["identity", "--samples", "40", "--seed", str(seed), "--lo", str(lo), "--hi", str(hi)]
    assert cli.run(argv) == (0, "40/40 identity holds\n")
    rng = random.Random(seed)
    assert drawn == [tuple(rng.randint(lo, hi) for _ in range(6)) for _ in range(40)]


def test_identity_sample_limit(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the limit is checked before any sample is drawn")

    monkeypatch.setattr(lls, "proof_identity", unreachable)
    for samples in (cli.MAX_SAMPLES + 1, 10**30):
        assert cli.main(["identity", "--samples", str(samples)]) == 2
        assert capsys.readouterr() == ("", f"error: --samples must be <= 100000, got {samples}\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_SAMPLES", 3)
    assert run(["identity", "--samples", "3"], capsys) == (0, "3/3 identity holds\n")
    assert cli.main(["identity", "--samples", "4", "--lo", "5", "--hi", "2"]) == 2
    assert capsys.readouterr().err == "error: --samples must be <= 3, got 4\n"


# ---------------------------------------------------------------------------
# validation failures exit 2
# ---------------------------------------------------------------------------


def test_bad_partition_exits_2(capsys):
    assert cli.main(["count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_count_precondition_exits_2(capsys):
    # |mu| != d is a contract violation, reported before any computation
    assert cli.main(["count", "--g", "3", "--r", "2", "--d", "5", "--mu", "2,2"]) == 2
    assert "|mu| = d" in capsys.readouterr().err


def test_out_of_range_f_exits_2(capsys):
    assert cli.main(["empty", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_plucker_without_a_series_exits_2(capsys):
    # r = 0 is no series: a bad input, not a cross-check failure
    assert cli.main(["plucker", "--g", "2", "--r", "0", "--d", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ramification_count_check requires r >= 1, got r=0\n"


def budget_message(g, r, d, limit=cli.MAX_COUNT_WORK):
    return (
        f"error: the counts of a request take at most {limit} in the sum of (e+5)^3 over their partitions,"
        f" passed at g={g}, r={r}, d={d}\n"
    )


def stub_counts(monkeypatch):
    """Replace dj_count with a stub that returns 0 and logs the parts of each call."""
    calls = []

    def stub(g, r, d, mu, path="coefficient"):
        calls.append(mu.length)
        return CountResult(0, path, 0)
    monkeypatch.setattr(dejonq, "dj_count", stub)
    return calls


def test_count_part_limit(capsys, monkeypatch):
    # one count of e parts costs (e+5)^3, so a single count takes at most 526 parts
    assert 531**3 <= cli.MAX_COUNT_WORK < 532**3
    calls = stub_counts(monkeypatch)
    pencil = ["--g", "0", "--r", "1"]
    assert run(["count", *pencil, "--d", "527", "--mu", "2,1^525"], capsys)[0] == 0
    assert calls == [526, 526]  # both routes ran
    calls.clear()
    for command, d, mu in (  # just past the budget, in a count and a sweep, and far past it
        ("count", 528, "2,1^526"), ("sweep", 528, "2,1^(d-2)"), ("count", 100001, "2,1^99999"),
    ):
        assert cli.main([command, *pencil, "--d", str(d), "--mu", mu]) == 2
        assert capsys.readouterr() == ("", budget_message(0, 1, d))
    assert calls == []  # the budget is checked before the count runs
    monkeypatch.undo()
    # a count at the budget is counted; checked at a small budget, since
    # the bracket route takes seconds at 526 parts
    monkeypatch.setattr(cli, "MAX_COUNT_WORK", 8**3)
    code, out = run(["count", *pencil, "--d", "4", "--mu", "2,1^2", "--format", "json"], capsys)
    record = json.loads(out)
    assert (code, record["status"], record["result"]) == (0, "ok", 6)  # 2g - 2 + 2d at g = 0
    assert cli.main(["count", *pencil, "--d", "5", "--mu", "2,1^3"]) == 2
    assert capsys.readouterr() == ("", budget_message(0, 1, 5, 512))


def test_plucker_part_limit(capsys, monkeypatch):
    # plucker counts mu = (r+1, 1^(d-r-1)), which has d - r parts, under the same budget
    code, out = run(["plucker", "--g", "0", "--r", "1", "--d", "527"], capsys)
    assert code == 0
    assert "result=1052" in out  # (r+1)d + (r+1)r(g-1) at g=0, r=1, d=527

    def unreachable(g, r, d):
        raise AssertionError("the budget is checked before the count runs")

    monkeypatch.setattr(dejonq, "ramification_count_check", unreachable)
    for d in (528, 20001):  # --d 20001 used to run for minutes
        assert cli.main(["plucker", "--g", "0", "--r", "1", "--d", str(d)]) == 2
        assert capsys.readouterr() == ("", budget_message(0, 1, d))
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_COUNT_WORK", 8**3)
    code, out = run(["plucker", "--g", "2", "--r", "2", "--d", "5", "--format", "json"], capsys)
    assert (code, json.loads(out)["result"]) == (0, 21)  # 3*5 + 3*2*1, a count of 3 parts
    assert cli.main(["plucker", "--g", "2", "--r", "2", "--d", "6"]) == 2
    assert capsys.readouterr() == ("", budget_message(2, 2, 6, 512))
    # past the budget, a request that has no count still names its own fault
    for argv, message in (
        (["--g", "0", "--r", "0", "--d", "400"], "ramification_count_check requires r >= 1, got r=0"),
        (["--g", "0", "--r", "-400", "--d", "0"], "ramification_count_check requires r >= 1, got r=-400"),
        (["--g", "-1", "--r", "1", "--d", "400"], "coefficient_count requires g >= 0, got g=-1"),
    ):
        assert cli.main(["plucker", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


COUNT_WORK_SWEEP = ["sweep", "--what", "count", "--r", "1", "--d", "4", "--mu", "2,1^(d-r-1)", "--format", "csv"]


def test_count_work_limit(capsys, monkeypatch):
    # each cell counts three parts, (3+5)^3 = 512 units of work
    monkeypatch.setattr(cli, "MAX_COUNT_WORK", 2 * 512)
    code, out = run([*COUNT_WORK_SWEEP, "--g", "0:1"], capsys)
    assert (code, len(out.splitlines())) == (0, 3)  # a header and 2 rows, at the limit
    real, calls = dejonq.dj_count, 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > 4:
            raise AssertionError("the work is bounded before the cell past it is counted")
        return real(*args, **kwargs)

    monkeypatch.setattr(dejonq, "dj_count", counted)
    assert cli.main([*COUNT_WORK_SWEEP, "--g", "0:5"]) == 2
    assert capsys.readouterr() == ("", budget_message(2, 1, 4, 1024))
    assert calls == 4  # two cells, both routes each
    # a cell that the count rejects before counting costs nothing
    monkeypatch.setattr(dejonq, "dj_count", real)
    for cells, status in (  # three parts each
        (["--g", "0:5", "--r", "1", "--d", "4", "--mu", "2,2,1"], "|mu| = d violated: |mu|=5, d=4"),
        (["--g", "0:5", "--r", "2", "--d", "4", "--mu", "2,1,1"], "len(mu) = d - r violated: len(mu)=3, d-r=2"),
        (["--g=-6:-1", "--r", "1", "--d", "4", "--mu", "2,1,1"], "coefficient_count requires g >= 0, got g="),
    ):
        code, out = run(["sweep", "--what", "count", *cells], capsys)
        assert (code, len(out.splitlines())) == (0, 6)
        assert all(f" status=skipped: {status}" in line for line in out.splitlines())


def test_empty_partition_count_costs_nothing(capsys, monkeypatch):
    # the empty partition has the count's shape at d = r = 0, but the count
    # rejects it before counting, so even a budget below (0+5)^3 admits it
    monkeypatch.setattr(cli, "MAX_COUNT_WORK", 5**3 - 1)
    cell = ["--g", "0", "--r", "0", "--d", "0", "--mu", "1^0"]
    assert cli.main(["count", *cell]) == 2
    assert capsys.readouterr() == ("", "error: coefficient_count requires a nonempty partition\n")
    code, out = run(["sweep", "--what", "count", *cell, "--format", "csv"], capsys)
    assert (code, out.splitlines()[1:]) == (0, ["0,0,0,,,,,skipped: coefficient_count requires a nonempty partition,"])


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 12), st.integers(-3, 8), st.integers(-3, 20), st.lists(st.integers(1, 5), max_size=6))
def test_count_error_decides_which_counts_run(g, r, d, parts):
    mu = Partition(parts)
    error = dejonq.count_error(g, r, d, mu.length, mu.total)
    routes = [outcome(dejonq.dj_count, g, r, d, mu, path) for path in ("coefficient", "bracket")]
    assert (error is None) == all(route[0] == "value" for route in routes)
    if error is not None:
        assert routes[0] == ("error", type(error), str(error))  # coefficient_count raises it
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["count", f"--g={g}", f"--r={r}", f"--d={d}", "--mu", ",".join(map(str, parts)) or "1^0"])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {error}\n")


def test_count_work_limit_admits_the_large_count_sweep(monkeypatch):
    # ROADMAP's count sweep, with each count stubbed to keep the test fast
    calls = stub_counts(monkeypatch)
    argv = ["sweep", "--g", "0:30", "--r", "1:6", "--d", "1:40", "--mu", "2^r,1^(d-2*r)"]
    records, code = cli._cmd_cells(cli.build_parser().parse_args(argv))
    assert (code, len(records)) == (0, 31 * 6 * 40)
    work = sum((e + 5) ** 3 for e in calls[::2])  # both routes count each cell
    assert work == 145_847_250 <= cli.MAX_COUNT_WORK


def test_count_work_limit_stops_the_small_partition_sweep(capsys, monkeypatch):
    # all 195,312 cells of 8 parts would run for about 18 s; at 13^3 units a
    # cell the budget stops the sweep at its 68,275th cell
    calls = stub_counts(monkeypatch)
    argv = ["sweep", "--what", "count", "--g", "0:195311", "--r", "1", "--d", "9", "--mu", "2,1^(d-r-1)"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", budget_message(68274, 1, 9))
    assert len(calls) == 2 * 68274


def test_negative_rho_single_command_exits_2(capsys):
    assert cli.main(["dim", "--g", "8", "--r", "3", "--d", "8", "--mu", "2,2", "--f", "2"]) == 2
    assert "rho" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cross-check failures exit 3 with the record still emitted
# ---------------------------------------------------------------------------


def _skew_bracket(monkeypatch):
    real = dejonq.dj_count

    def skewed(g, r, d, mu, path="coefficient"):
        result = real(g, r, d, mu, path=path)
        if path == "bracket":
            return CountResult(result.value + 1, result.path, result.ordered_value)
        return result
    monkeypatch.setattr(dejonq, "dj_count", skewed)


def _break_dj_count(monkeypatch):
    def broken(g, r, d, mu, path="coefficient"):
        raise IntegralityError("2 does not divide 57")
    monkeypatch.setattr(dejonq, "dj_count", broken)


def _skew_plucker_total(monkeypatch):
    real = dejonq.plucker_total
    monkeypatch.setattr(dejonq, "plucker_total", lambda g, r, d: real(g, r, d) - 2)


def _break_identity_at_even_g(monkeypatch):
    def proof_identity(g, m, r, d, mu_total, f):
        return g, g + (g % 2 == 0)
    monkeypatch.setattr(lls, "proof_identity", proof_identity)


COUNT_ARGV = ["count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2"]
PLUCKER_ARGV = ["plucker", "--g", "3", "--r", "2", "--d", "4"]
IDENTITY_ARGV = ["identity", "--samples", "20", "--seed", "1"]
COUNT_INPUTS = {"inputs": {"g": 3, "r": 2, "d": 4, "mu": "2,2"}, "paths": ["bracket", "coefficient"]}
PLUCKER_INPUTS = {"inputs": {"g": 3, "r": 2, "d": 4}, "paths": ["coefficient", "closed_form"]}
INTEGRALITY = {
    "result": None, "cross_check_delta": None,
    "status": "integrality violation: 2 does not divide 57", "verdict": None,
}


@pytest.mark.parametrize("argv, patch, record, plain", [
    (COUNT_ARGV, _skew_bracket, {
        **COUNT_INPUTS, "result": 28, "cross_check_delta": 1,
        "status": "cross-check failed: bracket and coefficient paths disagree", "verdict": "possible",
    }, None),
    (COUNT_ARGV, _break_dj_count, {**COUNT_INPUTS, **INTEGRALITY}, None),
    (PLUCKER_ARGV, _skew_plucker_total, {
        **PLUCKER_INPUTS, "result": 22, "cross_check_delta": 2,
        "status": "cross-check failed: count and closed form disagree", "verdict": None,
    }, None),
    (PLUCKER_ARGV, _break_dj_count, {**PLUCKER_INPUTS, **INTEGRALITY}, None),
    (IDENTITY_ARGV, _break_identity_at_even_g, {
        "inputs": {"samples": 20, "seed": 1, "lo": -5, "hi": 20}, "result": 13, "paths": ["polynomial"],
        "cross_check_delta": 7, "status": "cross-check failed: 7 tuples violate the identity", "verdict": None,
    }, "13/20 identity holds (7 failures)\n"),
], ids=[
    "count-disagreement", "count-integrality", "plucker-disagreement", "plucker-integrality", "identity-failures",
])
def test_cross_check_failure_exits_3_with_its_record(capsys, monkeypatch, argv, patch, record, plain):
    patch(monkeypatch)
    code, out = run([*argv, "--format", "json"], capsys)
    assert (code, json.loads(out)) == (3, record)
    if plain is not None:
        assert run(argv, capsys) == (3, plain)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP = ["sweep", "--g", "0:2", "--r", "1:2", "--d", "2:6", "--mu", "2^r,1^(d-2*r)"]


def test_sweep_emits_skipped_rows(capsys):
    code, out = run(SWEEP + ["--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3 * 2 * 5
    by_status = {}
    for record in records:
        key = record["status"].split(":")[0]
        by_status[key] = by_status.get(key, 0) + 1
    assert by_status["skipped"] == 6  # d < 2r cells for r=2
    assert by_status["ok"] == 24
    ok = [record for record in records if record["status"] == "ok"]
    assert all(record["cross_check_delta"] == 0 for record in ok)


def test_sweep_row_order_is_lexicographic(capsys):
    _, out = run(SWEEP + ["--format", "json"], capsys)
    keys = [(record["inputs"]["g"], record["inputs"]["r"], record["inputs"]["d"]) for record in json.loads(out)]
    assert keys == sorted(keys)


def test_sweep_repeat_runs_identical(capsys):
    _, first = run(SWEEP + ["--format", "json"], capsys)
    _, second = run(SWEEP + ["--format", "json"], capsys)
    assert first == second


def test_sweep_counts_match_closed_form(capsys):
    _, out = run(SWEEP + ["--format", "json"], capsys)
    for record in json.loads(out):
        if record["status"] != "ok":
            continue
        g, r, d = (record["inputs"][k] for k in "grd")
        assert record["result"] == dejonq.double_point_count(g, r, d)


def test_sweep_empty_grid(capsys):
    code, out = run(
        ["sweep", "--g", "0:6", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "2",
         "--what", "empty", "--format", "json"],
        capsys,
    )
    assert code == 0
    records = json.loads(out)
    # rho(g,2,4) = g - 3(g-2) < 0 once g > 3: those rows are skipped, not fatal
    ok = [record for record in records if record["status"] == "ok"]
    skipped = [record for record in records if record["status"].startswith("skipped")]
    assert [record["inputs"]["g"] for record in ok] == [0, 1, 2, 3]
    assert [record["inputs"]["g"] for record in skipped] == [4, 5, 6]
    assert all(record["result"] is False for record in ok)


def test_sweep_skips_with_the_first_error_of_each_cell(capsys):
    code, out = run(["sweep", "--g", "0", "--r", "1:3", "--d", "4", "--mu", "2^(r-2),,1", "--format", "json"], capsys)
    assert code == 0
    assert [record["status"] for record in json.loads(out)] == [
        "skipped: partition item '2^(r-2)' has negative multiplicity -1",
        "skipped: empty item in partition spec '2^(r-2),,1'",
        "skipped: empty item in partition spec '2^(r-2),,1'",
    ]


def test_sweep_cell_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_CELLS", 6)
    argv = ["sweep", "--what", "dim", "--r", "1:2", "--d", "2", "--mu", "1", "--f", "0", "--format", "csv"]
    code, out = run([*argv, "--g", "0:2"], capsys)
    assert (code, len(out.splitlines())) == (0, 7)  # a header and 6 rows, at the limit
    assert cli.main([*argv, "--g", "0:3"]) == 2
    assert capsys.readouterr() == ("", "error: a sweep takes at most 6 cells, got 8\n")


def test_huge_sweep_exits_2_before_any_cell(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the grid size is checked before anything is compiled or any cell is reached")

    for name in ("compile_partition_spec", "compile_f_spec", "_count_record"):
        monkeypatch.setattr(cli, name, unreachable)
    monkeypatch.setattr(dejonq, "count_error", unreachable)
    monkeypatch.setattr(cli.bn, "expected_dim_or_error", unreachable)
    for g, cells in (("0:1000000000", 10**9 + 1), ("0:100000000000000000000", 10**20 + 1)):
        for what in ("dim", "count"):
            argv = ["sweep", "--what", what, "--g", g, "--r", "1", "--d", "1", "--mu", "1", "--f", "0"]
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: a sweep takes at most {cli.MAX_CELLS} cells, got {cells}\n")


def test_sweep_cell_limit_admits_the_160400_cell_grid(monkeypatch):
    # a 160,400-cell grid is under the cap; the specs and the kernel are
    # stubbed to keep the test fast, and the kernel counts the cells
    evaluated = 0

    def kernel(*args):
        nonlocal evaluated
        evaluated += 1
        return 0

    mu = Partition((1,))
    monkeypatch.setattr(cli, "compile_partition_spec", lambda *args: lambda env: (mu, "1"))
    monkeypatch.setattr(cli, "compile_f_spec", lambda *args: lambda env: 0)
    monkeypatch.setattr(cli.bn, "expected_dim_or_error", kernel)
    monkeypatch.setattr(cli, "render", lambda *args, **kwargs: "")
    argv = ["sweep", "--g", "0:400", "--r", "1:20", "--d", "1:20", "--mu", "2^r,1^(d-2*r)", "--f", "span=r-1",
            "--what", "dim"]
    assert cli.run(argv) == (0, "")
    assert evaluated == 160_400


def test_sweep_partition_text_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_MU_TEXT", 21)
    argv = ["sweep", "--what", "dim", "--r", "1", "--d", "4", "--mu", "1^d", "--f", "0", "--format", "csv"]
    code, out = run([*argv, "--g", "0:2"], capsys)  # three cells of '1,1,1,1': 21 characters, at the limit
    assert (code, len(out.splitlines())) == (0, 4)

    def unreachable(*args):
        raise AssertionError("the partition text is bounded before the records are rendered")

    monkeypatch.setattr(cli, "render", unreachable)
    assert cli.main([*argv, "--g", "0:9"]) == 2
    assert capsys.readouterr() == (
        "", "error: a request writes at most 21 characters of partition text, passed at g=3, r=1, d=4\n"
    )


def test_sweep_partition_text_limit_admits_the_cap_sweep():
    # --mu does not read g, so each of the cap sweep's 500 values of g adds
    # the text of the g=0 slice
    argv = ["sweep", "--what", "dim", "--g", "0", "--r", "1:20", "--d", "1:20", "--mu", "2^r,1^(d-2*r)",
            "--f", "span=r-1"]
    records, _ = cli._cmd_cells(cli.build_parser().parse_args(argv))
    text = 500 * sum(len(record[3]) for record in records)  # the mu field
    assert text == 2_900_000 <= cli.MAX_MU_TEXT


# Each kind of skipped dim cell, as (the message it gives, the lowest g, the
# other arguments of a sweep whose every cell it skips).
SKIP_KINDS = [
    ("unknown variable 'x'", 10, ["--r", "2", "--d", "4", "--mu", "x", "--f", "2"]),
    ("has negative multiplicity -1", 10, ["--r", "2", "--d", "4", "--mu", "2^(r-3)", "--f", "2"]),
    ("unknown variable 'q'", 10, ["--r", "2", "--d", "4", "--mu", "2,2", "--f", "q"]),
    ("genus must be >= 0", -59, ["--r", "2", "--d", "4", "--mu", "2,2", "--f", "2"]),
    ("series dimension must be >= 1", 10, ["--r", "0", "--d", "4", "--mu", "2,2", "--f", "2"]),
    ("degree must be >= 1", 10, ["--r", "2", "--d", "0", "--mu", "2,2", "--f", "2"]),
    ("outside the valid range", 10, ["--r", "2", "--d", "4", "--mu", "2,2", "--f", "9"]),
    ("< 0; the dimension statement assumes rho >= 0", 10, ["--r", "2", "--d", "4", "--mu", "2,2", "--f", "2"]),
]

# The same for skipped count cells: a --mu error, then count_error's four.
COUNT_SKIP_KINDS = [
    ("unknown variable 'x'", 10, ["--r", "2", "--d", "4", "--mu", "x"]),
    ("|mu| = d violated", 10, ["--r", "2", "--d", "4", "--mu", "2,1"]),
    ("len(mu) = d - r violated", 10, ["--r", "2", "--d", "4", "--mu", "2,1,1"]),
    ("coefficient_count requires g >= 0", -59, ["--r", "2", "--d", "4", "--mu", "2,2"]),
    ("coefficient_count requires a nonempty partition", 10, ["--r", "0", "--d", "0", "--mu", "1^0"]),
]


def exception_events(argv):
    """cli.run(argv), and the number of exception events in djcalc's frames,
    not counting the GeneratorExit that closes a generator left unfinished."""
    package = os.path.dirname(cli.__file__)
    events = 0

    def trace(frame, event, arg):
        nonlocal events
        if not frame.f_code.co_filename.startswith(package):
            return None
        if event == "exception" and arg[0] is not GeneratorExit:
            events += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = cli.run(argv)
    finally:
        sys.settrace(previous)
    return events, result


def assert_skipped_cells_raise_nothing(what, message, g, rest):
    # a compile error may raise once per request, never once per cell
    counted = []
    for grid in (f"{g}", f"{g}:{g + 49}"):
        events, (code, out) = exception_events(["sweep", "--what", what, f"--g={grid}", *rest, "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert len(rows) == (1 if ":" not in grid else 50)
        assert all(row["status"].startswith("skipped: ") and message in row["status"] for row in rows)
        counted.append(events)
    assert counted[1] == counted[0]


@pytest.mark.parametrize("message, g, rest", SKIP_KINDS)
def test_skipped_dim_cells_raise_nothing(message, g, rest):
    assert_skipped_cells_raise_nothing("dim", message, g, rest)


@pytest.mark.parametrize("message, g, rest", COUNT_SKIP_KINDS)
def test_skipped_count_cells_raise_nothing(message, g, rest):
    assert_skipped_cells_raise_nothing("count", message, g, rest)


def test_sweep_requires_f_for_dim(capsys):
    assert cli.main(["sweep", "--g", "1", "--r", "2", "--d", "4", "--mu", "2,2", "--what", "dim"]) == 2


# ---------------------------------------------------------------------------
# output encodings carry identical records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["count", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2"],
    ["dim", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "1"],
    ["empty", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "1"],
    ["plucker", "--g", "1", "--r", "2", "--d", "4"],
    ["identity", "--samples", "5"],
    ["sweep", "--g", "0:1", "--r", "1", "--d", "2", "--mu", "1,1"],
], ids=lambda argv: argv[0])
def test_every_subcommand_takes_format_with_plain_as_default(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--format", "xml"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""
    assert run(argv, capsys) == run([*argv, "--format", "plain"], capsys)


def csv_records(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return header, data


def test_csv_and_json_records_match(capsys):
    _, json_out = run(SWEEP + ["--format", "json"], capsys)
    _, csv_out = run(SWEEP + ["--format", "csv"], capsys)
    records = json.loads(json_out)
    header, data = csv_records(csv_out)
    assert header == ["g", "r", "d", "mu", "result", "paths", "cross_check_delta", "status", "verdict"]
    assert len(data) == len(records)
    for row, record in zip(data, records):
        cells = dict(zip(header, row))
        for key in ("g", "r", "d"):
            assert int(cells[key]) == record["inputs"][key]
        assert cells["mu"] == record["inputs"]["mu"]
        expected_result = "" if record["result"] is None else str(record["result"])
        assert cells["result"] == expected_result
        assert cells["paths"] == "+".join(record["paths"])
        expected_delta = "" if record["cross_check_delta"] is None else str(record["cross_check_delta"])
        assert cells["cross_check_delta"] == expected_delta
        assert cells["status"] == record["status"]
        assert cells["verdict"] == (record["verdict"] or "")


# render builds each format's layout from cli.KEYS.
@pytest.mark.parametrize("argv, keys", [
    (SWEEP, ("g", "r", "d", "mu")),  # 24 ok and 6 skipped rows
    (["sweep", "--what", "dim", "--g", "0:6", "--r", "1:2", "--d", "4", "--mu", "2^(r-2),1^2", "--f", "span=r-1"],
     ("g", "r", "d", "mu", "f")),  # skipped at the partition (r=1) and at rho < 0 (large g)
    (["sweep", "--what", "empty", "--g", "0:6", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "2"],
     ("g", "r", "d", "mu", "f")),
    (["plucker", "--g", "3", "--r", "2", "--d", "4"], ("g", "r", "d")),
    (["identity", "--samples", "5"], ("samples", "seed", "lo", "hi")),
])
def test_records_of_one_command_share_their_input_keys(argv, keys):
    code, out = cli.run([*argv, "--format", "json"])
    assert code == 0
    records = json.loads(out) if argv[0] == "sweep" else [json.loads(out)]
    assert {tuple(record["inputs"]) for record in records} == {keys}
    if argv[0] == "sweep":
        assert {record["status"].split(":")[0] for record in records} == {"ok", "skipped"}


# Leaves of every type a record holds, with the strings json escapes.
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**64, max_value=2**300), st.integers(min_value=-(2**300), max_value=-(2**64)),
    st.text(), st.text(alphabet='"\\\n\t\x00\x1f\x7f%é€😀ab'),
)
json_paths = st.text(alphabet='"\\\n%éab_')

# The input keys of each command's records (see
# test_records_of_one_command_share_their_input_keys); a sweep's are those of
# its --what.
INPUT_KEYS = {
    "count": ("g", "r", "d", "mu"),
    "dim": ("g", "r", "d", "mu", "f"),
    "empty": ("g", "r", "d", "mu", "f"),
    "plucker": ("g", "r", "d"),
    "identity": ("samples", "seed", "lo", "hi"),
}
COMMAND_KEYS = [
    (INPUT_KEYS[what], command, what) for command, what in (
        ("count", "count"), ("dim", "dim"), ("empty", "empty"), ("plucker", "plucker"), ("identity", "identity"),
        ("sweep", "count"), ("sweep", "dim"), ("sweep", "empty"),
    )
]


def test_key_table():
    assert cli.KEYS == INPUT_KEYS


# Requests whose records are all ok, skipped, exit-3 or integrality rows,
# with the patch that makes the last two.
SKIPPING_COUNT_SWEEP = ["sweep", "--what", "count", "--g", "0", "--r", "1:3", "--d", "4", "--mu", "2^(r-2),,1"]
SKIPPING_DIM_SWEEP = ["--g", "0:6", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "2"]


@pytest.mark.parametrize("argv, patch, statuses", [
    (COUNT_ARGV, None, {"ok"}),
    (SWEEP, None, {"ok", "skipped"}),
    (SKIPPING_COUNT_SWEEP, None, {"skipped"}),
    (COUNT_ARGV, _skew_bracket, {"cross-check failed"}),
    (SWEEP, _skew_bracket, {"cross-check failed", "skipped"}),
    (COUNT_ARGV, _break_dj_count, {"integrality violation"}),
    (["dim", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "2"], None, {"ok"}),
    (["empty", "--g", "3", "--r", "2", "--d", "4", "--mu", "2,2", "--f", "2"], None, {"ok"}),
    (["sweep", "--what", "dim", *SKIPPING_DIM_SWEEP], None, {"ok", "skipped"}),
    (["sweep", "--what", "empty", *SKIPPING_DIM_SWEEP], None, {"ok", "skipped"}),
    (["sweep", "--what", "dim", "--g", "0", "--r", "1", "--d", "4", "--mu", "x", "--f", "y"], None, {"skipped"}),
    (PLUCKER_ARGV, None, {"ok"}),
    (PLUCKER_ARGV, _skew_plucker_total, {"cross-check failed"}),
    (PLUCKER_ARGV, _break_dj_count, {"integrality violation"}),
    (IDENTITY_ARGV, None, {"ok"}),
    (IDENTITY_ARGV, _break_identity_at_even_g, {"cross-check failed"}),
])
def test_every_record_is_its_input_values_and_five_fields(monkeypatch, argv, patch, statuses):
    if patch is not None:
        patch(monkeypatch)
    args = cli.build_parser().parse_args(argv)
    records, _ = cli.COMMANDS[args.command](args)
    assert {record[-2].split(":")[0] for record in records} == statuses
    keys = INPUT_KEYS[args.what]  # a sweep's --what, else the command
    assert {(type(record), len(record)) for record in records} == {(tuple, len(keys) + 5)}
    assert {type(record[len(keys) + 1]) for record in records} == {tuple}  # paths


# Records with these input keys and these leaves, path and status texts.
def records_of(keys, leaves, text, status):
    return st.tuples(*[leaves] * len(keys), leaves, st.lists(text, max_size=3).map(tuple), leaves, status, leaves)


# The record as the nested object that its JSON output spells out.
def as_object(keys, record):
    result, paths, delta, status, verdict = record[len(keys):]
    return {
        "inputs": dict(zip(keys, record)), "result": result, "paths": list(paths),
        "cross_check_delta": delta, "status": status, "verdict": verdict,
    }


# A sweep writes a list of records, any other command its one record.
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(COMMAND_KEYS).flatmap(lambda kcw: st.tuples(st.just(kcw), st.lists(
    records_of(kcw[0], json_leaves, json_paths, json_leaves), min_size=1, max_size=4 if kcw[1] == "sweep" else 1))))
def test_json_output_is_json_dumps(command_records):
    (keys, command, what), records = command_records
    objects = [as_object(keys, record) for record in records]
    expected = json.dumps(objects if command == "sweep" else objects[0], indent=2) + "\n"
    assert cli.render(records, "json", command, what) == expected


def test_json_output_keeps_the_int_conversion_limit():
    record = (2, 1, 3, 10**4999, (), None, "ok", None)  # 5,000 digits
    with pytest.raises(ValueError) as expected:
        json.dumps(as_object(INPUT_KEYS["plucker"], record), indent=2)
    with pytest.raises(ValueError) as got:
        cli.render([record], "json", "plucker", "plucker")
    assert str(got.value) == str(expected.value)


# Reference writers for the plain and CSV formats: a line or row per record,
# built field by field.
def _cell_oracle(value):
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def plain_oracle(records):
    lines = []
    for record in records:
        bits = [f"{k}={_cell_oracle(v)}" for k, v in record["inputs"].items()]
        bits.append(f"result={_cell_oracle(record['result'])}")
        bits.append(f"paths={'+'.join(record['paths'])}")
        bits.append(f"delta={_cell_oracle(record['cross_check_delta'])}")
        bits.append(f"status={record['status']}")
        bits.append(f"verdict={_cell_oracle(record['verdict'])}")
        lines.append(" ".join(bits))
    return "\n".join(lines) + "\n"


def csv_oracle(records):
    columns = list(records[0]["inputs"].keys()) + ["result", "paths", "cross_check_delta", "status", "verdict"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        row = [_cell_oracle(record["inputs"].get(k)) for k in columns[: len(record["inputs"])]]
        row.append(_cell_oracle(record["result"]))
        row.append("+".join(record["paths"]))
        row.append(_cell_oracle(record["cross_check_delta"]))
        row.append(record["status"])
        row.append(_cell_oracle(record["verdict"]))
        writer.writerow(row)
    return buf.getvalue()


# Leaves with the characters that CSV quotes and that plain and %-templates
# treat specially; a status is always a string.
row_text = st.text(alphabet=',"\n\r=% é€😀ab')
row_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**64, max_value=2**300), st.integers(min_value=-(2**300), max_value=-(2**64)),
    row_text,
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(COMMAND_KEYS).flatmap(lambda kcw: st.tuples(st.just(kcw), st.lists(
    records_of(kcw[0], row_leaves, row_text, row_text), min_size=1, max_size=4))))
def test_plain_and_csv_output_match_the_reference_writers(command_records):
    (keys, command, what), records = command_records
    objects = [as_object(keys, record) for record in records]
    assert cli.render(records, "csv", command, what) == csv_oracle(objects)
    if what != "identity":
        assert cli.render(records, "plain", command, what) == plain_oracle(objects)
