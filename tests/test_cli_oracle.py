"""Every record of drawn count, plucker and dim/empty sweep requests, in each
format, against the benchmark's independent oracle (perfbench/oracle.py),
which recomputes each value without importing djcalc."""

import importlib.util
import itertools
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from djcalc import cli


def _load(name):
    # perfbench is not a package, and workloads imports oracle by its bare name
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parents[1] / "perfbench" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
workloads = _load("workloads")


def assert_records(argv, expected, many):
    """Run argv in each format and match every record against `expected`."""
    for fmt in cli.FORMATS:
        code, out = cli.run([*argv, "--format", fmt])
        assert code == 0, (argv, fmt)
        got = oracle.parse_records(fmt, out, many)
        assert len(got) == len(expected), (argv, fmt)
        for exp, rec in zip(expected, got):
            assert oracle.matches(exp, rec), (argv, fmt, exp, rec)


# The count families of perfbench's count_stream, each with its closed form
# (None for a drawn partition), and plucker.  2^(g-1) is the theta family,
# where r = g - 1 and d = 2g - 2 put rho at 0, as does 2^r,1^(d-2*r) at
# d = r + e and g = (r+1)e/r.
FAMILIES = {"2^r,1^(d-2*r)": "double", "r+1,1^(d-r-1)": "ramification", "2^(g-1)": "theta", "literal": "random"}
KINDS = ("plucker", *FAMILIES)


@settings(deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 14), st.integers(1, 6), st.integers(1, 8),
       st.lists(st.integers(1, 4), min_size=1, max_size=6))
@example("2^(g-1)", 4, 1, 1, [1])  # rho(4, 3, 6) = 0
@example("2^r,1^(d-2*r)", 4, 1, 2, [1])  # rho(4, 1, 3) = 0
def test_single_cells_match_the_oracle(kind, g, r, n, parts):
    if kind == "plucker":
        d = r + n
        assert_records(["plucker", "--g", str(g), "--r", str(r), "--d", str(d)], [oracle.expect_plucker(g, r, d)], False)
        return
    if kind == "2^(g-1)":
        g = max(g, 2)
        r, d = g - 1, 2 * g - 2
    elif kind == "literal":
        if max(parts) == 1:
            parts[0] = 2
        d = sum(parts)
        r = d - len(parts)
    elif kind == "2^r,1^(d-2*r)":
        d = r + max(n, r)
    else:
        d = r + n
    if kind != "literal":
        parts = oracle.expand_pattern(workloads.PATTERNS[kind], g, r, d)
    spec = ",".join(map(str, parts)) if kind == "literal" else kind
    expected = oracle.expect_count(g, r, d, parts, FAMILIES[kind])
    assert_records(["count", "--g", str(g), "--r", str(r), "--d", str(d), "--mu", spec], [expected], False)


@settings(deadline=None)
@given(st.sampled_from(("dim", "empty")), st.sampled_from(sorted(workloads.PATTERNS)),
       st.sampled_from(sorted(workloads.F_SPECS)), st.integers(-1, 4), st.integers(1, 3), st.integers(0, 2),
       st.integers(1, 3), st.integers(0, 3), st.integers(1, 6))
def test_small_sweeps_match_the_oracle(what, pattern, f_text, g0, gn, r0, rn, d0, dn):
    grid = (range(g0, g0 + gn), range(r0, r0 + rn), range(d0, d0 + dn))
    items, f_fn = workloads.PATTERNS[pattern], workloads.F_SPECS[f_text]
    expected = [oracle.expect_cell(what, g, r, d, pattern, items, f_text, f_fn)[0]
                for g, r, d in itertools.product(*grid)]
    argv = ["sweep", "--what", what, "--mu", pattern, "--f", f_text]
    for name, values in zip("grd", grid):
        argv.append(f"--{name}={values[0]}:{values[-1]}")
    assert_records(argv, expected, True)
