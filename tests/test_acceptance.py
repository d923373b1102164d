"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are zero; the arithmetic is exact.  Run with

    pytest -s tests/test_acceptance.py

to see the per-criterion lines on stdout.
"""

import os
import random
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

import djcalc
from djcalc.bn import (
    DJProblem,
    SeriesParams,
    corollary_degenerate_tangents,
    corollary_flex_bitangent,
    corollary_tangent_hyperplane_dim,
    corollary_tangential_secant,
    corollary_total_ramification,
    expected_dim_sigma,
    is_empty_for_general_curve,
    rho_raw,
)
from djcalc.dejonq import (
    bracket,
    coefficient_count,
    dj_count,
    double_point_count,
    odd_theta_count,
    plucker_total,
    ramification_count_check,
    tangential_trisecant_count,
)
from djcalc.exact import Partition
from djcalc.lls import (
    VanishingSequence,
    additivity_check,
    case_ii_min_sequence,
    complementary_vanishing,
    is_refined_pair,
    proof_identity,
    ramification_from_vanishing,
    split_sequence,
    weight,
)


def report(number, description, ok):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number:02d} failed: {description}"


def test_criterion_01_plane_quartic_bitangents():
    by_coeff = dj_count(3, 2, 4, Partition([2, 2]), path="coefficient").value
    by_bracket = dj_count(3, 2, 4, Partition([2, 2]), path="bracket").value
    closed = double_point_count(3, 2, 4)
    ok = by_coeff == by_bracket == closed == 28
    report(1, "28 bitangents of the plane quartic, both paths and the closed form", ok)


def test_criterion_02_odd_theta_characteristics():
    expected = {2: 6, 3: 28, 4: 120, 5: 496}
    ok = True
    for g, value in expected.items():
        mu = Partition((2,) * (g - 1))
        ok &= dj_count(g, g - 1, 2 * g - 2, mu).value == value == odd_theta_count(g)
    report(2, "odd theta characteristic counts 6, 28, 120, 496 for g in 2..5", ok)


def test_criterion_03_double_point_formula_agreement():
    mismatches = 0
    for g in range(7):
        for r in range(1, 5):
            for d in range(2 * r, 11):
                mu = Partition((2,) * r + (1,) * (d - 2 * r))
                if dj_count(g, r, d, mu).value != double_point_count(g, r, d):
                    mismatches += 1
    report(3, f"double-point formula on the full grid ({mismatches} mismatches)", mismatches == 0)


def test_criterion_04_plucker_cross_check():
    mismatches = 0
    for g in range(7):
        for r in range(1, 5):
            for d in range(r + 1, 11):
                counted, closed = ramification_count_check(g, r, d)
                if counted != closed or closed != plucker_total(g, r, d):
                    mismatches += 1
    report(4, f"simple-ramification count equals the closed-form total ({mismatches} mismatches)", mismatches == 0)


def test_criterion_05_bracket_coefficient_equivalence():
    rng = random.Random(20240601)
    mismatches = 0
    for _ in range(500):
        e = rng.randint(1, 6)
        mu = Partition(rng.randint(1, 4) for _ in range(e))
        d = mu.total
        for g in range(9):
            if bracket(mu, g) != coefficient_count(g, d - e, d, mu):
                mismatches += 1
    report(5, f"bracket == coefficient on 500 random partitions x g in 0..8 ({mismatches} mismatches)", mismatches == 0)


def test_criterion_06_corollary_consistency():
    mismatches = 0
    for g in range(13):
        for r in range(1, 7):
            for d in range(1, 17):
                if rho_raw(g, r, d) < 0:
                    continue
                params = SeriesParams(g, r, d)
                for e in range(1, r + 1):
                    p = DJProblem(params, Partition([2] + [1] * (e - 1)), 1)
                    if corollary_tangential_secant(g, r, d, e) != is_empty_for_general_curve(p):
                        mismatches += 1
                for e in range(1, (r + 1) // 2 + 1):
                    p = DJProblem(params, Partition([2] * e), 1)
                    if corollary_degenerate_tangents(g, r, d, e) != is_empty_for_general_curve(p):
                        mismatches += 1
                if r >= 3:
                    for e in range(r + 1, r + 9):
                        p = DJProblem(params, Partition([2] * e), 2 * e - r)
                        if corollary_tangent_hyperplane_dim(g, r, d, e) != expected_dim_sigma(p):
                            mismatches += 1
                    for a1 in range(1, 9):
                        for a2 in range(1, a1 + 1):
                            p = DJProblem(params, Partition([a1, a2]), a1 + a2 - 2)
                            if corollary_flex_bitangent(g, r, d, a1, a2) != is_empty_for_general_curve(p):
                                mismatches += 1
                for a in range(r, d + 1):
                    p = DJProblem(params, Partition([a]), a + 1 - r)
                    if corollary_total_ramification(g, r, d, a) != is_empty_for_general_curve(p):
                        mismatches += 1

    named = True
    # rho = 0, r = 4: no tangential trisecants (mu = (2,1), e = 2)
    named &= rho_raw(0, 4, 4) == 0 and corollary_tangential_secant(0, 4, 4, 2) is True
    named &= rho_raw(5, 4, 8) == 0 and corollary_tangential_secant(5, 4, 8, 2) is True
    # e = 2, r = 5, rho = 0: no pairs of coplanar tangent lines
    named &= rho_raw(6, 5, 10) == 0 and corollary_degenerate_tangents(6, 5, 10, 2) is True
    # r = 3, rho <= 1, |mu| = 4: no bitangent or flex line
    named &= rho_raw(4, 3, 6) == 0 and corollary_flex_bitangent(4, 3, 6, 2, 2) is True
    named &= corollary_flex_bitangent(4, 3, 6, 3, 1) is True
    named &= rho_raw(5, 3, 7) == 1 and corollary_flex_bitangent(5, 3, 7, 2, 2) is True
    named &= corollary_flex_bitangent(5, 3, 7, 3, 1) is True
    # canonical series: no pencil of degree g-1 totally ramified at a point
    for g in range(2, 13):
        named &= corollary_total_ramification(g, g - 1, 2 * g - 2, g - 1) is True

    ok = mismatches == 0 and named
    report(6, f"five predicates match the general one on the grid ({mismatches} mismatches), named instances hold", ok)


def test_criterion_07_proof_identity():
    failures = 0
    box = range(-2, 9)
    for g in box:
        for m in box:
            for r in box:
                for d in box:
                    for s in box:
                        for f in box:
                            lhs, rhs = proof_identity(g, m, r, d, s, f)
                            if lhs != rhs:
                                failures += 1
    rng = random.Random(7)
    for _ in range(1000):
        args = tuple(rng.randint(-5, 20) for _ in range(6))
        lhs, rhs = proof_identity(*args)
        if lhs != rhs:
            failures += 1
    report(7, f"dimension-count identity on the exhaustive box and 1000 random tuples ({failures} failures)", failures == 0)


def test_criterion_08_case_ii_weight():
    failures = 0
    for e in range(0, 7):
        for parts in combinations_with_replacement(range(1, 6), e):
            mu = Partition(parts)
            for r in range(0, 9):
                for f in range(max(mu.total - r, 0), mu.total + 1):
                    seq = case_ii_min_sequence(mu, f, r)
                    if weight(ramification_from_vanishing(seq)) != f * (r + 1 - mu.total + f):
                        failures += 1
    report(8, f"minimal collision sequence has weight f(r+1-|mu|+f) on the full grid ({failures} failures)", failures == 0)


def test_criterion_09_sequence_kit_properties():
    rng = random.Random(424242)
    failures = 0

    def random_vanishing(r, d):
        return VanishingSequence(sorted(rng.sample(range(d + 1), r + 1)), d)

    def compatible_partner(a):
        # random b with a_i + b_{r-i} >= d (node condition); equality iff refined
        d, r = a.d, a.r
        entries, prev = [], -1
        for j in range(r + 1):
            lo = max(d - a.entries[r - j], prev + 1)
            hi = d - (r - j)
            entries.append(lo if rng.random() < 0.7 else rng.randint(lo, hi))
            prev = entries[-1]
        return VanishingSequence(entries, d)

    for _ in range(10_000):
        r = rng.randint(0, 7)
        d = rng.randint(r, 14)
        a = random_vanishing(r, d)
        if complementary_vanishing(complementary_vanishing(a)) != a:
            failures += 1
        if not is_refined_pair(a, complementary_vanishing(a)):
            failures += 1
        b = complementary_vanishing(a) if rng.random() < 0.3 else compatible_partner(a)
        k = rng.randint(0, r + 1)
        sub, comp = split_sequence(a, rng.sample(range(r + 1), k), sub_size=k)
        if sorted(sub + comp) != list(a.entries):
            failures += 1
        if additivity_check(b, sub, comp, r, d) != is_refined_pair(a, b):
            failures += 1
    report(9, f"involution, refined<->additivity, split multiset equality on 10^4 instances ({failures} failures)", failures == 0)


def test_criterion_10_tangential_trisecant_closed_form():
    ok = tangential_trisecant_count(6, 4) == 24
    ok &= tangential_trisecant_count(2, 0) == 0
    for d in range(21):
        for g in range(21):
            ok &= tangential_trisecant_count(d, g) == 2 * (d - 2) * (d - 3) + 2 * g * (d - 6)
    report(10, "tangential trisecant closed form matches the literal polynomial on [0,20]^2", ok)


def test_criterion_11_sweep_determinism():
    cmd = [
        sys.executable, "-m", "djcalc", "sweep",
        "--g", "0:6", "--r", "1:3", "--d", "1:10",
        "--mu", "2^r,1^(d-2*r)", "--format", "json",
    ]
    # the child runs the djcalc this test imported, installed or not
    package_root = str(Path(djcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    elapsed = time.monotonic() - start
    ok = first.returncode == 0 and second.returncode == 0
    ok &= first.stdout == second.stdout and len(first.stdout) > 0
    ok &= elapsed < 60
    report(11, f"two sweep runs byte-identical in {elapsed:.1f}s", ok)
