"""Tests for the two count routes against each other, against closed forms,
and against two independent oracles: full series expansion and subset summation."""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import djcalc.dejonq
import djcalc.exact
from djcalc.dejonq import (
    CountResult,
    bracket,
    coefficient_count,
    dj_count,
    double_point_count,
    odd_theta_count,
    plucker_total,
    ramification_count_check,
    tangential_trisecant_count,
)
from djcalc.errors import ContractViolation
from djcalc.exact import Partition, falling_factorial

# ---------------------------------------------------------------------------
# oracle: truncated multilinear polynomials, dict {bitmask: coeff}, t_i^2 = 0.
# Slow but independent of both production routes.
# ---------------------------------------------------------------------------


def ml_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if m1 & m2:
                continue
            key = m1 | m2
            out[key] = out.get(key, 0) + c1 * c2
    return out


def ml_pow(p, n):
    out = {0: 1}
    for _ in range(n):
        out = ml_mul(out, p)
    return out


def ml_inv(p, e):
    # p = 1 + q with q nilpotent: 1/p = sum_{k=0}^{e} (-q)^k
    q = {m: -c for m, c in p.items() if m != 0}
    out = {0: 1}
    power = {0: 1}
    for _ in range(e):
        power = ml_mul(power, q)
        for m, c in power.items():
            out[m] = out.get(m, 0) + c
    return out


def expanded_coefficient(g, r, d, mu):
    """Coefficient of t_1...t_e in (1+sum a_i^2 t_i)^g (1+sum a_i t_i)^(d-r-g),
    by actually expanding the truncated series."""
    e = mu.length
    lin = {0: 1}
    sq = {0: 1}
    for i, a in enumerate(mu.parts):
        lin[1 << i] = a
        sq[1 << i] = a * a
    first = ml_pow(sq, g)
    n = d - r - g
    second = ml_pow(lin, n) if n >= 0 else ml_pow(ml_inv(lin, e), -n)
    return ml_mul(first, second).get((1 << e) - 1, 0)


def subset_sum_count(g, r, d, mu):
    """The coefficient of t_1...t_e summed term by term over all 2^e subsets S:

        sum over S of ff(g,|S|) * prod_{i in S} a_i^2 * ff(d-r-g, e-|S|) * prod_{i not in S} a_i
    """
    parts = mu.parts
    e = len(parts)
    total = 0
    for mask in range(1 << e):
        size = 0
        prod = 1
        for i in range(e):
            if mask >> i & 1:
                size += 1
                prod *= parts[i] * parts[i]
            else:
                prod *= parts[i]
        total += falling_factorial(g, size) * falling_factorial(d - r - g, e - size) * prod
    return total


def small_partitions(max_len, max_part):
    for e in range(1, max_len + 1):
        for parts in combinations_with_replacement(range(1, max_part + 1), e):
            yield Partition(parts)


def partitions_of(n, largest=None):
    """Every partition of n into parts of at most `largest`, as tuples."""
    if n == 0:
        yield ()
        return
    for a in range(min(n, largest or n), 0, -1):
        for rest in partitions_of(n - a, a):
            yield (a, *rest)


# ---------------------------------------------------------------------------
# bracket route
# ---------------------------------------------------------------------------


def test_bracket_examples():
    assert bracket(Partition([2, 2]), 3) == 56
    # by hand: coefficient of t1 t2 in (1+4t1+4t2)(1+2t1+2t2) is 8+8
    assert bracket(Partition([2, 2]), 1) == 16
    # (g=0, e=1): coefficient of t1 in (1+t1)
    assert bracket(Partition([1]), 0) == 1


def test_bracket_rejects_empty_partition():
    with pytest.raises(ContractViolation):
        bracket(Partition([]), 3)


def test_bracket_matches_expansion_oracle():
    for mu in small_partitions(3, 3):
        d = mu.total
        r = d - mu.length
        for g in range(5):
            assert bracket(mu, g) == expanded_coefficient(g, r, d, mu), (mu, g)


# ---------------------------------------------------------------------------
# coefficient route
# ---------------------------------------------------------------------------


def test_coefficient_count_examples():
    # subset sum by hand: 8 - 24 - 24 + 96
    assert coefficient_count(3, 2, 4, Partition([2, 2])) == 56
    # coefficient of t1 in (1+4t1): the 4 branch points of an elliptic double cover
    assert coefficient_count(1, 1, 2, Partition([2])) == 4
    assert coefficient_count(0, 1, 2, Partition([2])) == 2


def test_coefficient_count_contract_violations():
    with pytest.raises(ContractViolation) as err:
        coefficient_count(3, 2, 5, Partition([2, 2]))
    assert "|mu| = d" in str(err.value)
    with pytest.raises(ContractViolation) as err:
        coefficient_count(3, 1, 4, Partition([2, 2]))
    assert "len(mu) = d - r" in str(err.value)


def test_coefficient_count_matches_expansion_oracle():
    for mu in small_partitions(3, 3):
        d = mu.total
        r = d - mu.length
        for g in range(5):
            expected = expanded_coefficient(g, r, d, mu)
            assert coefficient_count(g, r, d, mu) == subset_sum_count(g, r, d, mu) == expected, (mu, g)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=10), st.integers(0, 30))
def test_bracket_equals_coefficient(parts, g):
    mu = Partition(parts)
    d = mu.total
    r = d - mu.length
    assert bracket(mu, g) == coefficient_count(g, r, d, mu) == subset_sum_count(g, r, d, mu)


# ---------------------------------------------------------------------------
# certificate: for a fixed mu (d = |mu|, r = d - e) each route evaluates one
# term when 0 <= g <= e and its full sum when g > e, so each branch is
# certified on its own.  The first holds only g = 0..e, where both routes are
# checked at every g.  On the second each route is a polynomial in g of degree
# at most e, and so is subset_sum_count, so agreement at g = e+1..2e+1 is
# agreement at every g > e.
# ---------------------------------------------------------------------------

ROUTES = {
    "coefficient": lambda g, mu: coefficient_count(g, mu.total - mu.length, mu.total, mu),
    "bracket": lambda g, mu: bracket(mu, g),
}

# every partition with |mu| <= 12: 271 of them
CERTIFIED = [Partition(parts) for n in range(1, 13) for parts in partitions_of(n)]


def finite_difference(values):
    """The n-th finite difference of n+1 values at consecutive g: 0 when they
    lie on a polynomial of degree less than n."""
    n = len(values) - 1
    return sum((-1) ** j * comb(n, j) * value for j, value in enumerate(values))


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_has_degree_at_most_e_in_g(route):
    count = ROUTES[route]
    for mu in CERTIFIED:
        e = mu.length
        assert finite_difference([count(g, mu) for g in range(e + 2)]) == 0, mu


def test_both_routes_agree_with_subset_summation_at_every_g():
    for mu in CERTIFIED:
        d = mu.total
        for g in range(mu.length + 1):
            expected = subset_sum_count(g, d - mu.length, d, mu)
            assert [count(g, mu) for count in ROUTES.values()] == [expected] * 2, (mu, g)


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_has_degree_at_most_e_in_g_past_e(route):
    count = ROUTES[route]
    for mu in CERTIFIED:
        e = mu.length
        assert finite_difference([count(g, mu) for g in range(e + 1, 2 * e + 3)]) == 0, mu


def test_both_routes_agree_with_subset_summation_past_e():
    for mu in CERTIFIED:
        d = mu.total
        e = mu.length
        for g in range(e + 1, 2 * e + 2):
            expected = subset_sum_count(g, d - e, d, mu)
            assert [count(g, mu) for count in ROUTES.values()] == [expected] * 2, (mu, g)


def calls_per_g(monkeypatch, route, primitive, mu):
    """How many times `route` calls `primitive` at each g in 0..2e+1."""
    calls = []
    original = getattr(djcalc.dejonq, primitive)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(djcalc.dejonq, primitive, counting)
    per_g = []
    for g in range(2 * mu.length + 2):
        calls.clear()
        ROUTES[route](g, mu)
        per_g.append(len(calls))
    return per_g


@pytest.mark.parametrize(
    ("route", "primitive", "per_term"), [("bracket", "elementary_symmetric", 1), ("coefficient", "falling_factorial", 2)]
)
def test_each_route_evaluates_one_term_when_g_is_at_most_e(monkeypatch, route, primitive, per_term):
    mu = Partition([3, 2, 2, 1, 1, 1])
    e = mu.length
    per_g = calls_per_g(monkeypatch, route, primitive, mu)
    assert per_g == [per_term] * (e + 1) + [per_term * (e + 1)] * (e + 1)


def test_coefficient_route_builds_its_product_up_to_degree_g_when_g_is_at_most_e(monkeypatch):
    mu = Partition([3, 2, 2, 1, 1, 1])
    e, ns = mu.length, list(mu.multiplicities.values())
    per_g = calls_per_g(monkeypatch, "coefficient", "binomial", mu)
    # one binomial per entry of each multiplicity's row, truncated at degree g
    assert per_g == [sum(min(n, g) + 1 for n in ns) for g in range(e + 1)] + [sum(n + 1 for n in ns)] * (e + 1)
    assert per_g[:4] == [3, 6, 8, 9]


def test_coefficient_count_equals_bracket_at_large_length():
    mu = Partition((5,) * 7 + (3,) * 40 + (2,) * 33 + (1,) * 40)
    assert mu.length == 120
    d = mu.total
    for g in (0, 119, 121):
        assert coefficient_count(g, d - mu.length, d, mu) == bracket(mu, g), g


def test_coefficient_count_does_not_use_elementary_symmetric(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the coefficient route must not call elementary_symmetric")

    mu = Partition([3, 2, 2, 1, 1, 1])
    d = mu.total
    expected = subset_sum_count(4, d - mu.length, d, mu)
    monkeypatch.setattr(djcalc.exact, "elementary_symmetric", forbidden)
    monkeypatch.setattr(djcalc.dejonq, "elementary_symmetric", forbidden)
    assert coefficient_count(4, d - mu.length, d, mu) == expected
    with pytest.raises(AssertionError):
        bracket(mu, 4)


def test_bracket_does_not_use_falling_factorial_or_binomial(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the bracket route must not call falling_factorial or binomial")

    mu = Partition([3, 2, 2, 1, 1, 1])
    d = mu.total
    r = d - mu.length
    expected = subset_sum_count(4, r, d, mu)
    for module in (djcalc.exact, djcalc.dejonq):
        monkeypatch.setattr(module, "falling_factorial", forbidden)
        monkeypatch.setattr(module, "binomial", forbidden)
    assert bracket(mu, 4) == expected
    assert dj_count(4, r, d, mu, path="bracket").ordered_value == expected
    with pytest.raises(AssertionError):
        coefficient_count(4, r, d, mu)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.integers(0, 6), st.randoms())
def test_coefficient_count_permutation_symmetric(parts, g, rng):
    shuffled = list(parts)
    rng.shuffle(shuffled)
    mu, nu = Partition(parts), Partition(shuffled)
    assert mu == nu
    d = mu.total
    assert coefficient_count(g, d - mu.length, d, mu) == coefficient_count(g, d - nu.length, d, nu)


# ---------------------------------------------------------------------------
# unordered counts
# ---------------------------------------------------------------------------


def test_dj_count_examples():
    assert dj_count(3, 2, 4, Partition([2, 2])).value == 28
    assert dj_count(4, 3, 6, Partition([2, 2, 2])).value == 120
    assert dj_count(1, 1, 2, Partition([2])).value == plucker_total(1, 1, 2) == 4


def test_dj_count_records_both_values():
    result = dj_count(3, 2, 4, Partition([2, 2]))
    assert isinstance(result, CountResult)
    assert result.path == "coefficient"
    assert result.value * Partition([2, 2]).symmetry_factor == result.ordered_value == 56


def test_dj_count_bracket_path():
    by_bracket = dj_count(3, 2, 4, Partition([2, 2]), path="bracket")
    assert by_bracket.value == 28
    assert by_bracket.path == "bracket"
    with pytest.raises(ValueError):
        dj_count(3, 2, 4, Partition([2, 2]), path="magic")


def test_symmetry_factor_divides_ordered_count():
    rng = random.Random(99)
    for _ in range(300):
        e = rng.randint(1, 6)
        mu = Partition(rng.randint(1, 4) for _ in range(e))
        g = rng.randint(0, 8)
        d = mu.total
        result = dj_count(g, d - e, d, mu)  # raises IntegralityError on violation
        assert result.ordered_value % mu.symmetry_factor == 0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_double_point_count_examples():
    assert double_point_count(3, 2, 4) == 28  # 4*(1+3+3)
    assert double_point_count(4, 3, 6) == 120  # 8*(1+4+6+4)
    assert double_point_count(0, 1, 2) == 2  # g=0 terms vanish past k=0
    with pytest.raises(ContractViolation):
        double_point_count(3, 3, 5)


def test_double_point_agrees_with_dj_count():
    for g in range(7):
        for r in range(1, 5):
            for d in range(2 * r, 11):
                mu = Partition((2,) * r + (1,) * (d - 2 * r))
                assert dj_count(g, r, d, mu).value == double_point_count(g, r, d), (g, r, d)


# certificate for the closed forms: for each (r, d) with r <= 6 and d <= 20,
# dj_count at the family's partition is checked at every g in 0..e, e = d - r.
# Past e it is a polynomial in g of degree at most e, and each closed form is
# one of degree at most its stated degree (r or 1, each at most e), so
# agreement at g = e+1..2e+1 is agreement at every g > e.
CLOSED_FORMS = {
    "double_point": (double_point_count, lambda r: r, lambda r, d: (2,) * r + (1,) * (d - 2 * r), lambda r: 2 * r),
    "plucker": (plucker_total, lambda r: 1, lambda r, d: (r + 1,) + (1,) * (d - r - 1), lambda r: r + 1),
}


@pytest.mark.parametrize("family", CLOSED_FORMS)
def test_closed_form_agrees_with_dj_count_at_every_g(family):
    closed_form, degree, parts, least_d = CLOSED_FORMS[family]
    for r in range(1, 7):
        for d in range(least_d(r), 21):
            e = d - r
            assert degree(r) <= e
            assert finite_difference([closed_form(g, r, d) for g in range(degree(r) + 2)]) == 0, (r, d)
            expected = [closed_form(g, r, d) for g in range(2 * e + 3)]
            mu = Partition(parts(r, d))
            for path in ("coefficient", "bracket"):
                counts = [dj_count(g, r, d, mu, path).value for g in range(2 * e + 3)]
                assert finite_difference(counts[e + 1:]) == 0, (r, d, path)
                assert counts == expected, (r, d, path)


def test_plucker_total_examples():
    assert plucker_total(0, 1, 2) == 2
    assert plucker_total(1, 1, 2) == 4
    assert plucker_total(0, 2, 2) == 0  # a plane conic has no inflection points


def test_ramification_count_check():
    assert ramification_count_check(0, 1, 2) == (2, 2)
    assert ramification_count_check(1, 1, 2) == (4, 4)
    left, right = ramification_count_check(3, 2, 4)
    assert right == 24
    assert left == right
    with pytest.raises(ContractViolation):
        ramification_count_check(2, 3, 3)
    # a g^0_d is not a series; the Pluecker total does not apply
    with pytest.raises(ContractViolation, match="requires r >= 1, got r=0"):
        ramification_count_check(2, 0, 3)


def test_ramification_count_grid():
    for g in range(7):
        for r in range(1, 5):
            for d in range(r + 1, 11):
                left, right = ramification_count_check(g, r, d)
                assert left == right, (g, r, d)


def test_tangential_trisecant_count():
    assert tangential_trisecant_count(6, 4) == 24
    assert tangential_trisecant_count(6, 0) == 24  # g-term vanishes at d=6
    assert tangential_trisecant_count(2, 0) == 0  # a conic has no trisecants


def test_odd_theta_count():
    assert odd_theta_count(1) == 1
    assert odd_theta_count(3) == 28
    assert odd_theta_count(4) == 120
    with pytest.raises(ContractViolation):
        odd_theta_count(0)


def test_odd_theta_agrees_with_dj_count():
    for g in (2, 3, 4, 5):
        mu = Partition((2,) * (g - 1))
        assert dj_count(g, g - 1, 2 * g - 2, mu).value == odd_theta_count(g)
