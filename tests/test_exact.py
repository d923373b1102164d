import dataclasses
import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from djcalc.exact import Partition, binomial, elementary_symmetric, falling_factorial


def esym_brute(values, j):
    """Independent oracle: literally sum products over all j-subsets."""
    return sum(math.prod(c) for c in combinations(values, j))


def test_falling_factorial_examples():
    assert falling_factorial(3, 2) == 6
    assert falling_factorial(-1, 2) == 2
    assert falling_factorial(5, 0) == 1


def test_falling_factorial_rejects_negative_k():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_binomial_examples():
    assert binomial(4, -1) == 0
    assert binomial(-1, 2) == 1
    assert binomial(6, 3) == 20


def test_binomial_times_factorial_is_falling_factorial():
    for x in range(-10, 11):
        for k in range(0, 11):
            assert falling_factorial(x, k) == binomial(x, k) * math.factorial(k)


# far past the box above, and across m = 0, where binomial switches from
# comb(m, k) to upper negation
HUGE = st.one_of(st.integers(-70, 70), st.integers(-(10**40), 10**40))
LOWER = st.integers(-2, 60)


@given(HUGE, LOWER)
def test_binomial_times_factorial_is_falling_factorial_far_out(m, k):
    if k < 0:
        assert binomial(m, k) == 0
    else:
        assert binomial(m, k) * math.factorial(k) == falling_factorial(m, k)


@given(HUGE, LOWER)
def test_binomial_pascal_rule(m, k):
    assert binomial(m, k) == binomial(m - 1, k) + binomial(m - 1, k - 1)


@given(HUGE, st.integers(0, 60))
def test_falling_factorial_recurrence(x, k):
    assert falling_factorial(x, k + 1) == falling_factorial(x, k) * (x - k)


def test_elementary_symmetric_examples():
    assert elementary_symmetric((2, 2), 1) == 4
    assert elementary_symmetric((2, 2), 2) == 4
    assert elementary_symmetric((2, 3, 1), 2) == esym_brute((2, 3, 1), 2) == 11


def test_elementary_symmetric_bounds():
    assert elementary_symmetric((), 0) == 1
    assert elementary_symmetric((5, 7), 0) == 1
    with pytest.raises(ValueError):
        elementary_symmetric((1, 2), 3)
    with pytest.raises(ValueError):
        elementary_symmetric((1, 2), -1)


@given(st.lists(st.integers(-6, 6), max_size=7))
def test_generating_product_matches_elementary_symmetric(values):
    # expand prod(1 + v*t) coefficient by coefficient
    coeffs = [1]
    for v in values:
        coeffs = [c + v * (coeffs[i - 1] if i else 0) for i, c in enumerate(coeffs)] + [v * coeffs[-1]]
    for j, c in enumerate(coeffs):
        assert c == elementary_symmetric(values, j) == esym_brute(values, j)


@given(st.lists(st.integers(1, 9), max_size=8))
def test_partition_canonicalization(parts):
    mu = Partition(parts)
    assert mu.parts == tuple(sorted(parts, reverse=True))
    assert Partition(mu.parts) == mu  # idempotent
    assert Partition(reversed(parts)) == mu  # order-insensitive


@given(st.lists(st.integers(1, 9), max_size=8))
def test_partition_profile_invariants(parts):
    mu = Partition(parts)
    profile = mu.multiplicities
    assert sum(profile.values()) == mu.length
    assert sum(v * n for v, n in profile.items()) == mu.total


@given(st.lists(st.integers(1, 9), max_size=8))
def test_partition_total_and_length(parts):
    mu = Partition(parts)
    assert (mu.total, mu.length, len(mu)) == (sum(parts), len(parts), len(parts))


def test_partition_repr_equality_and_hash_see_only_the_parts():
    assert repr(Partition([2, 1])) == "Partition(parts=(2, 1))"
    assert Partition([1, 2]) == Partition([2, 1]) != Partition([2, 2])
    assert hash(Partition([1, 2])) == hash(Partition([2, 1])) == hash(((2, 1),))
    assert Partition([2, 1]) != (2, 1)


def test_partition_is_frozen():
    mu = Partition([2, 1])
    for name in ("parts", "total", "length"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mu, name, 0)
    assert (mu.parts, mu.total, mu.length) == ((2, 1), 3, 2)


def test_partition_symmetry_factor():
    assert Partition([2, 2]).symmetry_factor == 2
    assert Partition([2, 2, 2]).symmetry_factor == 6
    assert Partition([3, 1, 1, 1]).symmetry_factor == 6
    assert Partition([]).symmetry_factor == 1


@given(st.lists(st.integers(1, 6), max_size=20))
def test_partition_symmetry_factor_counts_equal_parts(parts):
    expected = math.prod(math.factorial(parts.count(v)) for v in set(parts))
    assert Partition(parts).symmetry_factor == expected


@pytest.mark.parametrize("bad", [[0], [-1], [2, 0], [1.5], [True, 2]])
def test_partition_rejects_invalid_parts(bad):
    with pytest.raises(ValueError):
        Partition(bad)
