import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from djcalc.bn import SeriesParams
from djcalc.exact import Partition
from djcalc.lls import (
    RamificationSequence,
    VanishingSequence,
    additivity_check,
    case_ii_min_sequence,
    complementary_vanishing,
    is_refined_pair,
    plucker_identity_check,
    proof_identity,
    ramification_from_vanishing,
    split_sequence,
    vanishing_from_ramification,
    weight,
)


@st.composite
def vanishing_sequences(draw, max_r=7, max_d=14):
    r = draw(st.integers(0, max_r))
    d = draw(st.integers(r, max_d))
    entries = draw(st.permutations(range(d + 1)).map(lambda p: tuple(sorted(p[: r + 1]))))
    return VanishingSequence(entries, d)


def test_sequence_validation():
    VanishingSequence((0, 2, 3), 3)
    RamificationSequence((0, 0, 1), 3)
    cases = [
        (lambda: VanishingSequence((), 3), "vanishing sequence must have length r+1 >= 1"),
        (lambda: VanishingSequence((0, 0, 3), 3), "vanishing sequence must strictly increase, got (0, 0, 3)"),
        (lambda: VanishingSequence((0, 4), 3), "vanishing sequence (0, 4) out of range [0, 3]"),  # exceeds d
        (lambda: VanishingSequence((-1, 2), 3), "vanishing sequence (-1, 2) out of range [0, 3]"),
        (lambda: RamificationSequence((), 3), "ramification sequence must have length r+1 >= 1"),
        (lambda: RamificationSequence((1, 0), 3), "ramification sequence must weakly increase, got (1, 0)"),
        (lambda: RamificationSequence((0, 2), 2), "ramification sequence (0, 2) out of range [0, 1]"),  # exceeds d-r
        (lambda: RamificationSequence((-1, 0), 2), "ramification sequence (-1, 0) out of range [0, 1]"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value) == message


def test_ramification_from_vanishing_examples():
    assert ramification_from_vanishing(VanishingSequence((0, 1, 2), 5)).entries == (0, 0, 0)
    assert ramification_from_vanishing(VanishingSequence((0, 2), 2)).entries == (0, 1)
    assert ramification_from_vanishing(VanishingSequence((0, 1, 3), 3)).entries == (0, 0, 1)


@given(vanishing_sequences())
def test_vanishing_ramification_round_trip(a):
    alpha = ramification_from_vanishing(a)
    assert vanishing_from_ramification(alpha) == a
    assert ramification_from_vanishing(vanishing_from_ramification(alpha)) == alpha


def test_weight_examples():
    assert weight(RamificationSequence((0, 0, 0), 4)) == 0
    assert weight(RamificationSequence((0, 0, 1), 4)) == 1


def test_complementary_examples():
    d = 5
    unramified = VanishingSequence((0, 1, 2), d)
    assert complementary_vanishing(unramified).entries == (d - 2, d - 1, d)
    branch = VanishingSequence((0, 2), 2)
    assert complementary_vanishing(branch) == branch  # self-complementary


@given(vanishing_sequences())
def test_complementary_involution(a):
    assert complementary_vanishing(complementary_vanishing(a)) == a
    assert is_refined_pair(a, complementary_vanishing(a))


def test_is_refined_pair_examples():
    a = VanishingSequence((0, 1), 2)
    assert is_refined_pair(a, a) is False  # sums (1, 1), not (2, 2)
    b = VanishingSequence((0, 2), 2)
    assert is_refined_pair(b, b) is True
    with pytest.raises(ValueError):
        is_refined_pair(a, VanishingSequence((0, 1), 3))


def test_split_sequence_examples():
    a = VanishingSequence((0, 1, 3, 4), 5)
    assert split_sequence(a, range(4)) == ((0, 1, 3, 4), ())
    assert split_sequence(a, ()) == ((), (0, 1, 3, 4))
    assert split_sequence(a, {0, 2}) == ((0, 3), (1, 4))


def test_split_sequence_errors():
    a = VanishingSequence((0, 1, 3), 4)
    with pytest.raises(ValueError):
        split_sequence(a, [0, 3])  # out of range
    with pytest.raises(ValueError):
        split_sequence(a, [1, 1])  # repeated index
    with pytest.raises(ValueError):
        split_sequence(a, [0, 1], sub_size=3)  # size mismatch
    assert split_sequence(a, [0, 1], sub_size=2) == ((0, 1), (3,))


def test_additivity_examples():
    d = 2
    a = VanishingSequence((0, 2), d)
    b = complementary_vanishing(a)
    sub, comp = split_sequence(a, [0])
    assert additivity_check(b, sub, comp, 1, d) is True
    bad = VanishingSequence((0, 1), d)
    sub, comp = split_sequence(bad, [0])
    assert additivity_check(bad, sub, comp, 1, d) is False  # 2 != 4


def test_case_ii_examples():
    seq = case_ii_min_sequence(Partition([2, 2]), 2, 2, 4)
    assert seq.entries == (0, 1, 4)
    assert weight(ramification_from_vanishing(seq)) == 2
    # f = |mu|: everything shifts by f
    seq = case_ii_min_sequence(Partition([2, 1]), 3, 4)
    assert seq.entries == (3, 4, 5, 6, 7)
    assert weight(ramification_from_vanishing(seq)) == 3 * 5
    # a branch point of a double cover
    assert case_ii_min_sequence(Partition([2]), 1, 1).entries == (0, 2)


def test_case_ii_errors():
    with pytest.raises(ValueError):
        case_ii_min_sequence(Partition([3, 3]), 1, 2)  # f < |mu| - r
    with pytest.raises(ValueError):
        case_ii_min_sequence(Partition([2]), 3, 2)  # f > |mu|
    with pytest.raises(ValueError):
        case_ii_min_sequence(Partition([2]), 2, 2, 3)  # r+f > d


def test_case_ii_weight_formula_on_grid():
    from itertools import combinations_with_replacement

    for e in range(0, 7):
        for parts in combinations_with_replacement(range(1, 6), e):
            mu = Partition(parts)
            for r in range(0, 9):
                for f in range(max(mu.total - r, 0), mu.total + 1):
                    seq = case_ii_min_sequence(mu, f, r)
                    expected = f * (r + 1 - mu.total + f)
                    assert weight(ramification_from_vanishing(seq)) == expected, (mu, f, r)


def test_proof_identity_examples():
    assert proof_identity(3, 0, 2, 4, 4, 2) == (-2, -2)
    lhs, rhs = proof_identity(0, 0, 3, 5, 0, 0)
    assert lhs == rhs


@given(st.tuples(*[st.integers(-30, 30)] * 6))
def test_proof_identity_holds_everywhere(args):
    lhs, rhs = proof_identity(*args)
    assert lhs == rhs


def test_plucker_identity_check_examples():
    simple = RamificationSequence((0, 1), 2)
    assert plucker_identity_check([simple] * 4, SeriesParams(1, 1, 2)) is True
    assert plucker_identity_check([], SeriesParams(0, 2, 2)) is True  # conic: no flexes
    assert plucker_identity_check([RamificationSequence((0, 1), 2)], SeriesParams(0, 1, 2)) is False


def test_plucker_identity_check_context_mismatch():
    with pytest.raises(ValueError):
        plucker_identity_check([RamificationSequence((0, 1), 3)], SeriesParams(1, 1, 2))


# ---------------------------------------------------------------------------
# node-compatible pairs: additivity detects refinement
# ---------------------------------------------------------------------------


def random_vanishing(rng, r, d):
    return VanishingSequence(sorted(rng.sample(range(d + 1), r + 1)), d)


def compatible_partner(rng, a):
    """Random b with a_i + b_{r-i} >= d for all i (the node condition);
    equality everywhere iff the pair is refined."""
    d, r = a.d, a.r
    entries = []
    prev = -1
    for j in range(r + 1):
        lo = max(d - a.entries[r - j], prev + 1)
        hi = d - (r - j)
        entries.append(lo if rng.random() < 0.7 else rng.randint(lo, hi))
        prev = entries[-1]
    return VanishingSequence(entries, d)


def test_additivity_detects_refinement_on_compatible_pairs():
    # aggregate sums detect refinement only under the nodewise condition
    # a_i + b_{r-i} >= d; without it, e.g. a=(0,3), b=(1,2), d=3 passes the
    # sum check while failing refinement
    rng = random.Random(2024)
    refined_seen = 0
    for _ in range(5000):
        r = rng.randint(0, 6)
        d = rng.randint(r, 12)
        a = random_vanishing(rng, r, d)
        b = complementary_vanishing(a) if rng.random() < 0.3 else compatible_partner(rng, a)
        k = rng.randint(0, r + 1)
        sub, comp = split_sequence(a, rng.sample(range(r + 1), k), sub_size=k)
        assert sorted(sub + comp) == list(a.entries)
        refined = is_refined_pair(a, b)
        assert additivity_check(b, sub, comp, r, d) == refined
        refined_seen += refined
    assert refined_seen > 1000  # generator actually exercises both outcomes


def test_additivity_sum_check_alone_is_weaker():
    a = VanishingSequence((0, 3), 3)
    b = VanishingSequence((1, 2), 3)
    sub, comp = split_sequence(a, [0])
    assert additivity_check(b, sub, comp, 1, 3) is True
    assert is_refined_pair(a, b) is False
