import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from djcalc.bn import (
    DJProblem,
    SeriesParams,
    corollary_degenerate_tangents,
    corollary_flex_bitangent,
    corollary_tangent_hyperplane_dim,
    corollary_tangential_secant,
    corollary_total_ramification,
    expected_dim_fixed_series,
    expected_dim_sigma,
    fixed_dim_or_error,
    general_dim_or_error,
    is_empty_for_general_curve,
    rho,
    rho_adjusted,
    rho_raw,
    span_dimension,
)
from djcalc.errors import ContractViolation, HypothesisViolation
from djcalc.exact import Partition
from djcalc.lls import RamificationSequence


def problem(g, r, d, parts, f):
    return DJProblem(SeriesParams(g, r, d), Partition(parts), f)


def test_rho_examples():
    assert rho(SeriesParams(4, 1, 3)) == 0
    assert rho(SeriesParams(0, 2, 2)) == 0
    assert rho(SeriesParams(3, 2, 4)) == 0
    assert rho(SeriesParams(8, 3, 8)) == -4


def test_rho_raw_is_unchecked():
    # the raw polynomial accepts parameters SeriesParams would reject
    assert rho_raw(0, 0, 0) == 0
    assert rho_raw(-1, -2, 3) == -7  # -1 - (-1)(-1-3-2)


def test_series_params_validation():
    with pytest.raises(ValueError):
        SeriesParams(-1, 1, 1)
    with pytest.raises(ValueError):
        SeriesParams(0, 0, 1)
    with pytest.raises(ValueError):
        SeriesParams(0, 1, 0)


def test_problem_f_range():
    problem(3, 2, 4, [2, 2], 2)
    problem(3, 2, 4, [2, 2], 4)
    with pytest.raises(ValueError):
        problem(3, 2, 4, [2, 2], 1)  # f < |mu| - r
    with pytest.raises(ValueError):
        problem(3, 2, 4, [2, 2], 5)  # f > |mu|
    with pytest.raises(ValueError):
        problem(3, 2, 4, [1], -1)  # f < 0


def test_expected_dim_sigma_examples():
    assert expected_dim_sigma(problem(3, 2, 4, [2, 2], 2)) == 0
    assert expected_dim_sigma(problem(4, 3, 6, [2, 2, 2], 3)) == 0


def test_expected_dim_sigma_rejects_negative_rho():
    with pytest.raises(HypothesisViolation):
        expected_dim_sigma(problem(8, 3, 8, [2, 2], 2))


def test_expected_dim_fixed_series():
    # |mu| = d, f = d-r: the classical virtual dimension e-d+r
    p = problem(3, 2, 4, [2, 2], 2)
    assert expected_dim_fixed_series(p) == p.mu.length - 4 + 2 == 0
    assert expected_dim_fixed_series(problem(7, 2, 4, [2, 2], 2)) == 0  # independent of g
    assert expected_dim_fixed_series(problem(5, 4, 9, [2, 1, 1], 0)) == 3  # f=0: no condition


def test_is_empty_examples():
    assert is_empty_for_general_curve(problem(4, 1, 3, [3], 2)) is True
    assert is_empty_for_general_curve(problem(3, 2, 4, [2, 2], 2)) is False
    assert is_empty_for_general_curve(problem(5, 4, 9, [2, 1, 1], 0)) is False  # f=0 never empty


def test_span_dimension_instances():
    # residual pencil: osculating spaces span a codimension-two plane
    mu = Partition([3, 2, 2])
    assert span_dimension(mu, mu.total + 1 - 4) == 4 - 2
    # e tangent lines spanning a hyperplane
    e = 5
    assert span_dimension(Partition([2] * e), 2 * e - 4) == 4 - 1
    # one tangent line plus e-1 points spanning a P^(e-1)
    assert span_dimension(Partition([2] + [1] * (e - 1)), 1) == e - 1


# ---------------------------------------------------------------------------
# dimension formula properties
# ---------------------------------------------------------------------------


@st.composite
def valid_problems(draw):
    g = draw(st.integers(0, 12))
    r = draw(st.integers(1, 6))
    d = draw(st.integers(1, 16))
    parts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    mu = Partition(parts)
    f = draw(st.integers(max(mu.total - r, 0), mu.total))
    return DJProblem(SeriesParams(g, r, d), mu, f)


def outcome(fn, *args):
    """fn's value, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def returned(fn, *args):
    """fn's value, or the type and message of the ValueError it returned unraised."""
    value = fn(*args)
    if isinstance(value, ValueError):
        assert value.__traceback__ is None
        return type(value), str(value)
    return value


def kernel(g, r, d, e, s, f):
    """The integer kernel: the half that reads g applied to the half that does not."""
    return general_dim_or_error(g, r, d, fixed_dim_or_error(r, d, e, s, f))


def by_dataclasses(g, r, d, mu, f):
    return expected_dim_sigma(DJProblem(SeriesParams(g, r, d), mu, f))


@given(
    st.integers(-3, 12), st.integers(-3, 8), st.integers(-3, 20),
    st.lists(st.integers(1, 5), max_size=6), st.integers(-4, 24),
)
@example(3, 2, 4, [2, 2], 2)  # rho = 0 and f > 0, so each half's formula is compared
@example(5, 2, 6, [3, 1], 2)
def test_expected_dim_kernel_matches_the_dataclass_path(g, r, d, parts, f):
    # includes invalid g, r, d and out-of-range f, so the order of the checks
    # and each message are compared too; the dataclass path takes its fixed
    # half from expected_dim_fixed_series, not from fixed_dim_or_error
    mu = Partition(parts)
    expected = outcome(by_dataclasses, g, r, d, mu, f)
    assert returned(kernel, g, r, d, mu.length, mu.total, f) == expected


def test_expected_dim_checks_in_order():
    # every check fails: the series comes first, then f, then rho
    cases = (
        ((-1, 0, 0, [2], 9), (ValueError, "genus must be >= 0, got g=-1")),
        ((8, 3, 8, [2], 9), (ValueError, "f=9 outside the valid range [0, 2] for |mu|=2, r=3")),
        ((8, 3, 8, [2], 2), (HypothesisViolation, "rho(8,3,8) = -4 < 0; the dimension statement assumes rho >= 0")),
        ((3, 2, 4, [2, 2], 2), 0),
    )
    for (g, r, d, parts, f), expected in cases:
        mu = Partition(parts)
        assert returned(kernel, g, r, d, mu.length, mu.total, f) == expected
        assert outcome(by_dataclasses, g, r, d, mu, f) == expected


@given(
    st.lists(st.integers(-3, 12), min_size=1, max_size=4), st.integers(-3, 8), st.integers(-3, 20),
    st.lists(st.integers(1, 5), max_size=6), st.integers(-4, 24),
)
def test_one_half_that_reads_no_g_serves_every_g(gs, r, d, parts, f):
    mu = Partition(parts)
    fixed = fixed_dim_or_error(r, d, mu.length, mu.total, f)
    for g in gs:
        dim = general_dim_or_error(g, r, d, fixed)
        assert returned(lambda: dim) == outcome(by_dataclasses, g, r, d, mu, f)
        if g >= 0 and isinstance(fixed, ValueError):
            assert dim is fixed  # so a sweep formats its message once for every g
    if not isinstance(fixed, ValueError):
        assert fixed == expected_dim_fixed_series(problem(0, r, d, parts, f))


@given(valid_problems())
def test_sigma_dim_is_rho_plus_fixed_dim(p):
    if rho(p.params) < 0:
        with pytest.raises(HypothesisViolation):
            expected_dim_sigma(p)
    else:
        assert expected_dim_sigma(p) == rho(p.params) + expected_dim_fixed_series(p)


@given(valid_problems(), st.randoms())
def test_sigma_dim_permutation_invariant(p, rng):
    if rho(p.params) < 0:
        return
    shuffled = list(p.mu.parts)
    rng.shuffle(shuffled)
    q = DJProblem(p.params, Partition(shuffled), p.f)
    assert expected_dim_sigma(p) == expected_dim_sigma(q)


def test_boundary_f_reduces_to_classical_case():
    # at f = |mu|-r, extending mu by ones to degree d and shifting f
    # accordingly leaves the emptiness verdict unchanged
    for g in range(0, 13):
        for r in range(1, 7):
            for d in range(r + 1, 17):
                if rho_raw(g, r, d) < 0:
                    continue
                for parts in ([2], [2, 2], [3, 1], [2, 1, 1], [4, 2]):
                    mu = Partition(parts)
                    f = mu.total - r
                    if f < 0 or mu.total > d:
                        continue
                    p = DJProblem(SeriesParams(g, r, d), mu, f)
                    extended = Partition(mu.parts + (1,) * (d - mu.total))
                    q = DJProblem(SeriesParams(g, r, d), extended, f + d - mu.total)
                    assert is_empty_for_general_curve(p) == is_empty_for_general_curve(q)
                    assert expected_dim_sigma(p) == expected_dim_sigma(q)


# ---------------------------------------------------------------------------
# specialized predicates against the general one
# ---------------------------------------------------------------------------


def test_tangential_secant_examples():
    assert corollary_tangential_secant(0, 4, 4, 1) is True  # 2 < 5
    assert corollary_tangential_secant(0, 3, 3, 1) is True  # 2 < 4
    # boundary: rho = r+1-2e exactly fails the strict inequality
    assert rho(SeriesParams(2, 3, 5)) == 2
    assert corollary_tangential_secant(2, 3, 5, 1) is False


def test_degenerate_tangents_examples():
    assert corollary_degenerate_tangents(0, 5, 5, 2) is True  # 6 < 7
    assert corollary_degenerate_tangents(0, 4, 4, 2) is False  # 6 < 6 fails
    assert corollary_degenerate_tangents(0, 2, 2, 1) is True  # 3 < 4


def test_tangent_hyperplane_examples():
    # e = r+1: dimension rho-1, so empty once rho=0
    assert corollary_tangent_hyperplane_dim(0, 3, 3, 4) == -1
    with pytest.raises(ContractViolation):
        corollary_tangent_hyperplane_dim(0, 3, 3, 3)  # e >= r+1 violated
    with pytest.raises(HypothesisViolation):
        corollary_tangent_hyperplane_dim(8, 3, 8, 5)  # rho = -4


def test_flex_bitangent_examples():
    assert corollary_flex_bitangent(4, 3, 6, 2, 2) is True  # rho=0: 8 > 6
    assert corollary_flex_bitangent(4, 3, 6, 3, 1) is True
    # rho = 2 boundary: 8 > 8 fails
    assert rho(SeriesParams(6, 3, 8)) == 2
    assert corollary_flex_bitangent(6, 3, 8, 2, 2) is False
    assert corollary_flex_bitangent(0, 4, 4, 2, 2) is True  # 12 > 8


def test_total_ramification_examples():
    # canonical series: no pencil of degree g-1 totally ramified at a point
    for g in range(2, 13):
        assert rho(SeriesParams(g, g - 1, 2 * g - 2)) == 0
        assert corollary_total_ramification(g, g - 1, 2 * g - 2, g - 1) is True
    # boundary 2a = rho-1+2r: rho(4,2,5)=1, r=2, a=2 gives 4 > 4 false
    assert rho(SeriesParams(4, 2, 5)) == 1
    assert corollary_total_ramification(4, 2, 5, 2) is False
    with pytest.raises(ContractViolation):
        corollary_total_ramification(4, 2, 5, 1)  # a < r


@pytest.mark.parametrize("corollary, extra", [
    (corollary_tangential_secant, (1,)),
    (corollary_degenerate_tangents, (1,)),
    (corollary_tangent_hyperplane_dim, (5,)),
    (corollary_flex_bitangent, (2, 2)),
    (corollary_total_ramification, (4,)),
])
def test_corollaries_check_the_series_then_rho(corollary, extra):
    # the checks, messages and exception types of SeriesParams, then rho >= 0
    for (g, r, d), message in (
        ((-1, 3, 5), "genus must be >= 0, got g=-1"),
        ((2, 0, 5), "series dimension must be >= 1, got r=0"),
        ((2, 3, 0), "degree must be >= 1, got d=0"),
    ):
        with pytest.raises(ValueError) as info:
            corollary(g, r, d, *extra)
        assert (type(info.value), str(info.value)) == (ValueError, message)
    with pytest.raises(HypothesisViolation) as info:
        corollary(8, 3, 8, *extra)
    assert str(info.value) == "rho(8,3,8) = -4 < 0"


def grid(g_max=12, r_max=6, d_max=16):
    for g in range(g_max + 1):
        for r in range(1, r_max + 1):
            for d in range(1, d_max + 1):
                if rho_raw(g, r, d) >= 0:
                    yield g, r, d


def test_tangential_secant_matches_general_predicate():
    for g, r, d in grid():
        for e in range(1, r + 1):
            mu = Partition([2] + [1] * (e - 1))
            p = DJProblem(SeriesParams(g, r, d), mu, 1)
            assert corollary_tangential_secant(g, r, d, e) == is_empty_for_general_curve(p)


def test_degenerate_tangents_matches_general_predicate():
    for g, r, d in grid():
        for e in range(1, (r + 1) // 2 + 1):
            p = DJProblem(SeriesParams(g, r, d), Partition([2] * e), 1)
            assert corollary_degenerate_tangents(g, r, d, e) == is_empty_for_general_curve(p)


def test_tangent_hyperplane_matches_general_dimension():
    for g, r, d in grid():
        if r < 3:
            continue
        for e in range(r + 1, r + 9):
            p = DJProblem(SeriesParams(g, r, d), Partition([2] * e), 2 * e - r)
            assert corollary_tangent_hyperplane_dim(g, r, d, e) == expected_dim_sigma(p)


def test_flex_bitangent_matches_general_predicate():
    for g, r, d in grid():
        if r < 3:
            continue
        for a1 in range(1, 9):
            for a2 in range(1, a1 + 1):
                p = DJProblem(SeriesParams(g, r, d), Partition([a1, a2]), a1 + a2 - 2)
                assert corollary_flex_bitangent(g, r, d, a1, a2) == is_empty_for_general_curve(p)


def test_total_ramification_matches_general_predicate():
    for g, r, d in grid():
        for a in range(r, d + 1):
            p = DJProblem(SeriesParams(g, r, d), Partition([a]), a + 1 - r)
            assert corollary_total_ramification(g, r, d, a) == is_empty_for_general_curve(p)


# ---------------------------------------------------------------------------
# adjusted numbers
# ---------------------------------------------------------------------------


def test_rho_adjusted():
    params = SeriesParams(4, 1, 3)
    assert rho_adjusted(params, RamificationSequence((0, 0), 3)) == rho(params) == 0
    assert rho_adjusted(params, RamificationSequence((0, 1), 3)) == -1
    # each branch point of an elliptic double cover is simple ramification
    assert rho_adjusted(SeriesParams(1, 1, 2), RamificationSequence((0, 1), 2)) == 0


def test_rho_adjusted_rejects_context_mismatch():
    with pytest.raises(ValueError):
        rho_adjusted(SeriesParams(4, 1, 3), RamificationSequence((0, 1), 4))
    with pytest.raises(ValueError):
        rho_adjusted(SeriesParams(4, 2, 3), RamificationSequence((0, 1), 3))
