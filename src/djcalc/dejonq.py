"""Virtual counts of divisors with prescribed contact multiplicities in a
linear series, evaluated along two independent exact routes, plus the
classical closed-form specializations (double points, simple ramification,
tangential trisecants, odd theta characteristics).

Route one ("bracket") evaluates the classical recursion-derived expression in
a division-free product form.  Route two ("coefficient") evaluates the
multilinear coefficient of t_1...t_e in

    (1 + a_1^2 t_1 + ... + a_e^2 t_e)^g * (1 + a_1 t_1 + ... + a_e t_e)^(d-r-g)

in de Jonquieres form (ACGH I, Ch. VIII Sec. 5), in O(e^2) multiplications, with
e_k(a) expanded over the multiplicity profile rather than by the bracket route's
`elementary_symmetric`.  The two routes share no code beyond integer
multiplication (`math.prod`), which makes their agreement a meaningful check.

For 0 <= g <= e = len(mu) all but one term of each route's sum vanish, and
each route evaluates only that term, prod(a) * g! * (e-g)! * e_g(a), through
its own code; for g > e each evaluates its full sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import ContractViolation, IntegralityError
from .exact import MAX_DIGITS, Partition, binomial, elementary_symmetric, falling_factorial, too_long

__all__ = [
    "CountResult",
    "bracket",
    "coefficient_count",
    "count_error",
    "dj_count",
    "double_point_count",
    "plucker_total",
    "ramification_count_check",
    "ramification_error",
    "tangential_trisecant_count",
    "odd_theta_count",
]


@dataclass(frozen=True)
class CountResult:
    """A count together with the route that produced it.

    `value` is the unordered count and `ordered_value` the ordered one:
    ordered counts distinguish the labelling of equal contact orders,
    unordered counts divide that out, so
    value * symmetry factor == ordered_value exactly.
    """

    value: int
    path: str
    ordered_value: int


def bracket(mu: Partition, g: int) -> int:
    """Ordered contact-divisor count in division-free product form.

    For mu = (a_1,...,a_e) this is

        (prod a_i) * sum_{k=0}^{e} (-1)^k e_{e-k}(a) * prod_{j in [g-e, g], j != g-e+k} j,

    which equals the classical alternating-fraction expression wherever the
    latter's denominators g-e+k are nonzero (the prefactor g!/(g-e-1)! is the
    product of all of them) and extends it by cancellation elsewhere.

    When g <= e the range [g-e, g] holds 0, so a term's product is 0 unless
    it skips 0, that is unless k = e - g: only that term is evaluated.
    """
    if mu.length == 0:
        raise ContractViolation("bracket requires a nonempty partition")
    if g < 0:
        raise ContractViolation(f"bracket requires g >= 0, got g={g}")
    parts = mu.parts
    e = mu.length
    lo = g - e
    total = 0
    for k in (e - g,) if g <= e else range(e + 1):
        skip = lo + k
        term = elementary_symmetric(parts, e - k) * prod(range(lo, skip)) * prod(range(skip + 1, g + 1))
        total += -term if k % 2 else term
    return prod(parts) * total


def _shape_error(r: int, d: int, e: int, s: int) -> ContractViolation | None:
    """The first failed check of the finite-count shape |mu| = d and len(mu) =
    d - r, shared by both routes, for a partition of length e and sum s.  The
    message names MAX_DIGITS in place of a d - r past it."""
    if s != d:
        return ContractViolation(f"|mu| = d violated: |mu|={s}, d={d}")
    if e != d - r:
        shown = f" has more than {MAX_DIGITS} digits" if too_long(d - r) else f"={d - r}"
        return ContractViolation(f"len(mu) = d - r violated: len(mu)={e}, d-r{shown}")
    return None


def count_error(g: int, r: int, d: int, e: int, s: int) -> ContractViolation | None:
    """The first failed precondition of coefficient_count for a partition of
    length e and sum s, unraised, or None: None exactly when neither route
    of dj_count rejects its inputs."""
    if e == 0:
        return ContractViolation("coefficient_count requires a nonempty partition")
    if g < 0:
        return ContractViolation(f"coefficient_count requires g >= 0, got g={g}")
    return _shape_error(r, d, e, s)


def coefficient_count(g: int, r: int, d: int, mu: Partition) -> int:
    """Ordered count via the multilinear coefficient, in de Jonquieres form.

    Requires the finite-count shape |mu| = d and len(mu) = d - r.  Returns

        prod(a) * sum_{k=0}^{e} ff(g,k) * ff(d-r-g, e-k) * e_k(a),

    with e_k(a) read off prod_v (1 + v t)^(n_v), whose rows are C(n_v, j) * v^j.

    When g <= e, ff(g, k) is 0 for k > g and ff(e-g, e-k) is 0 for k < g, so
    only the term k = g is evaluated, and the product is truncated at degree g.
    """
    e = mu.length
    error = count_error(g, r, d, e, mu.total)
    if error is not None:
        raise error
    top = min(g, e)  # the highest degree of the product that is read
    esym = [1]
    prod_a = 1
    for v, n in mu.multiplicities.items():
        prod_a *= v**n
        row = [binomial(n, j) * v**j for j in range(min(n, top) + 1)]
        out = [0] * min(len(esym) + n, top + 1)
        for i, x in enumerate(esym):
            for k, y in zip(range(i, top + 1), row):  # k = i + j, up to top
                out[k] += x * y
        esym = out
    return prod_a * sum(
        falling_factorial(g, k) * falling_factorial(d - r - g, e - k) * esym[k]
        for k in ((g,) if g <= e else range(e + 1))
    )


def dj_count(g: int, r: int, d: int, mu: Partition, path: str = "coefficient") -> CountResult:
    """Unordered contact-divisor count: the ordered count divided by the
    symmetry factor prod n_v! of the partition, with exact divisibility asserted.

    `path` selects the ordered-count route ("coefficient" or "bracket"); both
    must agree, and the CLI cross-checks them.
    """
    if path == "coefficient":
        ordered = coefficient_count(g, r, d, mu)
    elif path == "bracket":
        error = _shape_error(r, d, mu.length, mu.total)
        if error is not None:
            raise error
        ordered = bracket(mu, g)
    else:
        raise ValueError(f"unknown count path {path!r}")
    sym = mu.symmetry_factor
    value, rem = divmod(ordered, sym)
    if rem != 0:
        raise IntegralityError(
            f"symmetry factor {sym} does not divide ordered count {ordered} "
            f"for g={g}, r={r}, d={d}, mu={mu}"
        )
    return CountResult(value=value, path=path, ordered_value=ordered)


def double_point_count(g: int, r: int, d: int) -> int:
    """Closed form for divisors with r double points, 2x_1+...+2x_r+x_{r+1}+...+x_{d-r}:

        2^r * sum_{k=0}^{r} C(g,k) * C(d-r-k, r-k)

    using the zero convention for binomials with negative lower index.
    """
    if d < 2 * r:
        raise ContractViolation(f"double_point_count requires d >= 2r, got d={d}, r={r}")
    total = sum(binomial(g, k) * binomial(d - r - k, r - k) for k in range(r + 1))
    return (1 << r) * total


def plucker_total(g: int, r: int, d: int) -> int:
    """Total ramification weight of a g^r_d: (r+1)d + (r+1)r(g-1)."""
    return (r + 1) * d + (r + 1) * r * (g - 1)


def ramification_error(g: int, r: int, d: int) -> ContractViolation | None:
    """The first failed precondition of ramification_count_check, unraised, or
    None: r >= 1, as the total holds for a series, d >= r + 1, then the count's."""
    if r < 1:
        return ContractViolation(f"ramification_count_check requires r >= 1, got r={r}")
    if d < r + 1:
        return ContractViolation(f"ramification_count_check requires d >= r+1, got d={d}, r={r}")
    return count_error(g, r, d, d - r, d)


def ramification_count_check(g: int, r: int, d: int) -> tuple[int, int]:
    """The simple-ramification count both ways: the contact-divisor count for
    mu = (r+1, 1^(d-r-1)) next to the closed-form total.  The entries agree.
    """
    error = ramification_error(g, r, d)
    if error is not None:
        raise error
    mu = Partition((r + 1,) + (1,) * (d - r - 1))
    return dj_count(g, r, d, mu).value, plucker_total(g, r, d)


def tangential_trisecant_count(d: int, g: int) -> int:
    """Virtual number of tangential trisecants of a space curve:
    2(d-2)(d-3) + 2g(d-6).  May be negative outside the enumerative range.
    """
    return 2 * (d - 2) * (d - 3) + 2 * g * (d - 6)


def odd_theta_count(g: int) -> int:
    """Number of odd theta characteristics on a genus-g curve: 2^(g-1)(2^g - 1)."""
    if g < 1:
        raise ContractViolation(f"odd_theta_count requires g >= 1, got g={g}")
    return (1 << (g - 1)) * ((1 << g) - 1)
