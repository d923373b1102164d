"""Brill-Noether numbers and expected dimensions of generalized secant loci.

For a genus-g curve with a g^r_d and a contact partition mu with a rank
deficiency f, the universal secant locus (series together with contact
points) has every irreducible component of dimension

    rho(g,r,d) + e - f(r+1-|mu|+f)

on a general curve, provided rho(g,r,d) >= 0; when that quantity is
negative, the locus is empty for every series on a general curve.  The
specialized predicates for tangential secants, degenerate multi-tangents,
tangent hyperplanes, flex/bitangent lines and total ramification points are
each one inequality, kept in cleared-denominator integer form, and each is
required to agree with the general predicate at its (mu, f) specialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ContractViolation, HypothesisViolation
from .exact import MAX_DIGITS, Partition, too_long

if TYPE_CHECKING:
    from .lls import RamificationSequence

__all__ = [
    "SeriesParams",
    "DJProblem",
    "rho",
    "rho_raw",
    "rho_adjusted",
    "fixed_dim_or_error",
    "general_dim_or_error",
    "expected_dim_sigma",
    "expected_dim_fixed_series",
    "is_empty_for_general_curve",
    "span_dimension",
    "corollary_tangential_secant",
    "corollary_degenerate_tangents",
    "corollary_tangent_hyperplane_dim",
    "corollary_flex_bitangent",
    "corollary_total_ramification",
]


# The checks of SeriesParams and DJProblem, shared with the integer kernel's
# two halves: each returns the error of its first failed check, unraised, or
# None.  The genus check is g < 0, and _genus_error its error.
def _genus_error(g: int) -> ValueError:
    return ValueError(f"genus must be >= 0, got g={g}")


def _rank_degree_error(r: int, d: int) -> ValueError | None:
    if r < 1:
        return ValueError(f"series dimension must be >= 1, got r={r}")
    if d < 1:
        return ValueError(f"degree must be >= 1, got d={d}")
    return None


def _series_error(g: int, r: int, d: int) -> ValueError | None:
    return _genus_error(g) if g < 0 else _rank_degree_error(r, d)


def _f_error(r: int, s: int, f: int) -> ValueError | None:
    if f < 0 or f < s - r or f > s:
        return ValueError(f"f={f} outside the valid range [{max(s - r, 0)}, {s}] for |mu|={s}, r={r}")
    return None


@dataclass(frozen=True)
class SeriesParams:
    """The triple (g, r, d) of a g^r_d on a genus-g curve."""

    g: int
    r: int
    d: int

    def __post_init__(self) -> None:
        error = _series_error(self.g, self.r, self.d)
        if error is not None:
            raise error


@dataclass(frozen=True)
class DJProblem:
    """A generalized secant problem: series parameters, contact partition mu,
    and the rank deficiency f, with |mu|-r <= f <= |mu| and f >= 0 (so the
    residual series has projective dimension r-|mu|+f >= 0).
    """

    params: SeriesParams
    mu: Partition
    f: int

    def __post_init__(self) -> None:
        error = _f_error(self.params.r, self.mu.total, self.f)
        if error is not None:
            raise error

    @property
    def residual_rank(self) -> int:
        """r+1-|mu|+f, the section count of the residual series (>= 1)."""
        return self.params.r + 1 - self.mu.total + self.f


def rho_raw(g: int, r: int, d: int) -> int:
    """The Brill-Noether polynomial g - (r+1)(g-d+r), with no range checks."""
    return g - (r + 1) * (g - d + r)


def rho(params: SeriesParams) -> int:
    """Brill-Noether number of the series parameters."""
    return rho_raw(params.g, params.r, params.d)


def rho_adjusted(params: SeriesParams, alpha: RamificationSequence) -> int:
    """rho(g,r,d) minus the ramification weight imposed at a marked point."""
    if alpha.d != params.d or alpha.r != params.r:
        raise ValueError(
            f"ramification sequence context (r={alpha.r}, d={alpha.d}) does not "
            f"match series (r={params.r}, d={params.d})"
        )
    return rho(params) - sum(alpha.entries)


def fixed_dim_or_error(r: int, d: int, e: int, s: int, f: int) -> int | ValueError:
    """The half of the integer kernel that does not read g: the first failed
    check of r, d (as SeriesParams checks them) and f (as DJProblem does),
    unraised, else e - f(r+1-s+f), the dimension for one fixed series of a
    partition of length e and sum s."""
    error = _rank_degree_error(r, d) or _f_error(r, s, f)
    if error is not None:
        return error
    return e - f * (r + 1 - s + f)


def general_dim_or_error(g: int, r: int, d: int, fixed: int | ValueError) -> int | ValueError:
    """The half of the integer kernel that reads g, given `fixed`, the
    dimension for one fixed series or its error: the genus check's error,
    else `fixed` itself when it is an error, else the HypothesisViolation of
    rho < 0, which names MAX_DIGITS in place of a rho past it, else
    rho + fixed, the dimension on a general curve.  Applied to what
    fixed_dim_or_error returns, it makes the checks of SeriesParams, then of
    DJProblem, then rho >= 0, in that order."""
    if g < 0:
        return _genus_error(g)
    if isinstance(fixed, ValueError):
        return fixed
    rho_value = rho_raw(g, r, d)
    if rho_value < 0:
        shown = f"has more than {MAX_DIGITS} digits and is" if too_long(rho_value) else f"= {rho_value}"
        return HypothesisViolation(f"rho({g},{r},{d}) {shown} < 0; the dimension statement assumes rho >= 0")
    return rho_value + fixed


def expected_dim_sigma(p: DJProblem) -> int:
    """Dimension of every component of the universal secant locus on a
    general curve: rho + e - f(r+1-|mu|+f), that is rho plus
    expected_dim_fixed_series.  Requires rho >= 0.
    """
    dim = general_dim_or_error(p.params.g, p.params.r, p.params.d, expected_dim_fixed_series(p))
    if isinstance(dim, ValueError):
        raise dim
    return dim


def expected_dim_fixed_series(p: DJProblem) -> int:
    """Lower bound for the secant locus of one fixed series: e - f(r+1-|mu|+f).

    When |mu| = d and f = d - r this is the classical virtual dimension e-d+r.
    """
    return p.mu.length - p.f * p.residual_rank


def is_empty_for_general_curve(p: DJProblem) -> bool:
    """True iff the expected dimension is negative, which forces the secant
    locus to be empty for every series on a general curve.
    """
    return expected_dim_sigma(p) < 0


def span_dimension(mu: Partition, f: int) -> int:
    """Projective dimension |mu|-f-1 of the span of the osculating spaces
    a_1.x_1, ..., a_e.x_e cut out by a deficiency-f secant condition.
    """
    return mu.total - f - 1


def _check_rho(g: int, r: int, d: int) -> int:
    error = _series_error(g, r, d)
    if error is not None:
        raise error
    value = rho_raw(g, r, d)
    if value < 0:
        raise HypothesisViolation(f"rho({g},{r},{d}) = {value} < 0")
    return value


def corollary_tangential_secant(g: int, r: int, d: int, e: int) -> bool:
    """True iff a general curve of genus g has no tangential (e+1)-secant
    (e-1)-plane in any g^r_d: the inequality 2e < r+1-rho.

    Agrees with the general emptiness predicate at mu=(2,1^(e-1)), f=1.
    """
    rho_value = _check_rho(g, r, d)
    if not 1 <= e <= r:
        raise ContractViolation(f"corollary_tangential_secant requires 1 <= e <= r, got e={e}, r={r}")
    return 2 * e < r + 1 - rho_value


def corollary_degenerate_tangents(g: int, r: int, d: int, e: int) -> bool:
    """True iff no g^r_d on a general curve has e tangent lines spanning only
    a (2e-2)-plane: the inequality 3e < r+2-rho.

    Agrees with the general emptiness predicate at mu=(2^e), f=1.
    """
    rho_value = _check_rho(g, r, d)
    if e < 1 or 2 * e > r + 1:
        raise ContractViolation(
            f"corollary_degenerate_tangents requires 1 <= e and 2e <= r+1, got e={e}, r={r}"
        )
    return 3 * e < r + 2 - rho_value


def corollary_tangent_hyperplane_dim(g: int, r: int, d: int, e: int) -> int:
    """Dimension rho + r - e of the locus of series admitting an e-secant
    tangent hyperplane (negative value = empty on a general curve).

    Identically equal to the general dimension formula at mu=(2^e), f=2e-r.
    """
    rho_value = _check_rho(g, r, d)
    if r < 3:
        raise ContractViolation(f"corollary_tangent_hyperplane_dim requires r >= 3, got r={r}")
    if e < r + 1:
        raise ContractViolation(f"corollary_tangent_hyperplane_dim requires e >= r+1, got e={e}, r={r}")
    return rho_value + r - e


def corollary_flex_bitangent(g: int, r: int, d: int, a1: int, a2: int) -> bool:
    """True iff no degree-d embedding of a general curve in P^r has a secant
    line meeting it with multiplicities (a1, a2): the inequality
    a1+a2 > (rho+2r)/(r-1), evaluated as (a1+a2)(r-1) > rho+2r in integers.

    Agrees with the general emptiness predicate at mu=(a1,a2), f=a1+a2-2.
    """
    rho_value = _check_rho(g, r, d)
    if r < 3:
        raise ContractViolation(f"corollary_flex_bitangent requires r >= 3, got r={r}")
    if a1 < 1 or a2 < 1:
        raise ContractViolation(f"corollary_flex_bitangent requires a1, a2 >= 1, got a1={a1}, a2={a2}")
    return (a1 + a2) * (r - 1) > rho_value + 2 * r


def corollary_total_ramification(g: int, r: int, d: int, a: int) -> bool:
    """True iff no g^r_d on a general curve has a point of contact order a
    leaving a residual pencil: the inequality 2a > rho-1+2r.

    Agrees with the general emptiness predicate at mu=(a), f=a+1-r.  On the
    canonical series (d=2g-2, r=g-1) the bound says h^0(O(a.x)) <= a+2-g for
    a >= g-1, so a general curve has no pencil of degree g-1 totally
    ramified at a point.
    """
    rho_value = _check_rho(g, r, d)
    if a < r:
        raise ContractViolation(f"corollary_total_ramification requires a >= r, got a={a}, r={r}")
    return 2 * a > rho_value - 1 + 2 * r
