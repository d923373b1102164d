"""Exact integer combinatorics: falling factorials, generalized binomials,
elementary symmetric polynomials, and canonical contact-order partitions.

Everything here is arbitrary-precision integer arithmetic; no floats enter
any computation path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, factorial, prod
from typing import Sequence

__all__ = [
    "falling_factorial",
    "binomial",
    "elementary_symmetric",
    "Partition",
]


def falling_factorial(x: int, k: int) -> int:
    """x(x-1)...(x-k+1); defined for any integer x, k >= 0.  Empty product is 1."""
    if k < 0:
        raise ValueError(f"falling_factorial needs k >= 0, got k={k}")
    return prod(range(x - k + 1, x + 1))


def binomial(m: int, k: int) -> int:
    """Generalized binomial coefficient, valid for negative m.

    Returns 0 for k < 0 (the convention used throughout the count formulas);
    otherwise falling_factorial(m, k) / k!, which for m < 0 is
    (-1)^k C(k-m-1, k) (upper negation).
    """
    if k < 0:
        return 0
    if m >= 0:
        return comb(m, k)
    return (-1) ** k * comb(k - m - 1, k)


def elementary_symmetric(values: Sequence[int], j: int) -> int:
    """e_j(values): the sum of all products of j distinct entries; e_0 = 1."""
    n = len(values)
    if j < 0 or j > n:
        raise ValueError(f"elementary_symmetric needs 0 <= j <= {n}, got j={j}")
    # coefficient DP on prod(1 + v*t), truncated at degree j
    coeffs = [0] * (j + 1)
    coeffs[0] = 1
    for v in values:
        for i in range(j, 0, -1):
            coeffs[i] += v * coeffs[i - 1]
    return coeffs[j]


@dataclass(frozen=True)
class Partition:
    """A multiset of positive contact orders, stored weakly decreasing.

    Input order is irrelevant: parts are canonicalized at construction, and
    every downstream operation consumes the canonical form.
    """

    parts: tuple[int, ...] = ()
    # Number of parts (the number of distinct contact points) and their sum
    # (the degree of the contact divisor), computed once; they take no part
    # in repr, == or hash, which see the parts alone.
    length: int = field(init=False, repr=False, compare=False)
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        canonical = tuple(sorted(self.parts, reverse=True))
        for a in canonical:
            if isinstance(a, bool) or not isinstance(a, int) or a < 1:
                raise ValueError(f"partition parts must be positive integers, got {a!r}")
        object.__setattr__(self, "parts", canonical)
        object.__setattr__(self, "length", len(canonical))
        object.__setattr__(self, "total", sum(canonical))

    @property
    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of parts with that value."""
        return dict(Counter(self.parts))

    @property
    def symmetry_factor(self) -> int:
        """Product of n_v! over the multiplicity profile (orders within equal parts)."""
        return prod(map(factorial, self.multiplicities.values()))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.parts) + ")"
