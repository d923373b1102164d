"""Vanishing and ramification sequences of linear series at a point, the
node-compatibility (refined pair) test, subsequence splits, and the exact
integer identities that the dimension bound rests on.

A vanishing sequence lists the section vanishing orders 0 <= a_0 < ... < a_r <= d
at a point; subtracting i from the i-th entry gives the weakly increasing
ramification sequence, whose sum is the ramification weight.  The same shape
of data doubles as a Schubert index; "Schubert index" is a role here, not a
separate type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le, lt
from typing import Iterable, Sequence

from .bn import SeriesParams, rho_raw
from .dejonq import plucker_total
from .exact import Partition

__all__ = [
    "VanishingSequence",
    "RamificationSequence",
    "ramification_from_vanishing",
    "vanishing_from_ramification",
    "weight",
    "complementary_vanishing",
    "is_refined_pair",
    "split_sequence",
    "additivity_check",
    "case_ii_min_sequence",
    "proof_identity",
    "plucker_identity_check",
]


def _init_sequence(seq, kind: str, entries: Iterable[int], d: int, strict: bool) -> None:
    """Validate and store the entries of a vanishing sequence (strict, top
    entry at most d) or of a ramification sequence (weak, top at most d-r)."""
    entries = tuple(entries)
    if not entries:
        raise ValueError(f"{kind} sequence must have length r+1 >= 1")
    out_of_order = le if strict else lt
    for prev, cur in zip(entries, entries[1:]):
        if out_of_order(cur, prev):
            raise ValueError(f"{kind} sequence must {'strictly' if strict else 'weakly'} increase, got {entries}")
    top = d if strict else d - (len(entries) - 1)
    if entries[0] < 0 or entries[-1] > top:
        raise ValueError(f"{kind} sequence {entries} out of range [0, {top}]")
    object.__setattr__(seq, "entries", entries)
    object.__setattr__(seq, "d", d)


@dataclass(frozen=True)
class VanishingSequence:
    """Strictly increasing vanishing orders a_0 < ... < a_r in [0, d]."""

    entries: tuple[int, ...] = field(default=())
    d: int = 0

    def __init__(self, entries: Iterable[int], d: int) -> None:
        _init_sequence(self, "vanishing", entries, d, strict=True)

    @property
    def r(self) -> int:
        return len(self.entries) - 1


@dataclass(frozen=True)
class RamificationSequence:
    """Weakly increasing ramification orders 0 <= alpha_0 <= ... <= alpha_r <= d-r."""

    entries: tuple[int, ...] = field(default=())
    d: int = 0

    def __init__(self, entries: Iterable[int], d: int) -> None:
        _init_sequence(self, "ramification", entries, d, strict=False)

    @property
    def r(self) -> int:
        return len(self.entries) - 1


def ramification_from_vanishing(a: VanishingSequence) -> RamificationSequence:
    """alpha_i = a_i - i; strict increase of `a` makes the result weakly increasing."""
    return RamificationSequence((v - i for i, v in enumerate(a.entries)), a.d)


def vanishing_from_ramification(alpha: RamificationSequence) -> VanishingSequence:
    """a_i = alpha_i + i; inverse of ramification_from_vanishing."""
    return VanishingSequence((v + i for i, v in enumerate(alpha.entries)), alpha.d)


def weight(alpha: RamificationSequence) -> int:
    """Ramification weight: the sum of the sequence."""
    return sum(alpha.entries)


def complementary_vanishing(a: VanishingSequence) -> VanishingSequence:
    """The sequence b with b_{r-i} = d - a_i (an involution)."""
    return VanishingSequence((a.d - v for v in reversed(a.entries)), a.d)


def is_refined_pair(a: VanishingSequence, b: VanishingSequence) -> bool:
    """True iff a_i + b_{r-i} = d for all i (exact node compatibility)."""
    if a.d != b.d or a.r != b.r:
        raise ValueError(f"sequences have mismatched context: (r={a.r}, d={a.d}) vs (r={b.r}, d={b.d})")
    d = a.d
    return all(x + y == d for x, y in zip(a.entries, reversed(b.entries)))


def split_sequence(
    a: VanishingSequence,
    selected: Iterable[int],
    sub_size: int | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the entries of `a` by index into (selected, complement), each increasing.

    `selected` holds distinct positions in [0, r].  When `sub_size` is given
    (r+1-|mu|+f for the governing secant problem) the selection must have
    exactly that many indices.  The multiset union of the two outputs is the
    whole sequence.
    """
    raw = list(selected)
    idx = sorted(set(raw))
    if len(idx) != len(raw):
        raise ValueError(f"selected indices must be distinct, got {raw}")
    if idx and (idx[0] < 0 or idx[-1] > a.r):
        raise ValueError(f"selected indices {idx} out of range [0, {a.r}]")
    if sub_size is not None and len(idx) != sub_size:
        raise ValueError(f"selection size {len(idx)} != required size {sub_size}")
    chosen = set(idx)
    sub = tuple(v for i, v in enumerate(a.entries) if i in chosen)
    comp = tuple(v for i, v in enumerate(a.entries) if i not in chosen)
    return sub, comp


def additivity_check(
    b: VanishingSequence,
    sub: Sequence[int],
    complement: Sequence[int],
    r: int,
    d: int,
) -> bool:
    """True iff sum(b) + sum(sub) + sum(complement) = (r+1)d.

    When (sub, complement) split the partner sequence of `b` at a node, this
    aggregate equality holds exactly when the pair is refined.
    """
    return sum(b.entries) + sum(sub) + sum(complement) == (r + 1) * d


def case_ii_min_sequence(mu: Partition, f: int, r: int, d: int | None = None) -> VanishingSequence:
    """Minimal vanishing sequence at a point absorbing the whole contact divisor:

        (0, 1, ..., |mu|-f-1, |mu|, |mu|+1, ..., r+f)

    i.e. entry i for i < |mu|-f, then i+f.  Its ramification weight is exactly
    f(r+1-|mu|+f).  `d` defaults to r+f, the smallest degree the sequence fits in.
    """
    s = mu.total
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if not max(s - r, 0) <= f <= s:
        raise ValueError(f"f={f} outside [{max(s - r, 0)}, {s}] for |mu|={s}, r={r}")
    if d is None:
        d = r + f
    if r + f > d:
        raise ValueError(f"sequence top entry r+f={r + f} exceeds d={d}")
    entries = tuple(i if i < s - f else i + f for i in range(r + 1))
    return VanishingSequence(entries, d)


def proof_identity(g: int, m: int, r: int, d: int, mu_total: int, f: int) -> tuple[int, int]:
    """Both sides of the dimension-count bookkeeping identity; they are equal
    for ALL integer inputs.

    lhs = rho(g-m,r,d) + rho(m, r-|mu|+f, d-|mu|) + rho(m, |mu|-f-1, d)
          - (r+1)d + C(r+1,2) + C(r+1-|mu|+f,2) + C(|mu|-f,2)
    rhs = rho(g,r,d) - f(r+1-|mu|+f) + m
    """
    s = mu_total
    q = r - s + f
    # rho_raw has no sign or range checks: the identity is algebraic
    # C(n,2) written as n(n-1)//2: exact for every integer n, and cheap enough
    # for the exhaustive-box verification
    lhs = (
        rho_raw(g - m, r, d)
        + rho_raw(m, q, d - s)
        + rho_raw(m, s - f - 1, d)
        - (r + 1) * d
        + (r + 1) * r // 2
        + (q + 1) * q // 2
        + (s - f) * (s - f - 1) // 2
    )
    rhs = rho_raw(g, r, d) - f * (q + 1) + m
    return lhs, rhs


def plucker_identity_check(sequences: Sequence[RamificationSequence], params: SeriesParams) -> bool:
    """Bookkeeping validator: do the supplied ramification sequences account for
    the full ramification weight (r+1)d + (r+1)r(g-1) of a g^r_d?
    """
    for alpha in sequences:
        if alpha.d != params.d or alpha.r != params.r:
            raise ValueError(
                f"sequence context (r={alpha.r}, d={alpha.d}) does not match "
                f"series (r={params.r}, d={params.d})"
            )
    return sum(weight(alpha) for alpha in sequences) == plucker_total(params.g, params.r, params.d)
