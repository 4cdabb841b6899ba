"""Reference values computed without any of hurwitzkit's engines.

Everything here is standard library only: partitions are enumerated afresh,
dimensions come from the hook-length formula, and normalized characters of
the three classes the workloads use come from closed forms (identity: 1;
transposition: the content sum of the diagram; full cycle: nonzero only on
hooks).  The workloads compare the program's outputs with these.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def partitions(d: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of d with parts <= max_part, as weakly decreasing tuples."""
    if max_part is None:
        max_part = d
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, max_part), 0, -1):
        out.extend((first,) + rest for rest in partitions(d - first, first))
    return tuple(out)


def partition_count(d: int) -> int:
    return len(partitions(d))


def involutions(d: int) -> int:
    """I(d) = I(d-1) + (d-1) I(d-2): permutations squaring to the identity."""
    prev, cur = 1, 1
    for n in range(2, d + 1):
        prev, cur = cur, cur + (n - 1) * prev
    return cur


@lru_cache(maxsize=None)
def hook_dimension(lam: tuple[int, ...]) -> int:
    conj = [sum(1 for p in lam if p >= j) for j in range(1, (lam[0] if lam else 0) + 1)]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(sum(lam)) // hooks


def content_sum(lam: tuple[int, ...]) -> int:
    return sum(j - i for i, row in enumerate(lam) for j in range(row))


def _hook_leg(lam: tuple[int, ...]) -> int | None:
    """r for the hook (d-r, 1^r); None when lam is not a hook."""
    if len(lam) > 1 and lam[1] > 1:
        return None
    return len(lam) - 1


def full_cycle(d: int) -> tuple[int, ...]:
    return (d,)


def transposition(d: int) -> tuple[int, ...]:
    return (2,) + (1,) * (d - 2)


def identity(d: int) -> tuple[int, ...]:
    return (1,) * d


def _normalized_character(lam: tuple[int, ...], delta: tuple[int, ...], dim: int) -> Fraction:
    d = sum(lam)
    if delta == identity(d):
        return Fraction(1)
    if d >= 2 and delta == transposition(d):
        return Fraction(content_sum(lam))
    if delta == full_cycle(d):
        r = _hook_leg(lam)
        if r is None:
            return Fraction(0)
        return Fraction((-1) ** r * factorial(d - 1), dim)
    raise ValueError(f"no closed form for the class {delta}")


def hurwitz(euler: int, d: int, profiles=()) -> Fraction:
    """sum_lam (dim/d!)^E prod_i |C_i| chi_lam(C_i) / dim, for profiles drawn
    from the identity, a transposition and the full cycle."""
    fact = factorial(d)
    total = Fraction(0)
    for lam in partitions(d):
        dim = hook_dimension(lam)
        term = Fraction(dim, fact) ** euler
        for delta in profiles:
            term *= _normalized_character(lam, tuple(delta), dim)
            if not term:
                break
        total += term
    return total


def full_cycle_count(euler: int, d: int, k: int) -> Fraction:
    """H(E, d, [(d)]^k) = ((d-1)!)^k / (d!)^E * sum_r (-1)^{rk} C(d-1, r)^{E-k}."""
    total = sum(Fraction((-1) ** (r * k)) * Fraction(comb(d - 1, r)) ** (euler - k) for r in range(d))
    return Fraction(factorial(d - 1)) ** k / Fraction(factorial(d)) ** euler * total


def unbranched_value(euler: int, d: int) -> Fraction | None:
    """Closed forms of H(E, d) with no profile where one is known."""
    if euler == 2:
        return Fraction(1, factorial(d))
    if euler == 1:
        return Fraction(involutions(d), factorial(d))
    if euler == 0:
        return Fraction(partition_count(d))
    return None
