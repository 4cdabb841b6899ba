"""Hurwitz numbers through the character formula, for any base Euler characteristic.

The basic sum is over partitions lam of the degree d (optionally cut off at
length N): (dim lam / d!)^E * prod_i |C_i| chi_lam(Delta_i) / dim lam.
For N >= d this counts degree-d branched covers, not necessarily connected,
each weighted by 1/|Aut|.  Both d!/dim lam and each |C_i| chi_lam(Delta_i) /
dim lam are integers, so the sum runs in integers and is divided by (d!)^E
once at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import factorial, prod
from operator import mul
from typing import Callable

from ._errors import (ValidationError, as_int, as_rational, as_tuple, guard, guard_output_size,
                      shown)
from .characters import (
    _column,
    character_class_sum,
    class_column,
    _weighted_colength_sum,
)
from .partitions import (
    Partition,
    as_partition,
    checked_profiles,
    euler_char_cover,
    partitions_of,
    z_order,
)


@dataclass(frozen=True)
class HurwitzQuery:
    euler: int
    degree: int
    profiles: tuple[Partition, ...]
    cutoff: int | None = None  # None means no length cutoff

    def __post_init__(self):
        object.__setattr__(self, "euler", as_int("euler", self.euler))
        object.__setattr__(self, "degree", as_int("degree", self.degree))
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", as_int("cutoff", self.cutoff, 1))
        guard("character formula", self.degree)
        profs = checked_profiles(self.degree, self.profiles)
        object.__setattr__(self, "profiles", profs)
        guard_output_size(self.euler, self.degree, len(profs))


@dataclass(frozen=True)
class HurwitzResult:
    value: Fraction
    query: HurwitzQuery
    is_true_hurwitz: bool
    euler_cover: int


def _character_sum(query: HurwitzQuery, factor: Callable[[Partition], object] | None = None):
    """The character sum of the module docstring, each term times factor(lam)
    when given: the weights (dim lam)^E, or (d!/dim lam)^-E, times each
    profile's class column, with factor called on the nonzero terms only."""
    d, euler = query.degree, query.euler
    fact = factorial(d)
    dims = _column((1,) * d).values()
    terms = [dim**euler for dim in dims] if euler >= 0 else [(fact // dim) ** -euler for dim in dims]
    for column in map(class_column, query.profiles):
        terms = map(mul, terms, column)
    lams = partitions_of(d)
    if query.cutoff is not None:
        kept = [lam.length() <= query.cutoff for lam in lams]
        lams, terms = compress(lams, kept), compress(terms, kept)
    if factor is not None:
        terms = (term * factor(lam) for lam, term in zip(lams, terms) if term)
    return sum(terms) / Fraction(fact ** max(euler, 0))


def hurwitz_number(euler: int, degree: int, profiles=(), cutoff: int | None = None) -> HurwitzResult:
    """Character-formula count of degree-d branched covers with the given profiles."""
    query = HurwitzQuery(euler, degree, profiles, cutoff)
    return HurwitzResult(
        value=_character_sum(query),
        query=query,
        is_true_hurwitz=(cutoff is None or cutoff >= degree),
        euler_cover=euler_char_cover(euler, query.profiles, degree=degree),
    )


def hurwitz_value(euler: int, degree: int, profiles=(), cutoff: int | None = None) -> Fraction:
    return _character_sum(HurwitzQuery(euler, degree, profiles, cutoff))


def _weight_pair(pair) -> tuple[int, int | Fraction]:
    try:
        k, c = pair
    except (TypeError, ValueError):  # no pair: not iterable, or not of two entries
        raise ValidationError(f"a weight pair is (k, c), got {shown(pair)}") from None
    return as_int("weight order k", k, 1), as_rational("c", c)


def hurwitz_weighted_sum(euler: int, degree: int, profiles, weight_pairs, cutoff: int | None = None):
    """Weighted Hurwitz sum: each pair (k, c) adds a factor _weighted_colength_sum(lam, k, c),
    the x^k coefficient of prod_cells (1 + content x)^c.  At c = 1 that is e_k of the
    contents, the colength class sum, so the pair (k, 1) sums over every profile of colength k."""
    query = HurwitzQuery(euler, degree, profiles, cutoff)
    pairs = as_tuple("weight_pairs", weight_pairs, _weight_pair)
    guard("weight order", sum(k for k, _ in pairs))
    return _character_sum(query, lambda lam: prod(_weighted_colength_sum(lam, k, c)
                                                  for k, c in pairs))


def gluing_identity_holds(euler_a: int, euler_b: int, degree: int, profiles_a=(), profiles_b=()) -> bool:
    """Check the surface-gluing identity: the cover count for the connected sum
    equals the class-summed product of the two pieces, each opened by one
    extra branch point."""
    euler_a, euler_b = as_int("euler_a", euler_a), as_int("euler_b", euler_b)
    guard("identity check", as_int("degree", degree))
    profs_a = as_tuple("profiles_a", profiles_a, as_partition)
    profs_b = as_tuple("profiles_b", profiles_b, as_partition)
    left = hurwitz_value(euler_a + euler_b, degree, profs_a + profs_b)
    right = Fraction(0)
    for delta in partitions_of(degree):
        right += (
            z_order(delta)
            * hurwitz_value(euler_a + 1, degree, profs_a + (delta,))
            * hurwitz_value(euler_b + 1, degree, (delta,) + profs_b)
        )
    return left == right


def hurwitz_down_identity_holds(euler: int, degree: int, profiles=()) -> bool:
    """Check that dropping the base Euler characteristic by one equals summing an
    extra branch point against the square-root weights character_class_sum."""
    euler, degree = as_int("euler", euler), as_int("degree", degree)
    guard("identity check", degree)
    profs = as_tuple("profiles", profiles, as_partition)
    left = hurwitz_value(euler - 1, degree, profs)
    right = Fraction(0)
    for delta in partitions_of(degree):
        right += hurwitz_value(euler, degree, profs + (delta,)) * character_class_sum(delta)
    return left == right


def full_cycle_identity_holds(euler: int, degree: int, profiles=(), handles: int = 1) -> bool:
    """In the presence of a maximally ramified branch point, trading 2g of base
    Euler characteristic for 2g extra full-cycle branch points costs d^{2g}."""
    euler, degree = as_int("euler", euler), as_int("degree", degree)
    guard("identity check", degree)
    handles = as_int("handles", handles, 1)
    profs = as_tuple("profiles", profiles, as_partition)
    full = Partition([degree])
    left = hurwitz_value(euler - 2 * handles, degree, profs + (full,))
    right = degree ** (2 * handles) * hurwitz_value(
        euler, degree, profs + (full,) * (2 * handles + 1)
    )
    return left == right
