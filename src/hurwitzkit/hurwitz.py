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
from math import factorial, prod
from typing import Callable

from ._errors import ValidationError, guard
from .characters import (
    _dimension_table,
    character_class_sum,
    class_column,
    colength_sum,
    weighted_colength_sum,
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
        guard("character formula", self.degree)
        profs = checked_profiles(self.degree, self.profiles)
        object.__setattr__(self, "profiles", profs)
        if self.cutoff is not None and self.cutoff < 1:
            raise ValidationError("cutoff must be >= 1 or None")
        digits = len(str(factorial(self.degree)))
        guard("output size", (abs(self.euler) + len(profs)) * digits)


@dataclass(frozen=True)
class HurwitzResult:
    value: Fraction
    query: HurwitzQuery
    is_true_hurwitz: bool
    euler_cover: int


def _character_sum(query: HurwitzQuery, factor: Callable[[Partition], object] | None = None):
    """The character sum of the module docstring, each term times factor(lam)
    when given; a term is dropped as soon as it vanishes."""
    d, euler = query.degree, query.euler
    fact = factorial(d)
    total = 0
    columns = map(class_column, query.profiles)
    for lam, dim, *values in zip(partitions_of(d), _dimension_table(d).values(), *columns):
        if query.cutoff is not None and lam.length() > query.cutoff:
            continue
        term = dim**euler if euler >= 0 else (fact // dim) ** -euler
        for value in values:
            term *= value
            if not term:
                break
        if term and factor is not None:
            term *= factor(lam)
        total += term
    return total / Fraction(fact ** max(euler, 0))


def hurwitz_number(euler: int, degree: int, profiles=(), cutoff: int | None = None) -> HurwitzResult:
    """Character-formula count of degree-d branched covers with the given profiles."""
    query = HurwitzQuery(euler, degree, tuple(profiles), cutoff)
    return HurwitzResult(
        value=_character_sum(query),
        query=query,
        is_true_hurwitz=(cutoff is None or cutoff >= degree),
        euler_cover=euler_char_cover(euler, query.profiles, degree=degree),
    )


def hurwitz_value(euler: int, degree: int, profiles=(), cutoff: int | None = None) -> Fraction:
    return _character_sum(HurwitzQuery(euler, degree, tuple(profiles), cutoff))


def hurwitz_colength_sum(euler: int, degree: int, profiles, colengths, cutoff: int | None = None) -> Fraction:
    """Sum of Hurwitz numbers over extra branch points with fixed colengths:
    each colength l adds a factor colength_sum(lam, l) under the character sum."""
    query = HurwitzQuery(euler, degree, tuple(profiles), cutoff)
    for l in colengths:
        if not 0 <= l <= degree - 1:
            raise ValidationError(f"colength {l} out of range 0..{degree - 1}")
    return _character_sum(query, lambda lam: prod(colength_sum(lam, l) for l in colengths))


def hurwitz_weighted_sum(euler: int, degree: int, profiles, weight_pairs, cutoff: int | None = None):
    """Weighted Hurwitz sum: each pair (k, c) adds a factor
    weighted_colength_sum(lam, k, c).  At all c = 1 this reduces to
    hurwitz_colength_sum with the same k's."""
    query = HurwitzQuery(euler, degree, tuple(profiles), cutoff)
    for k, _ in weight_pairs:
        if k < 1:
            raise ValidationError("weight order k must be >= 1")
    return _character_sum(
        query, lambda lam: prod(weighted_colength_sum(lam, k, c) for k, c in weight_pairs)
    )


def gluing_identity_holds(euler_a: int, euler_b: int, degree: int, profiles_a=(), profiles_b=()) -> bool:
    """Check the surface-gluing identity: the cover count for the connected sum
    equals the class-summed product of the two pieces, each opened by one
    extra branch point."""
    guard("identity check", degree)
    profs_a = tuple(as_partition(p) for p in profiles_a)
    profs_b = tuple(as_partition(p) for p in profiles_b)
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
    guard("identity check", degree)
    profs = tuple(as_partition(p) for p in profiles)
    left = hurwitz_value(euler - 1, degree, profs)
    right = Fraction(0)
    for delta in partitions_of(degree):
        right += hurwitz_value(euler, degree, profs + (delta,)) * character_class_sum(delta)
    return left == right


def full_cycle_identity_holds(euler: int, degree: int, profiles=(), handles: int = 1) -> bool:
    """In the presence of a maximally ramified branch point, trading 2g of base
    Euler characteristic for 2g extra full-cycle branch points costs d^{2g}."""
    guard("identity check", degree)
    if handles < 1:
        raise ValidationError("handles must be >= 1")
    profs = tuple(as_partition(p) for p in profiles)
    full = Partition([degree])
    left = hurwitz_value(euler - 2 * handles, degree, profs + (full,))
    right = degree ** (2 * handles) * hurwitz_value(
        euler, degree, profs + (full,) * (2 * handles + 1)
    )
    return left == right
