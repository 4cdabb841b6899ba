"""Integer partitions, Young-diagram statistics and conjugacy-class data for S_d."""
from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import ge, index
from typing import Iterable, Iterator

from ._errors import ValidationError, as_int, as_tuple, guard, shown


class Partition(tuple):
    """Weakly decreasing tuple of positive integers; the empty partition is valid.

    A validated tuple: a Partition equals, hashes and orders like the tuple of
    its parts, so the two key the same dict and cache entries.  Like any
    tuple, the empty Partition is false.  Parts must be integers; numpy
    integers pass, floats and strings do not.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        try:
            if isinstance(parts, (str, bytes)):
                raise TypeError("a string is not a sequence of parts")
            pts = tuple(map(index, parts))
        except TypeError as exc:
            raise ValidationError(f"a partition is an iterable of integers, got {shown(parts)}"
                                  ) from exc
        if pts and min(pts) < 1:
            raise ValidationError(f"partition parts must be >= 1: {shown(pts)}")
        if not all(map(ge, pts, pts[1:])):
            raise ValidationError(f"partition parts must be weakly decreasing: {shown(pts)}")
        return tuple.__new__(cls, pts)

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a plain tuple."""
        return tuple(self)

    def weight(self) -> int:
        return sum(self)

    def length(self) -> int:
        return len(self)

    def colength(self) -> int:
        return self.weight() - self.length()

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of occurrences."""
        mult: dict[int, int] = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def contents(self) -> Iterator[int]:
        """Yield j - i over the diagram cells (i, j), 1-based, row by row."""
        for i, row in enumerate(self, start=1):
            for j in range(1, row + 1):
                yield j - i

    def to_json(self) -> list[int]:
        return list(self)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"


def as_partition(value) -> Partition:
    """Coerce a Partition or iterable of ints to a Partition."""
    if isinstance(value, Partition):
        return value
    return Partition(value)


@lru_cache(maxsize=None)
def partitions_of(d: int) -> tuple[Partition, ...]:
    """All partitions of d, in reverse-lexicographic order: (d) first, (1^d) last."""
    d = as_int("d", d, 0)
    guard("partitions", d)
    if d == 0:
        return (Partition(),)
    # (first, *rest) over the partitions rest of d - first whose parts are at
    # most first: valid by construction, so built without the checks.
    return tuple(tuple.__new__(Partition, (first, *rest))
                 for first in range(d, 0, -1)
                 for rest in partitions_of(d - first) if not rest or rest[0] <= first)


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram."""
    lam = as_partition(lam)
    if not lam:
        return lam
    return Partition(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def z_order(delta) -> int:
    """Centralizer order z = prod_i i^{m_i} m_i! of a permutation with this cycle type."""
    delta = as_partition(delta)
    z = 1
    for part, mult in delta.multiplicities().items():
        z *= part**mult * factorial(mult)
    return z


def cycle_class_size(delta) -> int:
    """Number of permutations in S_d with the given cycle type: d! / z."""
    return _class_size(delta if isinstance(delta, tuple) else as_partition(delta))


@lru_cache(maxsize=None)
def _class_size(delta: tuple[int, ...]) -> int:
    """Keyed on the tuple the caller passes, an entry that a tuple and its
    Partition share; only a miss checks it."""
    delta = as_partition(delta)
    return factorial(delta.weight()) // z_order(delta)


def checked_profiles(degree: int, profiles: Iterable) -> tuple[Partition, ...]:
    """The profiles of a degree-d branched cover as Partitions, each of weight d >= 1."""
    degree = as_int("degree", degree, 1)
    profs = as_tuple("profiles", profiles, as_partition)
    for p in profs:
        if p.weight() != degree:
            raise ValidationError(f"profile {shown(p.parts)} has weight {shown(p.weight())}, "
                                  f"expected {shown(degree)}")
    return profs


def euler_char_cover(euler: int, profiles: Iterable, degree: int | None = None) -> int:
    """Euler characteristic of a degree-d cover of a surface with Euler characteristic
    `euler`, branched with the given profiles: d*euler - sum of colengths.
    """
    euler = as_int("euler", euler)
    profs = as_tuple("profiles", profiles, as_partition)
    if not profs and degree is None:
        raise ValidationError("degree required when no profiles are given")
    d = profs[0].weight() if profs else degree
    if degree is not None and degree != d:
        raise ValidationError(f"degree {shown(degree)} does not match profile weight {shown(d)}")
    return d * euler - sum(p.colength() for p in checked_profiles(d, profs))
