"""Integer partitions, Young-diagram statistics and conjugacy-class data for S_d."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import ge
from typing import Iterable, Iterator

from ._errors import ValidationError


class Partition:
    """Weakly decreasing tuple of positive integers; the empty partition is valid.

    Immutable value object with structural equality and hashing, so it can key
    character tables and series coefficients.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        pts = tuple(map(int, parts))
        if pts and min(pts) < 1:
            raise ValidationError(f"partition parts must be >= 1: {pts}")
        if not all(map(ge, pts, pts[1:])):
            raise ValidationError(f"partition parts must be weakly decreasing: {pts}")
        object.__setattr__(self, "_parts", pts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def weight(self) -> int:
        return sum(self._parts)

    def length(self) -> int:
        return len(self._parts)

    def colength(self) -> int:
        return self.weight() - self.length()

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of occurrences."""
        mult: dict[int, int] = {}
        for p in self._parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def cells(self) -> Iterator[tuple[int, int]]:
        """Yield 1-based (row, column) cells of the Young diagram."""
        for i, row in enumerate(self._parts, start=1):
            for j in range(1, row + 1):
                yield (i, j)

    def contents(self) -> Iterator[int]:
        """Yield j - i over all diagram cells."""
        for i, j in self.cells():
            yield j - i

    def to_json(self) -> list[int]:
        return list(self._parts)

    @classmethod
    def from_json(cls, data) -> "Partition":
        return cls(data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i):
        return self._parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        if isinstance(other, tuple):
            return self._parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition{self._parts}"


def as_partition(value) -> Partition:
    """Coerce a Partition or iterable of ints to a Partition."""
    if isinstance(value, Partition):
        return value
    return Partition(value)


@dataclass(frozen=True)
class FrobeniusCoords:
    """Arm/leg lengths (a_1 > ... > a_k >= 0, b_1 > ... > b_k >= 0) along the main diagonal."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]

    def __post_init__(self):
        if len(self.arms) != len(self.legs):
            raise ValidationError("arm and leg counts differ")

    @property
    def diagonal(self) -> int:
        return len(self.arms)

    def weight(self) -> int:
        return sum(a + b + 1 for a, b in zip(self.arms, self.legs))


@lru_cache(maxsize=None)
def _partition_tuples(d: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in _partition_tuples(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_of(d: int) -> tuple[Partition, ...]:
    """All partitions of d, in reverse-lexicographic order: (d) first, (1^d) last."""
    if d < 0:
        raise ValidationError("d must be >= 0")
    return tuple(Partition(t) for t in _partition_tuples(d, d))


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram."""
    lam = as_partition(lam)
    if not lam.parts:
        return lam
    out = []
    for j in range(1, lam.parts[0] + 1):
        out.append(sum(1 for p in lam.parts if p >= j))
    return Partition(out)


def frobenius(lam) -> FrobeniusCoords:
    """Frobenius coordinates: a_i = lam_i - i, b_i = lam'_i - i for i up to the diagonal."""
    lam = as_partition(lam)
    conj = conjugate(lam)
    kappa = sum(1 for i, p in enumerate(lam.parts, start=1) if p >= i)
    arms = tuple(lam.parts[i - 1] - i for i in range(1, kappa + 1))
    legs = tuple(conj.parts[i - 1] - i for i in range(1, kappa + 1))
    return FrobeniusCoords(arms, legs)


def colength(delta) -> int:
    """Weight minus length."""
    return as_partition(delta).colength()


def z_order(delta) -> int:
    """Centralizer order z = prod_i i^{m_i} m_i! of a permutation with this cycle type."""
    delta = as_partition(delta)
    z = 1
    for part, mult in delta.multiplicities().items():
        z *= part**mult * factorial(mult)
    return z


def cycle_class_size(delta) -> int:
    """Number of permutations in S_d with the given cycle type: d! / z."""
    return _class_size(as_partition(delta))


@lru_cache(maxsize=None)
def _class_size(delta: Partition) -> int:
    return factorial(delta.weight()) // z_order(delta)


def aut_order(mu) -> int:
    """Order of the automorphism group of the partition: product of multiplicity factorials."""
    mu = as_partition(mu)
    out = 1
    for mult in mu.multiplicities().values():
        out *= factorial(mult)
    return out


def euler_char_cover(euler: int, profiles: Iterable, degree: int | None = None) -> int:
    """Euler characteristic of a degree-d cover of a surface with Euler characteristic
    `euler`, branched with the given profiles: d*euler - sum of colengths.
    """
    profs = [as_partition(p) for p in profiles]
    weights = {p.weight() for p in profs}
    if len(weights) > 1:
        raise ValidationError(f"profiles have mixed weights: {sorted(weights)}")
    if weights:
        d = weights.pop()
        if degree is not None and degree != d:
            raise ValidationError(f"degree {degree} does not match profile weight {d}")
    else:
        if degree is None:
            raise ValidationError("degree required when no profiles are given")
        d = degree
    if d < 1:
        raise ValidationError("degree must be >= 1")
    return d * euler - sum(p.colength() for p in profs)
