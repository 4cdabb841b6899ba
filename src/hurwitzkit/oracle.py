"""Brute-force ground truth: count solutions of the surface-group relation in S_d.

A degree-d cover of a surface with g handles (or q crosscaps) and F branch
points corresponds to a tuple (A_1, B_1, ..., A_g, B_g | R_1, ..., R_q,
X_1, ..., X_F) with prod [A_i, B_i] * prod R_j^2 * prod X_i = identity and
X_i of the prescribed cycle types; the count divided by d! is the cover count.

The tuple count is a convolution of per-factor count distributions over the
group: the identity, the commutator counts, the square counts and the class
indicators.  All of them are class functions, and so are their convolutions,
so each is kept as a dictionary keyed by cycle type and evaluated at one
representative per conjugacy class.  One table per degree, built by plain
enumeration in O(p(d) d!) compositions, counts the pairs (type x, type x^-1 h)
over x in S_d for each representative h; the guard admits d <= 8.  This is
the Frobenius-Mednykh count computed inside the centre of the group algebra:
no character theory is used anywhere in this module.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from ._errors import ValidationError, guard
from .partitions import checked_profiles, cycle_class_size, z_order

Perm = tuple[int, ...]


@dataclass(frozen=True)
class SurfacePresentation:
    """Closed surface as either g handles (orientable) or q crosscaps."""

    kind: str  # "orientable" | "nonorientable"
    handles: int = 0
    crosscaps: int = 0

    def __post_init__(self):
        if self.kind == "orientable":
            if self.handles < 0 or self.crosscaps:
                raise ValidationError("orientable surface: handles >= 0, no crosscaps")
        elif self.kind == "nonorientable":
            if self.crosscaps < 1 or self.handles:
                raise ValidationError("nonorientable surface: crosscaps >= 1, no handles")
        else:
            raise ValidationError(f"unknown surface kind {self.kind!r}")

    @property
    def euler(self) -> int:
        if self.kind == "orientable":
            return 2 - 2 * self.handles
        return 2 - self.crosscaps

    @classmethod
    def sphere(cls) -> "SurfacePresentation":
        return cls("orientable", handles=0)

    @classmethod
    def torus(cls) -> "SurfacePresentation":
        return cls("orientable", handles=1)

    @classmethod
    def orientable(cls, handles: int) -> "SurfacePresentation":
        return cls("orientable", handles=handles)

    @classmethod
    def rp2(cls) -> "SurfacePresentation":
        return cls("nonorientable", crosscaps=1)

    @classmethod
    def klein_bottle(cls) -> "SurfacePresentation":
        return cls("nonorientable", crosscaps=2)

    @classmethod
    def nonorientable(cls, crosscaps: int) -> "SurfacePresentation":
        return cls("nonorientable", crosscaps=crosscaps)


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def cycle_type(p: Perm) -> tuple[int, ...]:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        size = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = p[node]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def class_elements(d: int, delta: tuple[int, ...]) -> tuple[Perm, ...]:
    return tuple(p for p in permutations(range(d)) if cycle_type(p) == delta)


@lru_cache(maxsize=None)
def _class_pairs(d: int) -> dict[tuple[int, ...], dict[tuple, int]]:
    """pairs[type h][(type x, type x^-1 h)] = number of x in S_d, for one
    representative h per class.  x^-1 runs over S_d as x does and has the
    type of x, so z = x^-1 is enumerated and x^-1 h = z h."""
    types = {p: cycle_type(p) for p in permutations(range(d))}
    reps: dict[tuple[int, ...], Perm] = {}
    for p, t in types.items():
        reps.setdefault(t, p)
    pairs = {}
    for t, h in reps.items():
        pairs[t] = Counter((tz, types[compose(z, h)]) for z, tz in types.items())
    return pairs


@lru_cache(maxsize=None)
def _square_counts(d: int) -> dict[tuple[int, ...], int]:
    """counts[type h] = number of R in S_d with R^2 = h."""
    hits = Counter(cycle_type(compose(r, r)) for r in permutations(range(d)))
    return {t: n // cycle_class_size(t) for t, n in hits.items()}


@lru_cache(maxsize=None)
def _commutator_counts(d: int) -> dict[tuple[int, ...], int]:
    """counts[type h] = number of pairs (A, B) with A B A^-1 B^-1 = h.

    B A^-1 B^-1 = A^-1 h has |Z(A)| = z(type A) solutions B when A^-1 h
    has the type of A, and none otherwise."""
    counts = {}
    for t, pairs in _class_pairs(d).items():
        total = sum(n * z_order(a) for (a, b), n in pairs.items() if a == b)
        if total:
            counts[t] = total
    return counts


def _convolve(f: dict, g: dict, d: int) -> dict:
    """(f * g)[h] = sum_x f[x] g[x^-1 h] for class functions keyed by cycle type."""
    out = {}
    for t, pairs in _class_pairs(d).items():
        total = sum(n * f.get(a, 0) * g.get(b, 0) for (a, b), n in pairs.items())
        if total:
            out[t] = total
    return out


def oracle_count(pres: SurfacePresentation, degree: int, profiles=()) -> int:
    """Number of surface-relation solutions with X_i in the prescribed classes."""
    profs = checked_profiles(degree, profiles)
    guard("oracle degree", degree)
    guard("oracle complexity", pres.crosscaps + 2 * pres.handles + len(profs))
    identity = (1,) * degree
    dist = {identity: 1}
    for _ in range(pres.handles):
        dist = _convolve(dist, _commutator_counts(degree), degree)
    for _ in range(pres.crosscaps):
        dist = _convolve(dist, _square_counts(degree), degree)
    for prof in profs:
        dist = _convolve(dist, {tuple(prof.parts): 1}, degree)
    return dist.get(identity, 0)


def oracle_hurwitz(pres: SurfacePresentation, degree: int, profiles=()) -> Fraction:
    """Solution count divided by d!."""
    return Fraction(oracle_count(pres, degree, profiles), factorial(degree))


def oracle_count_naive(pres: SurfacePresentation, degree: int, profiles=()) -> int:
    """Literal nested-tuple enumeration (last class factor solved for and
    membership-tested).  Exponentially slower than oracle_count; kept as an
    independent cross-check for tiny inputs."""
    profs = checked_profiles(degree, profiles)
    work = factorial(degree) ** (2 * pres.handles + pres.crosscaps)
    for p in profs[:-1]:
        work *= cycle_class_size(p)
    guard("naive oracle work", work)
    identity = tuple(range(degree))
    free_slots = 2 * pres.handles + pres.crosscaps
    class_lists = [class_elements(degree, p.parts) for p in profs]
    total = 0
    for frees in product(permutations(identity), repeat=free_slots):
        prefix = identity
        if pres.kind == "orientable":
            for i in range(pres.handles):
                a, b = frees[2 * i], frees[2 * i + 1]
                prefix = compose(prefix, compose(compose(a, b), compose(inverse(a), inverse(b))))
        else:
            for r in frees:
                prefix = compose(prefix, compose(r, r))
        if not class_lists:
            total += prefix == identity
            continue
        for xs in product(*class_lists[:-1]):
            prod_all = prefix
            for x in xs:
                prod_all = compose(prod_all, x)
            # last X is forced: prod_all * X_F = identity
            needed = inverse(prod_all)
            total += cycle_type(needed) == profs[-1].parts
    return total


def presentation_independence_check(euler: int, degree: int, profiles=()) -> bool:
    """For even euler <= 0 both presentations (handles vs crosscaps) exist and
    must give identical counts."""
    if euler > 0 or euler % 2:
        raise ValidationError("independence check needs even euler <= 0")
    orient = SurfacePresentation.orientable((2 - euler) // 2)
    nonori = SurfacePresentation.nonorientable(2 - euler)
    return oracle_count(orient, degree, profiles) == oracle_count(nonori, degree, profiles)
