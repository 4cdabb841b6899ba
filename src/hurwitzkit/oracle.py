"""Brute-force ground truth: count solutions of the surface-group relation in S_d.

A degree-d cover of a surface with g handles (or q crosscaps) and F branch
points corresponds to a tuple (A_1, B_1, ..., A_g, B_g | R_1, ..., R_q,
X_1, ..., X_F) with prod [A_i, B_i] * prod R_j^2 * prod X_i = identity and
X_i of the prescribed cycle types; the count divided by d! is the cover count.

The tuple count is the value at the identity of a convolution of per-factor
count distributions over the group: the commutator counts, the square counts
and the class indicators.  All of them are class functions, and so are their
convolutions, so each is kept as a dictionary keyed by cycle type and
evaluated at one representative per conjugacy class.  The square counts are
read off the cycle types alone, since the type of R fixes the type of R^2.
The commutator counts and the convolutions read one table per degree (d <= 8):
for classes b and c, how many w in C_b take a representative h_t into C_c.
The number of x y z = 1 over three classes is symmetric in them, so the
table is built by one enumeration per unordered pair of classes, every
element of the smaller class composed with a representative of the larger:
244 370 compositions at d = 8, where a pass over S_d per representative
takes p(d) d! = 887 040.  A convolution walks only the pairs of its two
factors' classes.  Class functions commute, so the densest
factor is the starting distribution and the next densest is read off at the
identity: the first and last factors are free, and each middle class factor
costs p(d)^2 steps.  The commutator and square counts are raised to the k
handles or crosscaps by repeated squaring, O(log k) dense convolutions of at
most p(d)^3 steps.  This is the Frobenius-Mednykh count computed inside the
centre of the group algebra: no character theory is used anywhere in this
module.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, permutations
from math import factorial

from ._errors import ValidationError, as_int, guard, guard_output_size, shown
from .partitions import checked_profiles, cycle_class_size, partitions_of, z_order

Perm = tuple[int, ...]


@dataclass(frozen=True)
class SurfacePresentation:
    """Closed surface as either g handles (orientable) or q crosscaps."""

    kind: str  # "orientable" | "nonorientable"
    handles: int = 0
    crosscaps: int = 0

    def __post_init__(self):
        object.__setattr__(self, "handles", as_int("handles", self.handles))
        object.__setattr__(self, "crosscaps", as_int("crosscaps", self.crosscaps))
        if self.kind == "orientable":
            if self.handles < 0 or self.crosscaps:
                raise ValidationError("orientable surface: handles >= 0, no crosscaps")
        elif self.kind == "nonorientable":
            if self.crosscaps < 1 or self.handles:
                raise ValidationError("nonorientable surface: crosscaps >= 1, no handles")
        else:
            raise ValidationError(f"unknown surface kind {shown(self.kind)}")

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


@lru_cache(maxsize=None)
def _class_pairs(d: int) -> dict[tuple[int, ...], dict[tuple[int, ...], dict[tuple[int, ...], int]]]:
    """table[type b][type c] = {type t: #{w in C_b : h_t w in C_c}}, for one
    representative h_t per class.

    |C_t| times that is N(t, b, c), the number of x y z = 1 with x, y, z in
    C_t, C_b, C_c, which is symmetric in its three classes: a cyclic shift
    keeps x y z = 1, and inverting reverses the product while each class is
    closed under inverses.  So each unordered pair of classes is enumerated
    once: the representative of the larger class composed with every element
    of the smaller gives N for every c, and so both orders of the pair.  The
    type of each product is looked up in the one pass over S_d that sorts
    the permutations into classes."""
    types = {p: cycle_type(p) for p in permutations(range(d))}
    classes = {}
    for p, t in types.items():
        classes.setdefault(t, []).append(p)
    order = sorted(classes, key=lambda t: -len(classes[t]))
    table = {b: {c: {} for c in order} for b in order}
    for i, big in enumerate(order):
        h = classes[big][0]
        for small in order[i:]:
            hits = Counter(types[tuple(map(h.__getitem__, w))] for w in classes[small])
            for c, n in hits.items():
                table[small][c][big] = n
                table[big][c][small] = n * len(classes[big]) // len(classes[small])
    return table


@lru_cache(maxsize=None)
def _square_counts(d: int) -> dict[tuple[int, ...], int]:
    """counts[type h] = number of R in S_d with R^2 = h.

    The type of R fixes the type of R^2: an odd j-cycle squares to a j-cycle
    and an even one to two j/2-cycles.  So the |C_mu| permutations of each
    type mu square into one class, shared evenly by its elements."""
    hits = Counter()
    for mu in partitions_of(d):
        halves = ((j,) if j % 2 else (j // 2,) * 2 for j in mu)
        hits[tuple(sorted(chain.from_iterable(halves), reverse=True))] += cycle_class_size(mu)
    return {t: n // cycle_class_size(t) for t, n in hits.items()}


@lru_cache(maxsize=None)
def _commutator_counts(d: int) -> dict[tuple[int, ...], int]:
    """counts[type h] = number of pairs (A, B) with A B A^-1 B^-1 = h.

    B A^-1 B^-1 = A^-1 h has |Z(A)| = z(type A) solutions B when A^-1 h
    has the type of A, and none otherwise; A = h y^-1 gives A^-1 h = y."""
    counts = Counter()
    for a, row in _class_pairs(d).items():
        for t, n in row[a].items():
            counts[t] += n * z_order(a)
    return dict(counts)


def _convolve(f: dict, g: dict, d: int) -> dict:
    """(f * g)[h] = sum_y f[h y^-1] g[y] for class functions keyed by cycle
    type: y^-1 has the type b of y, so table[b][c][t] counts the y with
    h_t y^-1 in C_c.  Walks only the keys of g against the keys of f; zero
    values are dropped."""
    table = _class_pairs(d)
    out = Counter()
    for b, gb in g.items():
        row = table[b]
        for c, fc in f.items():
            for t, n in row[c].items():
                out[t] += gb * fc * n
    return {t: v for t, v in out.items() if v}


def _halves(f: dict, k: int, d: int) -> list[dict]:
    """Factors whose convolution is f^k (k >= 1): two copies of f^(k // 2),
    which can go at the two free ends of a product, then f if k is odd.  Each
    half is raised the same way, so f^k costs about log2 k convolutions."""
    if k == 1:
        return [f]
    half = reduce(lambda a, b: _convolve(a, b, d), _halves(f, k // 2, d))
    return [half, half] + [f] * (k % 2)


def _surface(pres) -> SurfacePresentation:
    if not isinstance(pres, SurfacePresentation):
        raise ValidationError(f"pres must be a SurfacePresentation, got {shown(pres)}")
    return pres


def oracle_count(pres: SurfacePresentation, degree: int, profiles=()) -> int:
    """Number of surface-relation solutions with X_i in the prescribed classes."""
    pres = _surface(pres)
    profs = checked_profiles(degree, profiles)
    guard("oracle degree", degree)
    guard_output_size(pres.euler, degree, len(profs))
    factors = [{prof: 1} for prof in profs]
    if pres.handles:
        factors += _halves(_commutator_counts(degree), pres.handles, degree)
    if pres.crosscaps:
        factors += _halves(_square_counts(degree), pres.crosscaps, degree)
    # Class functions commute: start from the densest factor, read the next
    # densest off at the identity, where (f * g)[id] = sum_b f[b] g[b] |C_b|,
    # and convolve the rest in between.  The identity pads to two factors.
    factors.sort(key=len)
    factors[:0] = [{(1,) * degree: 1}] * (2 - len(factors))
    dist, last = factors.pop(), factors.pop()
    for g in factors:
        dist = _convolve(dist, g, degree)
    return sum(gb * dist.get(b, 0) * cycle_class_size(b) for b, gb in last.items())


def oracle_hurwitz(pres: SurfacePresentation, degree: int, profiles=()) -> Fraction:
    """Solution count divided by d!."""
    return Fraction(oracle_count(pres, degree, profiles), factorial(degree))


def presentation_independence_check(euler: int, degree: int, profiles=()) -> bool:
    """For even euler <= 0 both presentations (handles vs crosscaps) exist and
    must give identical counts."""
    if as_int("euler", euler) > 0 or euler % 2:
        raise ValidationError("independence check needs even euler <= 0")
    orient = SurfacePresentation.orientable((2 - euler) // 2)
    nonori = SurfacePresentation.nonorientable(2 - euler)
    return oracle_count(orient, degree, profiles) == oracle_count(nonori, degree, profiles)
