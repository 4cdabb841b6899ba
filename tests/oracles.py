"""The labelled independent oracles and identities of the tests.

Each checks an engine of hurwitzkit by a second route that shares none of
its code, so none of them is public API.  Their inputs come from the tests
only, so they check no argument and guard no size; the public engines they
call, such as `character` and `hurwitz_value`, still guard themselves.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, permutations, product
from math import factorial, prod

from hurwitzkit import characters
from hurwitzkit.characters import character_class_sum, irrep_dimension
from hurwitzkit.hurwitz import hurwitz_value
from hurwitzkit.oracle import cycle_type
from hurwitzkit.partitions import conjugate, partitions_of
from hurwitzkit.symfunc import content_product

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def class_elements(d: int, delta: tuple[int, ...]) -> tuple[Perm, ...]:
    """The permutations of cycle type delta, by a filter over all of S_d."""
    return tuple(p for p in permutations(range(d)) if cycle_type(p) == delta)


def oracle_count_naive(pres, degree: int, profiles=()) -> int:
    """Independent oracle for oracle_count: the tuples (A_1, B_1, ... | R_1, ...
    | X_1, ..., X_F) with prod [A_i, B_i] prod R_j^2 prod X_i = 1, enumerated
    literally: Frobenius's count read without characters (Lando & Zvonkin,
    Graphs on Surfaces and Their Applications, 2004).  Each free factor runs
    over S_d and each class factor but the last over its class; the last is
    solved for and tested for membership.  Exponential in every argument: for
    tiny inputs only."""
    profs = [tuple(p) for p in profiles]
    identity = tuple(range(degree))
    free_slots = 2 * pres.handles + pres.crosscaps
    # The identity class has one element, which changes no product, so of its
    # profiles only a last one, solved for below, is read.
    class_lists = [class_elements(degree, p) for p in profs[:-1] if len(p) < degree]
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
        if not profs:
            total += prefix == identity
            continue
        for xs in product(*class_lists):
            prod_all = prefix
            for x in xs:
                prod_all = compose(prod_all, x)
            # last X is forced: prod_all * X_F = identity
            total += cycle_type(inverse(prod_all)) == profs[-1]
    return total


def hook_length_dimension(lam) -> int:
    """Independent oracle for irrep_dimension: d! over the product of the hook
    lengths of lam."""
    conj = conjugate(lam)
    hooks = prod(row - j + conj[j - 1] - i + 1
                 for i, row in enumerate(lam, start=1) for j in range(1, row + 1))
    return factorial(sum(lam)) // hooks


def full_cycle_normalized_character(lam) -> Fraction:
    """Closed form of the normalized character on the single full cycle, the
    independent check of class_column((d,)): it vanishes off the one-hook
    diagrams, else it is (-1)^{len+1} (d!/dim) / d."""
    d = sum(lam)
    if len(lam) > 1 and lam[1] > 1:  # not a hook
        return Fraction(0)
    return Fraction((-1) ** (len(lam) + 1) * factorial(d), irrep_dimension(lam) * d)


def hook_character_poly_check(delta) -> bool:
    """Independent check of the hook characters: prod_i (1 - q^{d_i}) / (1 - q)
    has coefficient of (-q)^r equal to the character of the hook (d-r, 1^r)
    on delta, for 0 <= r <= d-1.  The characters are read through the module,
    so a test can swap `characters.character`."""
    d = sum(delta)
    poly = [1] + [0] * d  # prod (1 - q^{d_i}), truncated past q^d
    for part in delta:
        poly = [c - (poly[i - part] if i >= part else 0) for i, c in enumerate(poly)]
    quotient = accumulate(poly[:d])  # divided by (1 - q): the running sums
    return all(characters.character((d - r,) + (1,) * r, delta) == (-1) ** r * coeff
               for r, coeff in enumerate(quotient))


def hurwitz_down_identity_holds(euler: int, degree: int, profiles=()) -> bool:
    """Identity: dropping the base Euler characteristic by one equals summing an
    extra branch point against the square-root weights character_class_sum."""
    profs = tuple(profiles)
    right = sum(hurwitz_value(euler, degree, profs + (delta,)) * character_class_sum(delta)
                for delta in partitions_of(degree))
    return hurwitz_value(euler - 1, degree, profs) == right


def full_cycle_identity_holds(euler: int, degree: int, profiles=(), handles: int = 1) -> bool:
    """Identity: in the presence of a maximally ramified branch point, trading 2g
    of base Euler characteristic for 2g extra full-cycle branch points costs
    d^{2g}."""
    profs = tuple(profiles) + ((degree,),)
    left = hurwitz_value(euler - 2 * handles, degree, profs)
    right = hurwitz_value(euler, degree, profs + ((degree,),) * (2 * handles))
    return left == degree ** (2 * handles) * right


def qt_pochhammer_lambda(q, t, lam) -> Fraction:
    """Product of (1 - q * t^{j-i}) over the diagram cells: the exact side of
    s_lam(p(q, t)) = qt_pochhammer_lambda(q, t, lam) * s_lam(p(0, t))."""
    q, t = Fraction(q), Fraction(t)
    return content_product(lambda c: 1 - q * t**c, 0, lam)
