"""Elementary bilinear (Hirota-type) checks for content-product Schur sums.

tau(N, n, p) = g(n) * sum over partitions of length <= N of the content
product of r at offset n times the Schur polynomial.  The normalization g is
built multiplicatively from r with the convention U_0 = 0, i.e.
e^{-U_i} = r(1)...r(i) for i >= 1 and inverted products below zero; any other
choice rescales tau by an n-only factor that the bilinear equations do not
tolerate term by term.

The two elementary equations are checked identically in p up to a total
degree.  Their coefficients were pinned by solving for the rational nullspace
of the candidate bilinear terms over random tabulated content data: with this
term support the identities below are unique up to scale, and they hold for
arbitrary content functions.  Written in the times t_m = p_m / m both carry
the symmetric 1/2 normalization; here they appear in the p variables, so the
t_2 derivative shows up as 2 d/dp_2.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable

from ._errors import ValidationError, as_int, guard
from .genfun import ContentFunction, _check_sizes, hyp_tau_series
from .symfunc import PowerSumPoly


def _g_normalization(r: ContentFunction, n: int) -> Fraction:
    """Product of e^{-U_i} factors between 0 and n, with U_0 = 0: r(j) is a
    factor of the |n - j| products e^{-U_i} that reach it, so g(n) is the
    product of r(j)^|n - j| over 0 < j < n, or over n < j <= 0 for n < 0."""
    n, out = as_int("n", n), Fraction(1)
    for j in range(1, n) if n > 0 else range(0, n, -1):
        out *= _nonzero(r, j) ** abs(n - j)
    return out


def _nonzero(r: ContentFunction, x: int):
    val = r(x)
    if not val:
        raise ValidationError(f"content function vanishes at {x}, normalization undefined")
    return val


def _bkp_tau_poly(r: ContentFunction, n: int, cutoff: int | None, d_max: int) -> PowerSumPoly:
    """g(n) * sum_{len(lam)<=cutoff} r_lam(n) s_lam(p) to weight d_max: g(n) times hyp_tau_series."""
    g = _g_normalization(r, n)
    if cutoff is not None and as_int("cutoff N", cutoff, 0) == 0:  # the bilinear check's N - 1
        _check_sizes(d_max)
        return PowerSumPoly.one().scale(g)
    series = hyp_tau_series("BKP", r, n, d_max, cutoff)
    return PowerSumPoly({key.profiles[0]: g * c for key, c in series.items()})


def _content_table(r: ContentFunction) -> Callable[[int], Fraction]:
    """r with each value kept in a dict on first use: one check evaluates r(x)
    once per distinct x, and r raises its own pole, tabulation or type error at
    the first x it fails on, as it would uncached."""
    values = {}

    def lookup(x):
        if x not in values:
            values[x] = r(x)
        return values[x]

    return lookup


def _scaled(tau: PowerSumPoly, scale: int) -> PowerSumPoly:
    """scale * tau with integer coefficients, as a copy: a tau shared between
    offsets is scaled by each offset's own lcm."""
    out = PowerSumPoly()
    out.coeffs = {k: c.numerator * (scale // c.denominator) for k, c in tau.coeffs.items()}
    return out


def hirota_bilinear_check(r: ContentFunction, cutoff: int, d_max: int,
                          n_values=(0, 1)) -> bool:
    """Both elementary bilinear equations hold identically in p to total degree d_max.
    Scaled by 2 and by the lcm of the denominators of an offset's seven taus,
    they are checked in integers: a nonzero scale does not change a zero test.
    Each tau (N, n) is built once, from one table of the content values of r:
    offsets n and n + 1 share three of their seven taus."""
    _check_sizes(d_max, as_int("cutoff N", cutoff), "bilinear check")  # shifted sums: N - 1 >= 0
    n_values = tuple(as_int("n", n) for n in n_values)
    if not n_values:
        raise ValidationError("n_values must name at least one offset")
    guard("bilinear offset", max(abs(n) for n in n_values))
    work = d_max + 2  # second derivatives drop the weight by two
    table = _content_table(r)
    built: dict[tuple[int, int], PowerSumPoly] = {}  # (N, n) -> tau, over every offset
    for n in dict.fromkeys(n_values):  # each distinct offset once, in the given order
        keys = {(dN, dn): (cutoff + dN, n + dn)
                for dN, dn in ((0, 0), (1, 1), (2, 2), (-1, -1), (0, 1), (-1, 0), (1, 2))}
        for N, m in keys.values():
            if (N, m) not in built:
                built[N, m] = _bkp_tau_poly(table, m, N, work)
        scale = lcm(*(c.denominator for key in keys.values() for c in built[key].coeffs.values()))
        taus = {shift: _scaled(built[key], scale) for shift, key in keys.items()}

        def d1(p):
            return p.derivative(1)

        def d2(p):
            return p.derivative(2)

        def d11(p):
            return p.derivative(1).derivative(1)

        a, b = taus[0, 0], taus[1, 1]
        eq1 = (  # products past weight d_max are never formed
            (d2(a).times(b, d_max) - a.times(d2(b), d_max)
             - d1(a).times(d1(b), d_max)
             - taus[2, 2].times(taus[-1, -1], d_max)).scale(2)
            + d11(a).times(b, d_max) + a.times(d11(b), d_max)
        )
        if not eq1.is_zero():
            return False

        a, b = taus[0, 1], taus[1, 1]
        eq2 = (
            d11(a).times(b, d_max) - a.times(d11(b), d_max)
            + (d2(a).times(b, d_max) - a.times(d2(b), d_max)
               - d1(taus[2, 2]).times(taus[-1, 0], d_max)
               + d1(taus[1, 2]).times(taus[0, 0], d_max)).scale(2)
        )
        if not eq2.is_zero():
            return False
    return True
