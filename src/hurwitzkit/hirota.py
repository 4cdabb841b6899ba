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

from ._errors import ValidationError, guard
from .genfun import ContentFunction, _check_sizes, hyp_tau_series
from .symfunc import PowerSumPoly


def g_normalization(r: ContentFunction, n: int) -> Fraction:
    """Product of e^{-U_i} factors between 0 and n, with U_0 = 0: r(j) is a
    factor of the |n - j| products e^{-U_i} that reach it, so g(n) is the
    product of r(j)^|n - j| over 0 < j < n, or over n < j <= 0 for n < 0."""
    out = Fraction(1)
    for j in range(1, n) if n > 0 else range(0, n, -1):
        out *= _nonzero(r, j) ** abs(n - j)
    return out


def _nonzero(r: ContentFunction, x: int):
    val = r(x)
    if not val:
        raise ValidationError(f"content function vanishes at {x}, normalization undefined")
    return val


def bkp_tau_poly(r: ContentFunction, n: int, cutoff: int | None, d_max: int) -> PowerSumPoly:
    """g(n) * sum_{len(lam)<=cutoff} r_lam(n) s_lam(p) to weight d_max: g(n) times hyp_tau_series."""
    g = g_normalization(r, n)
    if cutoff == 0:
        return PowerSumPoly.one().scale(g)
    series = hyp_tau_series("BKP", r, n, d_max, cutoff)
    return PowerSumPoly({key.profiles[0].parts: g * c for key, c in series.items()})


def hirota_bilinear_check(r: ContentFunction, cutoff: int, d_max: int,
                          n_values=(0, 1)) -> bool:
    """Both elementary bilinear equations hold identically in p to total degree d_max.
    Scaled by 2 and by the lcm of the denominators of an offset's seven taus,
    they are checked in integers: a nonzero scale does not change a zero test."""
    _check_sizes(d_max, cutoff, "bilinear check")  # the shifted sums need N - 1 >= 0
    guard("bilinear offset", max((abs(n) for n in n_values), default=0))
    work = d_max + 2  # second derivatives drop the weight by two
    for n in n_values:
        taus = {(dN, dn): bkp_tau_poly(r, n + dn, cutoff + dN, work)
                for dN, dn in ((0, 0), (1, 1), (2, 2), (-1, -1), (0, 1), (-1, 0), (1, 2))}
        scale = lcm(*(c.denominator for t in taus.values() for c in t.coeffs.values()))
        for t in taus.values():
            t.coeffs = {k: c.numerator * (scale // c.denominator) for k, c in t.coeffs.items()}

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
