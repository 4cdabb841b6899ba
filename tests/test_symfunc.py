import hashlib
import json
import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzkit import GuardError, ValidationError
from hurwitzkit.characters import irrep_dimension
from hurwitzkit.genfun import cauchy_littlewood_check, single_branch_point_series
from hurwitzkit.partitions import Partition, partitions_of
from hurwitzkit.symfunc import (
    PowerAlphabet,
    PowerSumPoly,
    complete_homogeneous,
    content_product,
    eval_schur,
    exp_truncated,
    pochhammer_lambda,
    qt_pochhammer_lambda,
    schur_poly,
)

random.seed(20240818)


def rand_frac(span=9):
    return Fraction(random.randint(-span, span), random.randint(1, span))


def test_power_sum_poly_arithmetic():
    p1 = PowerSumPoly.variable(1)
    p2 = PowerSumPoly.variable(2)
    poly = p1 * p1 + p2.scale(3)
    assert poly.coefficient((1, 1)) == 1
    assert poly.coefficient((2,)) == 3
    assert (poly - poly).is_zero()
    assert poly.derivative(1).coefficient((1,)) == 2
    assert poly.derivative(2).coefficient(()) == 3
    assert poly.evaluate({1: Fraction(2), 2: Fraction(5)}) == 4 + 15


def test_exp_truncated_is_exponential():
    arg = PowerSumPoly.variable(1)
    series = exp_truncated(arg, 4)
    for k in range(5):
        assert series.coefficient((1,) * k) == Fraction(1, factorial(k))
    with pytest.raises(ValidationError):
        exp_truncated(PowerSumPoly.one(), 3)


def test_complete_homogeneous_small():
    assert complete_homogeneous(0) == PowerSumPoly.one()
    assert complete_homogeneous(1).coefficient((1,)) == 1
    h3 = complete_homogeneous(3)
    assert h3.coefficient((1, 1, 1)) == Fraction(1, 6)
    assert h3.coefficient((2, 1)) == Fraction(1, 2)
    assert h3.coefficient((3,)) == Fraction(1, 3)
    assert complete_homogeneous(-1).is_zero()


def test_schur_poly_examples():
    assert schur_poly(Partition((1,))).coefficient((1,)) == 1
    s2 = schur_poly(Partition((2,)))
    assert s2.coefficient((1, 1)) == Fraction(1, 2)
    assert s2.coefficient((2,)) == Fraction(1, 2)
    s21 = schur_poly(Partition((2, 1)))
    assert s21.coefficient((1, 1, 1)) == Fraction(1, 3)
    assert s21.coefficient((3,)) == Fraction(-1, 3)
    assert s21.coefficient((2, 1)) == 0


def test_leading_coefficient_is_normalized_dimension():
    for d in range(9):
        for lam in partitions_of(d):
            lead = schur_poly(lam).coefficient((1,) * d)
            assert lead == Fraction(irrep_dimension(lam), factorial(d))


def test_eval_schur_specializations():
    assert eval_schur(Partition((1,)), PowerAlphabet.p_infinity(1)) == 1
    assert eval_schur((2, 1), PowerAlphabet.constant(3, 3)) == 8
    assert eval_schur((1, 1), PowerAlphabet.from_matrix([[2]], 2)) == 0
    with pytest.raises(ValidationError):
        eval_schur((2, 1), PowerAlphabet.p_infinity(2))


def test_eval_schur_identity_matrix_matches_constant_alphabet():
    for n in range(1, 6):
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for d in range(1, 6):
            alpha_m = PowerAlphabet.from_matrix(ident, d)
            alpha_c = PowerAlphabet.constant(Fraction(n), d)
            for lam in partitions_of(d):
                assert eval_schur(lam, alpha_m) == eval_schur(lam, alpha_c)


def test_pochhammer_lambda():
    a = rand_frac()
    assert pochhammer_lambda(a, (1,)) == a
    assert pochhammer_lambda(3, (2,)) == 12
    assert pochhammer_lambda(3, (1, 1)) == 6


def test_pochhammer_row_product_form():
    def rising(a, n):
        out = Fraction(1)
        for i in range(n):
            out *= a + i
        return out

    for d in range(9):
        for lam in partitions_of(d):
            a = rand_frac()
            rows = Fraction(1)
            for i, part in enumerate(lam.parts, start=1):
                rows *= rising(a - i + 1, part)
            assert pochhammer_lambda(a, lam) == rows


def test_specialization_ratios():
    """Ratio of the constant alphabet to the one-hot alphabet is the content product."""
    for d in range(1, 9):
        for lam in partitions_of(d):
            for _ in range(2):
                a = rand_frac()
                num = eval_schur(lam, PowerAlphabet.constant(a, d))
                den = eval_schur(lam, PowerAlphabet.p_infinity(d))
                assert num == pochhammer_lambda(a, lam) * den


def test_qt_pochhammer():
    q, t = Fraction(1, 2), Fraction(1, 3)
    assert qt_pochhammer_lambda(0, t, (3, 2)) == 1
    assert qt_pochhammer_lambda(q, t, (1,)) == Fraction(1, 2)
    assert qt_pochhammer_lambda(q, t, (2,)) == Fraction(5, 12)


def test_qt_specialization_ratio():
    pairs = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 5), Fraction(3, 7)),
             (Fraction(-1, 3), Fraction(2, 3))]
    for q, t in pairs:
        for d in range(1, 7):
            for lam in partitions_of(d):
                num = eval_schur(lam, PowerAlphabet.qt(q, t, d))
                den = eval_schur(lam, PowerAlphabet.qt(0, t, d))
                assert num == qt_pochhammer_lambda(q, t, lam) * den


def test_content_product():
    assert content_product(lambda x: Fraction(1), 5, (3, 2)) == 1
    lam = Partition((3, 1))
    n = Fraction(7, 2)
    assert content_product(lambda x: x, n, lam) == pochhammer_lambda(n, lam)
    assert content_product(lambda x: x * x, 3, (2,)) == 144


def test_content_product_multiplicative():
    lam = Partition((2, 2, 1))
    n = Fraction(5, 3)
    f = lambda x: x + 2
    g = lambda x: 2 * x - 1
    assert content_product(lambda x: f(x) * g(x), n, lam) == content_product(
        f, n, lam
    ) * content_product(g, n, lam)


def test_cauchy_littlewood():
    assert cauchy_littlewood_check(1)
    assert cauchy_littlewood_check(2)
    assert cauchy_littlewood_check(6)
    with pytest.raises(GuardError, match="d_max <= 8"):
        cauchy_littlewood_check(9)
    with pytest.raises(ValidationError, match="d_max must be >= 0, got -2"):
        cauchy_littlewood_check(-2)


def test_single_variable_schur_sum_is_geometric():
    """With one variable, the length cutoff at 1 is automatic and the Schur sum
    telescopes to a geometric series."""
    x = Fraction(2, 7)
    alpha = PowerAlphabet.explicit({m: x**m for m in range(1, 7)})
    for d in range(1, 7):
        total = sum(eval_schur(lam, alpha) for lam in partitions_of(d))
        assert total == x**d


def test_power_sum_poly_json():
    s21 = schur_poly(Partition((2, 1)))
    assert s21.to_json() == {"1,1,1": "1/3", "3": "-1/3"}


# --- ring laws of PowerSumPoly -------------------------------------------------

_MONOMIALS = [lam.parts for d in range(4) for lam in partitions_of(d)]
_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_POLYS = st.dictionaries(st.sampled_from(_MONOMIALS), _COEFFS, max_size=4).map(PowerSumPoly)
_POINTS = st.fixed_dictionaries({m: _COEFFS for m in (1, 2, 3)})


@settings(max_examples=40, deadline=None)
@given(a=_POLYS, b=_POLYS, c=_POLYS)
def test_power_sum_poly_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a * PowerSumPoly.one() == a and (a - a).is_zero()


@settings(max_examples=40, deadline=None)
@given(a=_POLYS, b=_POLYS, m=st.integers(1, 4))
def test_derivative_obeys_the_leibniz_rule(a, b, m):
    assert (a * b).derivative(m) == a.derivative(m) * b + a * b.derivative(m)
    assert (a + b).derivative(m) == a.derivative(m) + b.derivative(m)


@settings(max_examples=40, deadline=None)
@given(a=_POLYS, b=_POLYS, point=_POINTS)
def test_evaluate_is_a_ring_homomorphism_on_fractions(a, b, point):
    value = PowerSumPoly.evaluate
    assert value(a * b, point) == value(a, point) * value(b, point)
    assert value(a + b, point) == value(a, point) + value(b, point)
    assert value(PowerSumPoly.one(), point) == 1


@settings(max_examples=40, deadline=None)
@given(a=_POLYS, b=_POLYS, seed=st.integers(0, 2**32 - 1))
def test_evaluate_is_a_ring_homomorphism_on_numpy_arrays(a, b, seed):
    """The Monte Carlo path evaluates Schur polynomials on arrays of traces."""
    rng = np.random.default_rng(seed)
    point = {m: rng.normal(size=5) + 1j * rng.normal(size=5) for m in (1, 2, 3)}
    value = PowerSumPoly.evaluate
    assert np.allclose(value(a * b, point), value(a, point) * value(b, point),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(value(a + b, point), value(a, point) + value(b, point),
                       rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=_POLYS, b=_POLYS, w=st.integers(0, 12))
def test_truncated_product_is_the_truncated_full_product(a, b, w):
    got, want = a.times(b, w), (a * b).truncate(w)
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)  # same key order too


# --- exp_truncated against full products -------------------------------------


def _exp_by_full_products(arg, max_weight):
    """exp_truncated as it was written with untruncated products."""
    arg = arg.truncate(max_weight)
    total = power = PowerSumPoly.one()
    k = 1
    while True:
        power = (power * arg).truncate(max_weight)
        if power.is_zero():
            return total
        total = total + power.scale(Fraction(1, factorial(k)))
        k += 1


def test_exp_truncated_matches_full_products():
    rng = random.Random(12)
    monomials = [lam.parts for d in range(1, 7) for lam in partitions_of(d)]
    p1, p2 = PowerSumPoly.variable(1), PowerSumPoly.variable(2)
    args = [p1, p1 + p2.scale(Fraction(1, 2)), p1 * p1 + p2]
    args += [
        PowerSumPoly({rng.choice(monomials): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                      for _ in range(rng.randint(1, 5))})
        for _ in range(12)
    ]
    for arg in args:
        for w in range(9):
            got, want = exp_truncated(arg, w), _exp_by_full_products(arg, w)
            assert got == want
            assert list(got.coeffs) == list(want.coeffs)


# sha256 of json.dumps(list(single_branch_point_series(8).json_terms())), recorded
# with untruncated products in exp_truncated.
SINGLE_BRANCH_8_SHA256 = "7891c9ed78b78e3d7d2a283771225e4d35237bea44eeb2a6b63640b34ddef106"


def test_single_branch_point_series_is_pinned():
    listing = list(single_branch_point_series(8).json_terms())
    assert len(listing) == 34
    assert hashlib.sha256(json.dumps(listing).encode()).hexdigest() == SINGLE_BRANCH_8_SHA256
