import random
from collections import Counter
from fractions import Fraction

import pytest

from hurwitzkit import GuardError, ValidationError, genfun, hirota
from hurwitzkit.genfun import ContentFunction
from hurwitzkit.hirota import _bkp_tau_poly, _g_normalization, hirota_bilinear_check
from hurwitzkit.symfunc import PowerSumPoly, content_product


def test_g_normalization_convention():
    r = ContentFunction.rational([Fraction(1, 2)])  # r(x) = x + 1/2
    assert _g_normalization(r, 0) == 1
    assert _g_normalization(r, 1) == 1
    assert _g_normalization(r, 2) == r(1)
    assert _g_normalization(r, 3) == r(1) ** 2 * r(2)
    assert _g_normalization(r, -1) == r(0)
    assert _g_normalization(r, -2) == r(0) ** 2 * r(-1)


def test_g_normalization_rejects_vanishing():
    r = ContentFunction.rational([0])  # r(x) = x vanishes at 0
    with pytest.raises(ValidationError):
        _g_normalization(r, -1)
    assert _g_normalization(r, 2) == 1  # only positive arguments touched


@pytest.mark.parametrize("r", [
    ContentFunction.one(),
    ContentFunction.rational([Fraction(3, 2)]),
    ContentFunction.rational([Fraction(9973, 9967)], [Fraction(1, 3)]),
], ids=["one", "x+3/2", "four-digit"])
def test_g_normalization_is_the_nested_product(r):
    """g(n) against its definition written out: the product of e^{-U_i} =
    r(1)...r(i) over 0 < i < n, and of r(0) r(-1)...r(1 - m) over
    0 < m <= -n below zero."""
    for n in range(-16, 17):
        want = Fraction(1)
        for i in range(1, n):
            for j in range(1, i + 1):
                want *= r(j)
        for m in range(1, -n + 1):
            for j in range(m):
                want *= r(-j)
        got = _g_normalization(r, n)
        assert got == want and type(got) is Fraction, n


def test_tau_poly_structure():
    tau = _bkp_tau_poly(ContentFunction.one(), 0, 1, 3)
    # length <= 1: single-row diagrams only
    assert tau.coefficient(()) == 1
    assert tau.coefficient((1,)) == 1
    assert tau.coefficient((2,)) == Fraction(1, 2)
    assert tau.coefficient((1, 1)) == Fraction(1, 2)
    tau2 = _bkp_tau_poly(ContentFunction.one(), 0, 2, 2)
    assert tau2.coefficient((2,)) == 0  # s_(2) + s_(1,1) cancels p_2
    assert tau2.coefficient((1, 1)) == 1


def test_tau_poly_content_weights():
    r = ContentFunction.rational([Fraction(1, 2)])
    n = 1
    tau = _bkp_tau_poly(r, n, 3, 2)
    g = _g_normalization(r, n)
    # weight of lam=(1): r(n); coefficients of s_(1) = p_1
    assert tau.coefficient((1,)) == g * r(1)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_bilinear_constant_weight(cutoff):
    assert hirota_bilinear_check(ContentFunction.one(), cutoff, 4)


@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_bilinear_shifted_weight(cutoff):
    r = ContentFunction.rational([Fraction(1, 2)])
    assert hirota_bilinear_check(r, cutoff, 3)


def test_bilinear_random_tabulated_weight():
    """Offsets 0, 1 and -1 share taus but scale them by different lcms, so a
    shared tau scaled in place would break the later offsets."""
    random.seed(4)
    table = {i: Fraction(random.randint(1, 30), random.randint(1, 11)) for i in range(-9, 12)}
    r = ContentFunction.tabulated(table)
    assert hirota_bilinear_check(r, 2, 3, n_values=(0, 1, -1))


def test_each_tau_is_built_once_per_check(monkeypatch):
    """Offsets 0 and 1 read 14 taus (N, n), three of them shared: the check
    builds the 11 distinct ones, each once."""
    true_tau = hirota._bkp_tau_poly
    built = []

    def counted(r, n, cutoff, d_max):
        built.append((cutoff, n))
        return true_tau(r, n, cutoff, d_max)

    monkeypatch.setattr(hirota, "_bkp_tau_poly", counted)
    assert hirota_bilinear_check(ContentFunction.rational([Fraction(1, 2)]), 2, 3)
    assert len(built) == len(set(built)) == 11


def test_a_repeated_offset_is_checked_once(monkeypatch):
    """n_values = (16,) * 100 multiplies as many series as (16,) alone."""
    true_times = PowerSumPoly.times
    calls = Counter()

    def counted(self, other, max_weight=None):
        calls[max_weight] += 1
        return true_times(self, other, max_weight)

    monkeypatch.setattr(PowerSumPoly, "times", counted)
    r = ContentFunction.rational([Fraction(1, 2)])
    counts = []
    for n_values in ((16,), (16,) * 100):
        calls.clear()
        assert hirota_bilinear_check(r, 2, 3, n_values=n_values)
        counts.append(sum(calls.values()))
    assert counts[0] == counts[1] > 0


def test_each_content_value_is_evaluated_once_per_check():
    """The taus and the normalizations g(n) of one check read one table of
    content values, filled on first use."""
    random.seed(11)
    tabulated = ContentFunction.tabulated(
        {x: Fraction(random.randint(1, 30), random.randint(1, 11)) for x in range(-10, 16)})
    calls = Counter()

    def counted(x):
        calls[x] += 1
        return tabulated(x)

    r = ContentFunction(counted, "counted")
    assert hirota_bilinear_check(r, 3, 4, n_values=(0, 1, -1, 5))
    assert set(range(1, 5)) <= set(calls)  # g(5) reads r(1) ... r(4)
    assert max(calls.values()) == 1


def test_second_equation_alone_fails_the_check(monkeypatch):
    """At n = 0 and N = 2 the tau at (N, n + 1) is read by the second equation
    only; doubled, it leaves the first equation true and must fail the check."""
    true_tau = hirota._bkp_tau_poly

    def doubled(r, n, cutoff, d_max):
        tau = true_tau(r, n, cutoff, d_max)
        return tau.scale(2) if (n, cutoff) == (1, 2) else tau

    monkeypatch.setattr(hirota, "_bkp_tau_poly", doubled)
    assert not hirota_bilinear_check(ContentFunction.one(), 2, 4, n_values=(0,))


def test_bilinear_detects_wrong_tau(monkeypatch):
    """A content weight that is not a genuine content product must fail."""
    # depends on the diagram shape, not on cell contents
    monkeypatch.setattr(genfun, "content_product", lambda r, n, lam: Fraction(1 + lam.length()))
    assert not hirota_bilinear_check(ContentFunction.one(), 2, 3)


@pytest.mark.parametrize("d_max", [2, 3, 4])
def test_bilinear_check_reads_every_weight_up_to_d_max_plus_2(d_max, monkeypatch):
    """A weight that is wrong only on the diagrams of one weight w must fail
    for every w <= d_max + 2: the second derivatives bring tau terms of weight
    d_max + 2 down into the checked window.  Weight d_max + 3 lies outside it."""

    def fake_at(w):
        return lambda r, n, lam: Fraction(1 + lam.length() if lam.weight() == w else 1)

    for w in range(1, d_max + 3):
        monkeypatch.setattr(genfun, "content_product", fake_at(w))
        assert not hirota_bilinear_check(ContentFunction.one(), 2, d_max), w
    monkeypatch.setattr(genfun, "content_product", fake_at(d_max + 3))
    assert hirota_bilinear_check(ContentFunction.one(), 2, d_max)


def test_guards():
    with pytest.raises(GuardError):
        hirota_bilinear_check(ContentFunction.one(), 2, 7)
    with pytest.raises(ValidationError):
        hirota_bilinear_check(ContentFunction.one(), 0, 3)
    for d_max in (-1, -2, -3):
        with pytest.raises(ValidationError, match=f"d_max must be >= 0, got {d_max}"):
            hirota_bilinear_check(ContentFunction.one(), 2, d_max)


def test_bilinear_check_at_a_four_digit_shift(monkeypatch):
    """At a = 9973/9967 and n = +-16 the common denominator of the seven taus
    runs to hundreds of digits; a weight moved by 9967^-3 on one diagram, which
    is no longer a content product, still fails."""
    r = ContentFunction.rational([Fraction(9973, 9967)])
    assert hirota_bilinear_check(r, 2, 4, n_values=(16, -16))

    def skewed_at(shape):
        def weight(r, n, lam):
            value = content_product(r, n, lam)
            return value * (1 + Fraction(1, 9967**3)) if lam.parts == shape else value
        return weight

    for shape in ((1,), (2, 1), (3, 1, 1)):
        monkeypatch.setattr(genfun, "content_product", skewed_at(shape))
        assert not hirota_bilinear_check(r, 2, 4, n_values=(16, -16))


def test_non_rational_content_values_are_rejected():
    floats = ContentFunction.tabulated({x: x + 0.5 for x in range(-12, 12)})
    with pytest.raises(ValidationError):
        hirota_bilinear_check(floats, 2, 3)
    with pytest.raises(ValidationError):
        _g_normalization(floats, 3)
