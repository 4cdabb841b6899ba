"""Schur functions as exact polynomials in power sums, plus their specializations.

Everything here is quasi-homogeneous in the variables p_1, p_2, ... with
deg p_m = m.  The exact (Fraction) path is authoritative; complex floats are
supported for matrix-trace alphabets used by the Monte Carlo harness.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Mapping

from ._errors import ValidationError, as_int, guard
from .partitions import Partition, as_partition

Monomial = tuple[int, ...]  # a partition written as a weakly decreasing tuple


def fraction_text(value) -> str:
    """A rational as the "num/den" string that every JSON output writes."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _merge(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b, reverse=True))


class PowerSumPoly:
    """Sparse polynomial in p_1, p_2, ... with exact rational coefficients.

    Keys are power-sum monomials p_D recorded as the partition D; zero
    coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, Fraction] | None = None):
        self.coeffs: dict[Monomial, Fraction] = {}
        if coeffs:
            for key, val in coeffs.items():
                if val:
                    self.coeffs[tuple(key)] = Fraction(val)

    @classmethod
    def zero(cls) -> "PowerSumPoly":
        return cls()

    @classmethod
    def one(cls) -> "PowerSumPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def variable(cls, m: int) -> "PowerSumPoly":
        m = as_int("power-sum index", m, 1)
        return cls({(m,): Fraction(1)})

    def coefficient(self, delta) -> Fraction:
        return self.coeffs.get(as_partition(delta), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PowerSumPoly") -> "PowerSumPoly":
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            new = out.get(key, 0) + val
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        res = PowerSumPoly()
        res.coeffs = out
        return res

    def __neg__(self) -> "PowerSumPoly":
        res = PowerSumPoly()
        res.coeffs = {k: -v for k, v in self.coeffs.items()}
        return res

    def __sub__(self, other: "PowerSumPoly") -> "PowerSumPoly":
        return self + (-other)

    def scale(self, factor) -> "PowerSumPoly":
        factor = factor if isinstance(factor, int) else Fraction(factor)
        res = PowerSumPoly()
        if factor:
            res.coeffs = {k: v * factor for k, v in self.coeffs.items()}
        return res

    def __mul__(self, other: "PowerSumPoly") -> "PowerSumPoly":
        return self.times(other)

    def times(self, other: "PowerSumPoly", max_weight: int | None = None) -> "PowerSumPoly":
        """Product keeping only the terms of weight <= max_weight (all when None);
        a pair of monomials past the bound is never multiplied."""
        right = [(sum(kb), kb, vb) for kb, vb in other.coeffs.items()]
        out: dict[Monomial, Fraction] = {}
        for ka, va in self.coeffs.items():
            room = None if max_weight is None else max_weight - sum(ka)
            for wb, kb, vb in right:
                if room is not None and wb > room:
                    continue
                key = _merge(ka, kb)
                new = out.get(key, 0) + va * vb
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        res = PowerSumPoly()
        res.coeffs = out
        return res

    def truncate(self, max_weight: int) -> "PowerSumPoly":
        res = PowerSumPoly()
        res.coeffs = {k: v for k, v in self.coeffs.items() if sum(k) <= max_weight}
        return res

    def derivative(self, m: int) -> "PowerSumPoly":
        """Partial derivative with respect to p_m.  Distinct monomials stay
        distinct when one p_m is removed, so no two terms meet."""
        res = PowerSumPoly()
        res.coeffs = {key[:i] + key[i + 1:]: val * key.count(m)
                      for key, val in self.coeffs.items() if m in key for i in [key.index(m)]}
        return res

    def evaluate(self, values: Mapping[int, object]):
        """Evaluate at concrete p_m values (exact rationals or complex floats)."""
        exact = all(isinstance(v, (int, Fraction)) for v in values.values())
        total = Fraction(0) if exact else 0j
        for key, coeff in self.coeffs.items():
            term = coeff if exact else complex(coeff)
            for m in key:
                if m not in values:
                    raise ValidationError(f"alphabet does not define p_{m}")
                term = term * values[m]
            total = total + term
        return total

    def to_json(self) -> dict[str, str]:
        return {",".join(str(p) for p in key): fraction_text(self.coeffs[key])
                for key in sorted(self.coeffs, key=lambda k: (sum(k), k))}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSumPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "PowerSumPoly(0)"
        bits = []
        for key in sorted(self.coeffs, key=lambda k: (sum(k), k)):
            mono = "*".join(f"p{m}" for m in key) or "1"
            bits.append(f"{self.coeffs[key]}*{mono}")
        return "PowerSumPoly(" + " + ".join(bits) + ")"


def exp_truncated(arg: PowerSumPoly, max_weight: int) -> PowerSumPoly:
    """exp of a polynomial with no constant term, truncated by total weight."""
    if arg.coefficient(()):
        raise ValidationError("exp argument must have zero constant term")
    arg = arg.truncate(max_weight)
    total = PowerSumPoly.one()
    power = PowerSumPoly.one()
    k = 1
    while True:
        power = power.times(arg, max_weight)
        if power.is_zero():
            break
        total = total + power.scale(Fraction(1, factorial(k)))
        k += 1
    return total


@lru_cache(maxsize=None)
def complete_homogeneous(k: int) -> PowerSumPoly:
    """Coefficient of z^k in exp(sum_m p_m z^m / m), s_(k); zero for k < 0."""
    guard("schur expansion", as_int("k", k))
    if k < 0:
        return PowerSumPoly.zero()
    if k == 0:
        return PowerSumPoly.one()
    total = PowerSumPoly.zero()
    for m in range(1, k + 1):
        total = total + PowerSumPoly.variable(m) * complete_homogeneous(k - m)
    return total.scale(Fraction(1, k))


@lru_cache(maxsize=None)
def schur_poly(lam: Partition) -> PowerSumPoly:
    """Schur function s_lam as a polynomial in power sums, via Jacobi-Trudi:
    the determinant of [h_{lam_i - i + j}] by minor expansion along the first row.

    Kept on purpose as a route independent of the character recursion: the
    "schur" route of genfun.hypergeometric_series, genfun.hyp_tau_series (so
    genfun.cauchy_littlewood_check) and the MC harness are built on it, and
    the character-side "pochhammer" route is checked against it."""
    parts = as_partition(lam)
    guard("schur expansion", parts.weight())
    size = len(parts)

    @lru_cache(maxsize=None)
    def minor(row: int, cols: tuple[int, ...]) -> PowerSumPoly:
        if row == size:
            return PowerSumPoly.one()
        total = PowerSumPoly.zero()
        for pos, col in enumerate(cols):
            entry = complete_homogeneous(parts[row] - row + col)
            if entry.is_zero():
                continue
            rest = minor(row + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * rest
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return minor(0, tuple(range(size)))


class PowerAlphabet:
    """Finite assignment of values to p_1 ... p_m_max: explicit, one-hot
    (p_infinity), all-equal, q/t, or the traces of a matrix's powers, which
    carry the matrix size.  Operations must reject alphabets truncated below
    the weight they are evaluated at.
    """

    __slots__ = ("values", "m_max", "matrix_size")

    def __init__(self, values: Mapping[int, object], m_max: int, matrix_size: int | None = None):
        self.values = dict(values)
        self.m_max = m_max
        self.matrix_size = matrix_size
        for m in range(1, m_max + 1):
            if m not in self.values:
                raise ValidationError(f"alphabet missing p_{m}")

    @classmethod
    def explicit(cls, values: Mapping[int, object]) -> "PowerAlphabet":
        m_max = max(values, default=0)
        filled = {m: values.get(m, 0) for m in range(1, m_max + 1)}
        return cls(filled, m_max)

    @classmethod
    def p_infinity(cls, m_max: int) -> "PowerAlphabet":
        vals = {m: Fraction(1) if m == 1 else Fraction(0) for m in range(1, m_max + 1)}
        return cls(vals, m_max)

    @classmethod
    def constant(cls, a, m_max: int) -> "PowerAlphabet":
        """The specialization with p_m = a for every m."""
        return cls({m: a for m in range(1, m_max + 1)}, m_max)

    @classmethod
    def qt(cls, q, t, m_max: int) -> "PowerAlphabet":
        """The specialization p_m = (1 - q^m) / (1 - t^m)."""
        if isinstance(q, int):
            q = Fraction(q)
        if isinstance(t, int):
            t = Fraction(t)
        vals = {}
        for m in range(1, m_max + 1):
            denom = 1 - t**m
            if denom == 0:
                raise ValidationError(f"p_{m} undefined: 1 - t^{m} vanishes")
            vals[m] = (1 - q**m) / denom
        return cls(vals, m_max)

    @classmethod
    def from_matrix(cls, matrix, m_max: int) -> "PowerAlphabet":
        """Traces of matrix powers; rows of a square matrix as sequences."""
        rows = [list(row) for row in matrix]
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValidationError("matrix must be square")
        vals: dict[int, object] = {}
        power = rows
        for m in range(1, m_max + 1):
            vals[m] = sum(power[i][i] for i in range(size))
            if m < m_max:
                power = [
                    [sum(power[i][k] * rows[k][j] for k in range(size)) for j in range(size)]
                    for i in range(size)
                ]
        return cls(vals, m_max, matrix_size=size)

    def __repr__(self) -> str:
        return f"PowerAlphabet(m_max={self.m_max}, matrix_size={self.matrix_size})"


def eval_schur(lam, alphabet: PowerAlphabet):
    """s_lam evaluated on an alphabet; exactly 0 for matrix alphabets with
    more rows than the matrix size."""
    lam = as_partition(lam)
    if alphabet.matrix_size is not None and lam.length() > alphabet.matrix_size:
        return 0 if all(isinstance(v, (int, Fraction)) for v in alphabet.values.values()) else 0j
    if lam.weight() > alphabet.m_max:
        raise ValidationError(
            f"alphabet truncated at m_max={alphabet.m_max} cannot evaluate weight {lam.weight()}"
        )
    return schur_poly(lam).evaluate(alphabet.values)


def content_product(r: Callable, n, lam):
    """Product of r(n + j - i) over diagram cells, row by row; exact (a
    Fraction) whenever every factor is."""
    out = Fraction(1)
    for c in as_partition(lam).contents():
        out = out * r(n + c)
    return out


def pochhammer_lambda(a, lam):
    """Product of (a + j - i) over diagram cells."""
    return content_product(lambda x: x, a, lam)
