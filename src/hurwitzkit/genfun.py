"""Truncated formal series over ramification-profile tuples.

The central object is a sparse series whose keys carry the degree d, one
profile partition per alphabet, and integer exponents of bookkeeping
parameters.  The generalized hypergeometric series expands, alphabet by
alphabet, into such keys; its coefficients are the weighted Hurwitz sums
computed independently by the hurwitz module, which is the main
cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Mapping, Sequence

from ._errors import GuardError, ValidationError
from .characters import irrep_dimension, normalized_character
from .partitions import Partition, as_partition, partitions_of
from .symfunc import PowerSumPoly, content_product, exp_truncated, schur_poly


@dataclass(frozen=True)
class SeriesKey:
    degree: int
    profiles: tuple[Partition, ...]
    aux: tuple[int, ...] = ()


class ProfileSeries:
    """Finite mapping from SeriesKey to scalar coefficient, graded by degree."""

    __slots__ = ("terms", "alphabet_count", "aux_names", "d_max")

    def __init__(self, alphabet_count: int, d_max: int, aux_names: tuple[str, ...] = ()):
        self.terms: dict[SeriesKey, object] = {}
        self.alphabet_count = alphabet_count
        self.aux_names = aux_names
        self.d_max = d_max

    def add(self, key: SeriesKey, value) -> None:
        if len(key.profiles) != self.alphabet_count or len(key.aux) != len(self.aux_names):
            raise ValidationError("series key shape mismatch")
        if any(p.weight() != key.degree for p in key.profiles):
            raise ValidationError("profiles in a key must share the degree")
        new = self.terms.get(key, 0) + value
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def coefficient(self, degree: int, profiles=(), aux: tuple[int, ...] = ()):
        key = SeriesKey(degree, tuple(as_partition(p) for p in profiles), tuple(aux))
        return self.terms.get(key, Fraction(0))

    def evaluate(self, alphabets: Sequence, symbols: Mapping[str, object] | None = None,
                 by_degree: bool = False):
        """Plug concrete alphabets into each slot (and values into aux symbols)."""
        if len(alphabets) != self.alphabet_count:
            raise ValidationError("alphabet count mismatch")
        symbols = symbols or {}
        totals: dict[int, object] = {}
        for key, coeff in self.terms.items():
            term = coeff
            for prof, alpha in zip(key.profiles, alphabets):
                for m in prof.parts:
                    if m > alpha.m_max:
                        raise ValidationError(f"alphabet truncated below p_{m}")
                    term = term * alpha.values[m]
            for name, expo in zip(self.aux_names, key.aux):
                if name not in symbols:
                    raise ValidationError(f"no value supplied for symbol {name!r}")
                term = term * symbols[name] ** expo
            totals[key.degree] = totals.get(key.degree, 0) + term
        if by_degree:
            return totals
        return sum(totals.values()) if totals else Fraction(0)

    def items(self):
        return self.terms.items()

    def to_json_list(self) -> list[dict]:
        def fmt(value):
            if isinstance(value, Fraction):
                return f"{value.numerator}/{value.denominator}"
            return value

        out = []
        for key in sorted(
            self.terms,
            key=lambda k: (k.degree, tuple(p.parts for p in k.profiles), k.aux),
        ):
            out.append(
                {
                    "degree": key.degree,
                    "profiles": [list(p.parts) for p in key.profiles],
                    "aux": dict(zip(self.aux_names, key.aux)),
                    "coeff": fmt(self.terms[key]),
                }
            )
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProfileSeries):
            return NotImplemented
        return (
            self.alphabet_count == other.alphabet_count
            and self.aux_names == other.aux_names
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return (
            f"ProfileSeries(alphabets={self.alphabet_count}, d_max={self.d_max}, "
            f"terms={len(self.terms)})"
        )


class ContentFunction:
    """A function evaluated on diagram contents; closed under product and power."""

    def __init__(self, fn: Callable, description: str):
        self._fn = fn
        self.description = description

    def __call__(self, x):
        return self._fn(x)

    @classmethod
    def one(cls) -> "ContentFunction":
        return cls(lambda x: Fraction(1), "1")

    @classmethod
    def rational(cls, numer_shifts: Iterable = (), denom_shifts: Iterable = ()) -> "ContentFunction":
        """r(x) = prod (a_i + x) / prod (b_i + x)."""
        num = tuple(Fraction(a) for a in numer_shifts)
        den = tuple(Fraction(b) for b in denom_shifts)

        def fn(x):
            top = Fraction(1)
            for a in num:
                top *= a + x
            for b in den:
                bottom = b + x
                if bottom == 0:
                    raise ValidationError(f"content function pole at x={x}")
                top /= bottom
            return top

        desc = "*".join(f"(x+{a})" for a in num) or "1"
        if den:
            desc += "/" + "*".join(f"(x+{b})" for b in den)
        return cls(fn, desc)

    @classmethod
    def power(cls, base: "ContentFunction", exponent: int) -> "ContentFunction":
        return cls(lambda x: base(x) ** exponent, f"({base.description})^{exponent}")

    @classmethod
    def tabulated(cls, values: Mapping[int, object]) -> "ContentFunction":
        table = dict(values)

        def fn(x):
            if x not in table:
                raise ValidationError(f"content function not tabulated at {x}")
            return table[x]

        return cls(fn, "tabulated")

    def content_product(self, n, lam) -> object:
        return content_product(self, n, lam)


@dataclass(frozen=True)
class PochhammerParam:
    """One factor (s_lam(p(a)))^exponent in the hypergeometric weight.

    Numeric when value is set; symbolic (expanded in inverse powers of the
    symbol) when symbol is set.
    """

    exponent: int
    value: object | None = None
    symbol: str | None = None

    def __post_init__(self):
        if (self.value is None) == (self.symbol is None):
            raise ValidationError("exactly one of value/symbol must be set")


def _series_mul(a: list[Fraction], b: list[Fraction], trunc: int) -> list[Fraction]:
    out = [Fraction(0)] * (trunc + 1)
    for i, ai in enumerate(a[: trunc + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: trunc + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_pow(u: list[Fraction], n: int, trunc: int) -> list[Fraction]:
    """u(x)^n truncated at x^trunc; u[0] must be nonzero; n may be negative."""
    u = list(u[: trunc + 1]) + [Fraction(0)] * max(0, trunc + 1 - len(u))
    if not u[0]:
        raise ValidationError("series power needs invertible constant term")
    if n < 0:
        inv = [Fraction(0)] * (trunc + 1)
        inv[0] = 1 / u[0]
        for k in range(1, trunc + 1):
            inv[k] = -sum(u[j] * inv[k - j] for j in range(1, k + 1)) / u[0]
        u, n = inv, -n
    out = [Fraction(0)] * (trunc + 1)
    out[0] = Fraction(1)
    for _ in range(n):
        out = _series_mul(out, u, trunc)
    return out


def _schur_coeffs(lam: Partition) -> dict[tuple[int, ...], Fraction]:
    return schur_poly(lam).coeffs


def hypergeometric_series(
    euler: int,
    alphabet_count: int,
    params: Sequence[PochhammerParam] = (),
    cutoff: int | None = None,
    d_max: int = 4,
    route: str = "schur",
    series_trunc: int | None = None,
) -> ProfileSeries:
    """Expansion of the generalized hypergeometric sum over partitions.

    Per partition lam the weight is (s_lam at the delta alphabet)^(euler -
    sum of exponents - alphabet_count) times the Pochhammer-type factors,
    and each alphabet contributes its characteristic-map expansion.  The
    "schur" route works entirely from Jacobi-Trudi polynomials; the
    "pochhammer" route works entirely from character data and content
    products.  Both must produce the identical series.
    """
    if d_max > 8:
        raise GuardError("hypergeometric series guard: d_max <= 8")
    if route not in ("schur", "pochhammer"):
        raise ValidationError(f"unknown route {route!r}")
    symbolic = [p for p in params if p.symbol is not None]
    trunc = d_max if series_trunc is None else series_trunc
    aux_names = tuple(p.symbol for p in symbolic)
    series = ProfileSeries(alphabet_count, d_max, aux_names)
    series.add(SeriesKey(0, (Partition(),) * alphabet_count, (0,) * len(symbolic)), Fraction(1))

    exp_sum = sum(p.exponent for p in params)
    for d in range(1, d_max + 1):
        fact = factorial(d)
        classes = partitions_of(d)
        for lam in classes:
            if cutoff is not None and lam.length() > cutoff:
                continue
            if route == "schur":
                # Jacobi-Trudi, an independent route on purpose: it shares no
                # code with the character data of the "pochhammer" branch.
                coeffs = _schur_coeffs(lam)
                s_inf = coeffs.get((1,) * d, Fraction(0))
                prof_coeff = {delta: coeffs.get(delta.parts, Fraction(0)) for delta in classes}
            else:
                dim_frac = Fraction(irrep_dimension(lam), fact)
                s_inf = dim_frac
                prof_coeff = {
                    delta: dim_frac * normalized_character(lam, delta) for delta in classes
                }
            base = s_inf ** (euler - exp_sum - alphabet_count)

            numeric_factor = Fraction(1)
            sym_series: list[list[Fraction]] = []
            for param in params:
                if route == "schur":
                    # s_lam(p(a)) * a^{-d} as a series in x = 1/a
                    u = [Fraction(0)] * (d + 1)
                    for delta in classes:
                        c = prof_coeff[delta]
                        if c:
                            u[d - delta.length()] += c
                else:
                    # (dim/d!) * prod_cells (1 + content*x)
                    u = [s_inf]
                    for c in lam.contents():
                        u = _series_mul(u, [Fraction(1), Fraction(c)], d)
                if param.value is not None:
                    a = param.value
                    val = sum(
                        u[k] * a ** (d - k) for k in range(min(d, len(u) - 1) + 1)
                    )
                    if param.exponent < 0 and val == 0:
                        raise ValidationError("cannot invert vanishing numeric factor")
                    if isinstance(val, (int, Fraction)):
                        val = Fraction(val)
                    numeric_factor *= val**param.exponent
                else:
                    sym_series.append(_series_pow(u, param.exponent, trunc))

            weight0 = base * numeric_factor
            if not weight0:
                continue

            def emit(profile_tail: tuple[Partition, ...], acc, slot: int):
                if slot == alphabet_count:
                    if len(sym_series) == 0:
                        series.add(SeriesKey(d, profile_tail, ()), acc)
                        return
                    # expand symbolic parameter exponents
                    def emit_sym(idx: int, aux: tuple[int, ...], acc2):
                        if idx == len(sym_series):
                            series.add(SeriesKey(d, profile_tail, aux), acc2)
                            return
                        par = symbolic[idx]
                        for k, wk in enumerate(sym_series[idx]):
                            if wk:
                                emit_sym(idx + 1, aux + (d * par.exponent - k,), acc2 * wk)

                    emit_sym(0, (), acc)
                    return
                for delta in classes:
                    c = prof_coeff[delta]
                    if c:
                        emit(profile_tail + (delta,), acc * c, slot + 1)

            emit((), weight0, 0)
    return series


def fold_alphabet(series: ProfileSeries, index: int, symbol: str) -> ProfileSeries:
    """Specialize alphabet `index` to the constant alphabet p(a): the profile
    monomial p_Delta becomes a^{len(Delta)}, recorded as an aux exponent."""
    if not 0 <= index < series.alphabet_count:
        raise ValidationError("alphabet index out of range")
    out = ProfileSeries(series.alphabet_count - 1, series.d_max, series.aux_names + (symbol,))
    for key, coeff in series.terms.items():
        folded = key.profiles[index]
        rest = key.profiles[:index] + key.profiles[index + 1 :]
        out.add(SeriesKey(key.degree, rest, key.aux + (folded.length(),)), coeff)
    return out


def hyp_tau_series(kind: str, r: ContentFunction, n, d_max: int,
                   cutoff: int | None = None) -> ProfileSeries:
    """Schur sums with content-product coefficients, expanded in profile keys.

    kind "TL": two alphabets, coefficient of (p_A, p*_B) is
    sum_lam r_lam(n) c_{lam,A} c_{lam,B}; kind "BKP": one alphabet with the
    length cutoff.
    """
    if d_max > 8:
        raise GuardError("tau series guard: d_max <= 8")
    if kind not in ("TL", "BKP"):
        raise ValidationError("kind must be TL or BKP")
    slots = 2 if kind == "TL" else 1
    series = ProfileSeries(slots, d_max)
    series.add(SeriesKey(0, (Partition(),) * slots), Fraction(1))
    for d in range(1, d_max + 1):
        for lam in partitions_of(d):
            if cutoff is not None and lam.length() > cutoff:
                continue
            weight = r.content_product(n, lam)
            if not weight:
                continue
            coeffs = _schur_coeffs(lam)
            if kind == "TL":
                for ka, va in coeffs.items():
                    for kb, vb in coeffs.items():
                        series.add(
                            SeriesKey(d, (Partition(ka), Partition(kb))), weight * va * vb
                        )
            else:
                for ka, va in coeffs.items():
                    series.add(SeriesKey(d, (Partition(ka),)), weight * va)
    return series


def tau_tl_series(d_max: int, cutoff: int | None = None) -> ProfileSeries:
    """Two-alphabet diagonal Schur sum (the simplest lattice tau function)."""
    return hyp_tau_series("TL", ContentFunction.one(), 0, d_max, cutoff)


def tau_bkp_series(d_max: int, cutoff: int | None = None) -> ProfileSeries:
    """One-alphabet Schur sum with length cutoff (the simplest BKP-type sum)."""
    return hyp_tau_series("BKP", ContentFunction.one(), 0, d_max, cutoff)


def single_branch_point_series(d_max: int = 8) -> ProfileSeries:
    """Expansion of exp(h^-2 sum p_m^2 c^{2m} / 2m + h^-1 sum_odd p_m c^m / m).

    The coefficient of c^d h^{-len(Delta)} p_Delta is the degree-d projective-
    plane cover count with the single profile Delta (the unbranched count for
    Delta = (1^d)); aux records (c exponent, h^-1 exponent).
    """
    if d_max > 8:
        raise GuardError("single branch point guard: d_max <= 8")
    # Track the h-exponent implicitly: every part of a monomial carries one
    # power of h^-1 (squares contribute two parts), so h-exp = len(Delta).
    arg = PowerSumPoly.zero()
    for m in range(1, d_max + 1):
        if 2 * m <= d_max:
            arg = arg + (PowerSumPoly.variable(m) * PowerSumPoly.variable(m)).scale(
                Fraction(1, 2 * m)
            )
        if m % 2 == 1:
            arg = arg + PowerSumPoly.variable(m).scale(Fraction(1, m))
    full = exp_truncated(arg, d_max)
    series = ProfileSeries(1, d_max, aux_names=("c", "h_inv"))
    for key, coeff in full.coeffs.items():
        prof = Partition(key)
        series.add(SeriesKey(prof.weight(), (prof,), (prof.weight(), prof.length())), coeff)
    return series


def unbranched_cover_coefficients(d_max: int = 12) -> list[Fraction]:
    """Taylor coefficients of exp(c^2/2 + c): degree-d unbranched projective covers."""
    if d_max > 12:
        raise GuardError("unbranched generator guard: d_max <= 12")
    out = []
    for d in range(d_max + 1):
        total = Fraction(0)
        for i in range(d // 2 + 1):
            j = d - 2 * i
            total += Fraction(1, 2**i * factorial(i) * factorial(j))
        out.append(total)
    return out


# --- matrix-integral layouts ------------------------------------------------

_ODD = lambda t: tuple(range(1, t + 1, 2))
_EVEN = lambda t: tuple(range(2, t + 1, 2))


@dataclass(frozen=True)
class PropositionLayout:
    """One enumerated matrix-integral layout and its exact character-sum series.

    slots are alphabet labels: "Ci", products like "C1*C3", the free sets "p"
    and "p*", or "Aprod".  poch_exponent is the exponent of the extra factor
    (s_lam at the all-N alphabet), present for unitary layouts and for the
    single-tau complex layouts whose derivation emits an identity-matrix slot.
    """

    name: str
    matrix_kind: str
    n: int
    t: int
    euler: int
    slots: tuple[str, ...]
    poch_exponent: int
    integrand_degree: int
    pair_applications: int

    @property
    def branch_points(self) -> int:
        return len(self.slots)

    @property
    def signature(self) -> str:
        k = len(self.slots)
        if self.poch_exponent:
            return f"F^{{{self.euler},{k};1}}((N);{self.poch_exponent})"
        return f"F^{{{self.euler},{k};0}}"

    def series(self, N: int, d_max: int, route: str = "schur") -> ProfileSeries:
        params = (
            (PochhammerParam(self.poch_exponent, value=N),) if self.poch_exponent else ()
        )
        return hypergeometric_series(
            self.euler, len(self.slots), params, cutoff=N, d_max=d_max, route=route
        )


def _fixed_slot(indices: tuple[int, ...]) -> str | None:
    return "*".join(f"C{i}" for i in indices) if indices else None


def _make_layout(name, kind, n, t, euler, raw_slots, poch, integrand_deg, pairs):
    slots = []
    for slot in raw_slots:
        if isinstance(slot, tuple):
            label = _fixed_slot(slot)
            if label is None:
                poch += 1  # an empty matrix product is the identity: absorb it
                continue
            slots.append(label)
        else:
            slots.append(slot)
    layout = PropositionLayout(
        name, kind, n, t, euler, tuple(slots), poch, integrand_deg, pairs
    )
    if layout.euler != integrand_deg - 2 * pairs:
        raise ValidationError("layout Euler characteristic fails the degree bookkeeping")
    return layout


def proposition_layout(name: str, n: int, t: int | None = None) -> PropositionLayout:
    """Resolve one of the enumerated integral layouts.

    Complex-matrix layouts: prop1, prop2, int3, int4, int5, int6, chekhov,
    prop1_odd, prop2_odd, odd3, odd4.  Unitary: prop1_u, prop2_u, prop3_u,
    prop4_u, prop1_odd_u, prop2_odd_u, odd3_u, int5_odd_u, int6_odd_u.
    The t parameter is the dagger-reordering depth (complex order-changed
    layouts only; unitary order-changed layouts use t = n).
    """
    if n < 1:
        raise ValidationError("need at least one matrix")
    singles = lambda start: tuple((i,) for i in range(start, n + 1))

    def need_t(parity: str) -> int:
        if t is None:
            raise ValidationError(f"layout {name} needs the t parameter")
        if not 1 <= t <= n:
            raise ValidationError("t must be in 1..n")
        if parity == "even" and t % 2:
            raise ValidationError(f"layout {name} needs even t")
        if parity == "odd" and t % 2 == 0:
            raise ValidationError(f"layout {name} needs odd t")
        return t

    if name == "prop1":
        return _make_layout(name, "complex", n, 0, 2, singles(1) + ("p", "p*"), 0, 4, 1)
    if name == "prop2":
        return _make_layout(name, "complex", n, 0, 2, singles(1) + ((), "p"), 0, 2, 0)
    if name == "int3":
        tt = need_t("even")
        k = tt // 2
        raw = ("p", "p*", _ODD(tt), _EVEN(tt)) + singles(tt + 1)
        return _make_layout(name, "complex", n, tt, 4 - 2 * k, raw, 0, 4, k)
    if name == "int4":
        tt = need_t("odd")
        k = (tt + 1) // 2
        raw = ("p", "p*", _ODD(tt) + _EVEN(tt - 1)) + singles(tt + 1)
        return _make_layout(name, "complex", n, tt, 4 - 2 * k, raw, 0, 4, k)
    if name == "int5":
        tt = need_t("even")
        k = tt // 2
        raw = ("p", _ODD(tt) + _EVEN(tt)) + singles(tt + 1)
        return _make_layout(name, "complex", n, tt, 2 - 2 * k, raw, 0, 2, k)
    if name == "int6":
        tt = need_t("odd")
        k = (tt + 1) // 2
        raw = ("p", _ODD(tt), _EVEN(tt - 1)) + singles(tt + 1)
        return _make_layout(name, "complex", n, tt, 4 - 2 * k, raw, 0, 2, k - 1)
    if name == "chekhov":
        return _make_layout(name, "complex", n, 0, 2, singles(1) + ("p", "Aprod"), 0, 2, 0)
    if name == "prop1_odd":
        return _make_layout(name, "complex", n, 0, 1, singles(1) + ("p",), 0, 3, 1)
    if name == "prop2_odd":
        return _make_layout(name, "complex", n, 0, 1, singles(1) + ((),), 0, 1, 0)
    if name == "odd3":
        tt = need_t("even")
        k = tt // 2
        raw = ("p", _ODD(tt), _EVEN(tt)) + singles(tt + 1)
        return _make_layout(name, "complex", n, tt, 3 - 2 * k, raw, 0, 3, k)
    if name == "odd4":
        tt = need_t("odd")
        k = (tt + 1) // 2
        raw = ("p", _ODD(tt) + _EVEN(tt - 1)) + singles(tt + 1)
        return _make_layout(name, "complex", n, tt, 3 - 2 * k, raw, 0, 3, k)

    if name == "prop1_u":
        return _make_layout(name, "unitary", n, 0, 2, singles(1) + ("p", "p*"), -n, 4, 1)
    if name == "prop2_u":
        return _make_layout(name, "unitary", n, 0, 2, singles(1) + ("p",), 1 - n, 2, 0)
    if name == "prop3_u":
        k, odd = divmod(n, 2)
        if odd:
            raw = ("p", "p*", _ODD(n) + _EVEN(n - 1))
            return _make_layout(name, "unitary", n, n, 4 - 2 * (k + 1), raw, -n, 4, k + 1)
        return _make_layout(name, "unitary", n, n, 4 - 2 * k, ("p", "p*", _ODD(n), _EVEN(n)), -n, 4, k)
    if name == "prop4_u":
        k, odd = divmod(n, 2)
        if odd:
            raw = ("p", _ODD(n), _EVEN(n - 1))
            return _make_layout(name, "unitary", n, n, 4 - 2 * (k + 1), raw, -n, 2, k)
        return _make_layout(name, "unitary", n, n, 2 - 2 * k, ("p", _ODD(n) + _EVEN(n)), -n, 2, k)
    if name == "prop1_odd_u":
        return _make_layout(name, "unitary", n, 0, 1, singles(1) + ("p",), -n, 3, 1)
    if name == "prop2_odd_u":
        return _make_layout(name, "unitary", n, 0, 1, singles(1), 1 - n, 1, 0)
    if name == "odd3_u":
        k, odd = divmod(n, 2)
        if odd:
            raw = ("p", _ODD(n) + _EVEN(n - 1))
            return _make_layout(name, "unitary", n, n, 3 - 2 * (k + 1), raw, -n, 3, k + 1)
        return _make_layout(name, "unitary", n, n, 3 - 2 * k, ("p", _ODD(n), _EVEN(n)), -n, 3, k)
    if name == "int5_odd_u":
        k, odd = divmod(n, 2)
        if odd:
            raise ValidationError("int5_odd_u needs even n")
        return _make_layout(name, "unitary", n, n, 1 - 2 * k, (_ODD(n) + _EVEN(n),), -n, 1, k)
    if name == "int6_odd_u":
        k, odd = divmod(n, 2)
        if not odd:
            raise ValidationError("int6_odd_u needs odd n")
        raw = (_ODD(n), _EVEN(n - 1))
        return _make_layout(name, "unitary", n, n, 3 - 2 * (k + 1), raw, -n, 1, k)

    raise ValidationError(f"unknown layout {name!r}")


LAYOUT_NAMES = (
    "prop1", "prop2", "int3", "int4", "int5", "int6", "chekhov",
    "prop1_odd", "prop2_odd", "odd3", "odd4",
    "prop1_u", "prop2_u", "prop3_u", "prop4_u",
    "prop1_odd_u", "prop2_odd_u", "odd3_u", "int5_odd_u", "int6_odd_u",
)
