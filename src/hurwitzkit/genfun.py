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
from math import factorial, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._errors import (ValidationError, as_int, as_rational, as_tuple, digits, guard,
                      guard_output_size, shown)
from .characters import colength_sums, irrep_dimension, normalized_character
from .partitions import Partition, as_partition, cycle_class_size, partitions_of
from .symfunc import (PowerAlphabet, PowerSumPoly, content_product, eval_schur,
                      exp_truncated, fraction_text, schur_poly)


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
                for m in prof:
                    if m > alpha.m_max:
                        raise ValidationError(f"alphabet truncated below p_{m}")
                    term = term * alpha.values[m]
            for name, expo in zip(self.aux_names, key.aux):
                if name not in symbols:
                    raise ValidationError(f"no value supplied for symbol {shown(name)}")
                term = term * symbols[name] ** expo
            totals[key.degree] = totals.get(key.degree, 0) + term
        if by_degree:
            return totals
        return sum(totals.values()) if totals else Fraction(0)

    def items(self):
        return self.terms.items()

    def json_terms(self) -> Iterator[dict]:
        """The terms as JSON-ready dicts, sorted by degree, profiles and aux."""
        for key in sorted(
            self.terms,
            key=lambda k: (k.degree, k.profiles, k.aux),
        ):
            coeff = self.terms[key]
            yield {
                "degree": key.degree,
                "profiles": [list(p) for p in key.profiles],
                "aux": dict(zip(self.aux_names, key.aux)),
                "coeff": fraction_text(coeff) if isinstance(coeff, Fraction) else coeff,
            }

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
    """A rational-valued function evaluated on diagram contents."""

    def __init__(self, fn: Callable, description: str):
        self._fn = fn
        self.description = description

    def __call__(self, x):
        if not isinstance(value := self._fn(x), (int, Fraction)):
            raise ValidationError(f"content function {self.description} is not rational at {x}")
        return value

    @classmethod
    def one(cls) -> "ContentFunction":
        return cls(lambda x: Fraction(1), "1")

    @classmethod
    def rational(cls, numer_shifts: Iterable = (), denom_shifts: Iterable = ()) -> "ContentFunction":
        """r(x) = prod (a_i + x) / prod (b_i + x)."""
        num = tuple(as_rational("shift", a) for a in numer_shifts)
        den = tuple(as_rational("shift", b) for b in denom_shifts)
        guard("content shift", max((digits(part) for q in num + den
                                    for part in (q.numerator, q.denominator)), default=0))

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
    def tabulated(cls, values: Mapping[int, object]) -> "ContentFunction":
        table = dict(values)

        def fn(x):
            if x not in table:
                raise ValidationError(f"content function not tabulated at {x}")
            return table[x]

        return cls(fn, "tabulated")


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
        guard("pochhammer exponent", abs(as_int("Pochhammer exponent", self.exponent)))
        if self.symbol is None:
            as_rational("Pochhammer value", self.value)


def _series_mul(a: list[Fraction], b: list[Fraction], trunc: int) -> list[Fraction]:
    out = [Fraction(0)] * (trunc + 1)
    for i, ai in enumerate(a[: trunc + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: trunc + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_pow(u: list[Fraction], n: int, trunc: int) -> list[Fraction]:
    """u(x)^n truncated at x^trunc by repeated products; n may be negative, as
    u[0] = dim lam / d! > 0 on both routes of `_lambda_weight`.  _weighted_colength_sum
    raises prod_cells (1 + content x) by Miller's recurrence instead; the series
    tests compare the two, so each is the other's independent check."""
    u = list(u[: trunc + 1]) + [Fraction(0)] * max(0, trunc + 1 - len(u))
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


def _check_sizes(d_max: int, cutoff: int | None = None, limit: str = "series degree") -> None:
    """Check d_max >= 0 and a cutoff (matrix size N) >= 1 as integers; guard d_max."""
    d_max = as_int("d_max", d_max, 0)
    if cutoff is not None:
        as_int("cutoff N", cutoff, 1)
    guard(limit, d_max)


def _lambda_weight(lam: Partition, euler: int, alphabet_count: int,
                   params: Sequence[PochhammerParam], route: str, trunc: int):
    """The term of lam in the hypergeometric sum, in three parts: the base
    power (s_lam at the delta alphabet)^(euler - sum of exponents -
    alphabet_count) times the numeric Pochhammer factors; the nonzero profile
    coefficients {Delta: c} of s_lam = sum c p_Delta; and per symbolic
    parameter a its factor {exponent of a: coefficient}, truncated after trunc
    powers of 1/a.  The "schur" route, from Jacobi-Trudi polynomials alone, is
    the independent oracle on purpose: it shares no code with the character
    data and content products of the "pochhammer" route.  Both must give the
    identical weight."""
    d = lam.weight()
    classes = partitions_of(d)
    if route == "schur":
        coeffs = schur_poly(lam).coeffs
        s_inf = coeffs.get((1,) * d, Fraction(0))
        prof_coeff = {delta: coeffs[delta] for delta in classes if delta in coeffs}
        # s_lam(p(a)) * a^{-d} as a series in x = 1/a
        u = [Fraction(0)] * (d + 1)
        for parts, c in prof_coeff.items():
            u[d - len(parts)] += c
    else:
        s_inf = Fraction(irrep_dimension(lam), factorial(d))
        prof_coeff = {delta: c for delta in classes
                      if (c := s_inf * normalized_character(lam, delta))}
        # (dim/d!) * prod_cells (1 + content*x)
        u = [s_inf * e for e in colength_sums(lam)]
    weight = s_inf ** (euler - sum(p.exponent for p in params) - alphabet_count)

    sym_series: list[dict[int, Fraction]] = []
    for param in params:
        if param.value is not None:
            a = param.value
            val = sum(w * a ** (d - k) for k, w in enumerate(u))
            if param.exponent < 0 and val == 0:
                raise ValidationError("cannot invert vanishing numeric factor")
            weight *= val**param.exponent
        else:
            ser = _series_pow(u, param.exponent, trunc)
            sym_series.append({d * param.exponent - k: w for k, w in enumerate(ser) if w})
    return weight, prof_coeff, sym_series


def _expand(series: ProfileSeries, d: int, terms: Iterable[tuple]) -> None:
    """Add to series, for each lam of degree d given as (weight, {Delta: c_Delta},
    symbolic factors) with weight != 0, weight * prod_slots (sum c_Delta p_Delta) * the
    symbolic factors, one key per profiles (outer) and exponents (inner); Delta may be
    given as a Partition or as its tuple.  A key sums the integers its exact terms are
    times W * prod z_Delta > 0 (c_Delta * z_Delta is integral, W the lcm of the
    weight-times-symbolic denominators): zero tests and key order hold."""
    classes = partitions_of(d)
    canonical = dict(zip(classes, classes))  # a plain-tuple Delta to its Partition
    z = {delta: factorial(d) // cycle_class_size(delta) for delta in classes}
    folded = []
    for weight, prof_coeff, sym_series in (term for term in terms if term[0]):
        by_aux = {(): weight}
        for factor in sym_series:
            by_aux = {aux + (e,): w * c for aux, w in by_aux.items() for e, c in factor.items()}
        cz = {canonical[delta]: c.numerator * z[delta] // c.denominator
              for delta, c in prof_coeff.items()}
        folded.append((by_aux, cz))
    common = lcm(*(w.denominator for by_aux, _ in folded for w in by_aux.values()))
    sums: dict[tuple, int] = {}
    for by_aux, cz in folded:
        scaled = [(aux, w.numerator * (common // w.denominator)) for aux, w in by_aux.items()]
        choices = [((), 1)]
        for _ in range(series.alphabet_count):
            choices = [(profs + (delta,), acc * c) for profs, acc in choices
                       for delta, c in cz.items()]
        for profs, acc in choices:
            for aux, w in scaled:
                key = (profs, aux)
                new = sums.get(key, 0) + acc * w
                if new:
                    sums[key] = new
                else:
                    del sums[key]
    for (profs, aux), total in sums.items():
        series.terms[SeriesKey(d, profs, aux)] = Fraction(total, common * prod(map(z.get, profs)))


def hypergeometric_series(
    euler: int,
    alphabet_count: int,
    params: Sequence[PochhammerParam] = (),
    cutoff: int | None = None,
    d_max: int = 4,
    route: str = "schur",
    series_trunc: int | None = None,
) -> ProfileSeries:
    """Expansion of the generalized hypergeometric sum over partitions: each
    lam of length <= cutoff contributes its `_lambda_weight`, expanded into
    profile keys.  Both routes must produce the identical series."""
    euler, alphabet_count = as_int("euler", euler), as_int("alphabet_count", alphabet_count, 0)
    _check_sizes(d_max, cutoff)
    # p(d) >= 2 for d >= 2, so an exponent of 17 already passes the bound.
    guard("series profile keys",
          sum(len(partitions_of(d)) ** min(alphabet_count, 17) for d in range(d_max + 1)))
    if route not in ("schur", "pochhammer"):
        raise ValidationError(f"unknown route {shown(route)}")
    trunc = as_int("series_trunc", d_max if series_trunc is None else series_trunc, 0)
    guard("weight order", trunc)
    guard_output_size(euler, d_max, alphabet_count)  # a coefficient is H(E, d, Delta_1..Delta_k)
    aux_names = tuple(p.symbol for p in params if p.symbol is not None)
    series = ProfileSeries(alphabet_count, d_max, aux_names)
    series.add(SeriesKey(0, (Partition(),) * alphabet_count, (0,) * len(aux_names)), Fraction(1))
    for d in range(1, d_max + 1):
        _expand(series, d, (_lambda_weight(lam, euler, alphabet_count, params, route, trunc)
                            for lam in partitions_of(d) if cutoff is None or lam.length() <= cutoff))
    return series


def fold_alphabet(series: ProfileSeries, index: int, symbol: str) -> ProfileSeries:
    """Specialize alphabet `index` to the constant alphabet p(a): the profile
    monomial p_Delta becomes a^{len(Delta)}, recorded as an aux exponent."""
    if not 0 <= as_int("index", index) < series.alphabet_count:
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
    n = as_int("n", n)
    _check_sizes(d_max, cutoff)
    if kind not in ("TL", "BKP"):
        raise ValidationError("kind must be TL or BKP")
    series = ProfileSeries(2 if kind == "TL" else 1, d_max)
    series.add(SeriesKey(0, (Partition(),) * series.alphabet_count), Fraction(1))
    for d in range(1, d_max + 1):
        weights = ((content_product(r, n, lam), lam) for lam in partitions_of(d)
                   if cutoff is None or lam.length() <= cutoff)
        _expand(series, d, ((w, schur_poly(lam).coeffs, ()) for w, lam in weights if w))
    return series


def cauchy_littlewood_check(d_max: int) -> bool:
    """Degree-by-degree comparison of exp(sum p*_m p_m / m) with sum_lam s_lam(p) s_lam(p*).

    The right side is the TL series of r = 1, so the check runs the profile
    expansion `_expand` that every series uses; the left side, with
    x_m = p_m p*_m, keys each monomial x_Delta as (Delta, Delta).  Equality is
    exact."""
    right = hyp_tau_series("TL", ContentFunction.one(), 0, d_max)
    diagonal = exp_truncated(PowerSumPoly({(m,): Fraction(1, m) for m in range(1, d_max + 1)}), d_max)
    return right.terms == {SeriesKey(sum(delta), (delta,) * 2): c
                           for delta, c in diagonal.coeffs.items()}


def single_branch_point_series(d_max: int = 8) -> ProfileSeries:
    """Expansion of exp(h^-2 sum p_m^2 c^{2m} / 2m + h^-1 sum_odd p_m c^m / m).

    The coefficient of c^d h^{-len(Delta)} p_Delta is the degree-d projective-
    plane cover count with the single profile Delta (the unbranched count for
    Delta = (1^d)); aux records (c exponent, h^-1 exponent).
    """
    _check_sizes(d_max)
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
    _check_sizes(d_max, limit="unbranched generator")
    out = []
    for d in range(d_max + 1):
        total = Fraction(0)
        for i in range(d // 2 + 1):
            j = d - 2 * i
            total += Fraction(1, 2**i * factorial(i) * factorial(j))
        out.append(total)
    return out


# --- matrix-integral layouts ------------------------------------------------

# name -> (shape, matrix kind, t rule, constant).  The shape lists the tau
# factors, one polygon each between "|" or one polygon for both daggered
# halves: a TL factor carries a free alphabet, a BKP factor none.  The t rule
# fixes the depth t, and so the dagger order sigma: "none" (plain reversal),
# "even"/"odd" (a given t of that parity), "n" (t = n), "n even"/"n odd" (t =
# n of that parity).  The constant is a fixed matrix that closes the word.
_FAMILIES = {
    "prop1": ("TL|TL", "complex", "none", None),
    "prop2": ("TL", "complex", "none", None),
    "int3": ("TL|TL", "complex", "even", None),
    "int4": ("TL|TL", "complex", "odd", None),
    "int5": ("TL", "complex", "even", None),
    "int6": ("TL", "complex", "odd", None),
    "chekhov": ("TL", "complex", "none", "Aprod"),
    "prop1_odd": ("BKP|TL", "complex", "none", None),
    "prop2_odd": ("BKP", "complex", "none", None),
    "odd3": ("BKP|TL", "complex", "even", None),
    "odd4": ("BKP|TL", "complex", "odd", None),
    "prop1_u": ("TL|TL", "unitary", "none", None),
    "prop2_u": ("TL", "unitary", "none", None),
    "prop3_u": ("TL|TL", "unitary", "n", None),
    "prop4_u": ("TL", "unitary", "n", None),
    "prop1_odd_u": ("BKP|TL", "unitary", "none", None),
    "prop2_odd_u": ("BKP", "unitary", "none", None),
    "odd3_u": ("BKP|TL", "unitary", "n", None),
    "int5_odd_u": ("BKP", "unitary", "n even", None),
    "int6_odd_u": ("BKP", "unitary", "n odd", None),
}
LAYOUT_NAMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class PropositionLayout:
    """One matrix-integral layout: its tau factors' words and what gluing them
    derives.

    factors pairs each factor's free alphabet ("p", "p*"; None for BKP) with
    its word, whose letters are (i, 1) for Z_i, (i, -1) for Z_i^dag and (i, 0)
    for the fixed matrix C_i.  vertices are the non-empty C-index words left
    once every Z is integrated out, each written from its smallest index;
    index 0 is the constant.  poch_exponent is the exponent of the extra factor (s_lam at the
    all-N alphabet): +1 per empty vertex, -n for unitary matrices.
    """

    name: str
    matrix_kind: str
    n: int
    t: int
    factors: tuple[tuple[str | None, tuple[tuple[int, int], ...]], ...]
    constant: str | None
    vertices: tuple[tuple[int, ...], ...]
    euler: int
    poch_exponent: int
    pair_applications: int

    @property
    def integrand_degree(self) -> int:
        return sum(2 if alphabet else 1 for alphabet, _ in self.factors)

    @property
    def slots(self) -> tuple[str, ...]:
        """Slot labels: the TL alphabets, then the vertex products."""
        labels = ("*".join(f"C{i}" if i else self.constant for i in v) for v in self.vertices)
        return tuple(alphabet for alphabet, _ in self.factors if alphabet) + tuple(labels)

    @property
    def branch_points(self) -> int:
        return len(self.slots)

    @property
    def signature(self) -> str:
        k = len(self.slots)
        if self.poch_exponent:
            return f"F^{{{self.euler},{k};1}}((N);{self.poch_exponent})"
        return f"F^{{{self.euler},{k};0}}"

    def _params(self, N: int) -> tuple[PochhammerParam, ...]:
        return (PochhammerParam(self.poch_exponent, value=N),) if self.poch_exponent else ()

    def series(self, N: int, d_max: int) -> ProfileSeries:
        _check_sizes(d_max, N)  # before N is a Pochhammer value
        return hypergeometric_series(
            self.euler, len(self.slots), self._params(N), cutoff=N, d_max=d_max
        )

    def value(self, N: int, d_max: int, alphabets: Sequence[PowerAlphabet]):
        """series(N, d_max).evaluate(alphabets) without the profile expansion:
        1 + the sum of `term` over |lam| <= d_max."""
        _check_sizes(d_max, as_int("N", N))
        if len(alphabets) != len(self.slots):
            raise ValidationError("alphabet count mismatch")
        return sum((self.term(lam, N, alphabets) for d in range(1, d_max + 1)
                    for lam in partitions_of(d)), start=Fraction(1))

    def term(self, lam: Partition, N: int, alphabets: Sequence[PowerAlphabet]):
        """The weight of lam times s_lam at each slot's alphabet; 0 when lam
        has more than N rows."""
        if lam.length() > N:
            return 0
        weight = _lambda_weight(lam, self.euler, len(alphabets), self._params(N), "schur",
                                lam.weight())[0]
        return prod((eval_schur(lam, a) for a in alphabets), start=weight)


def _dagger_order(name: str, rule: str, two_polygons: bool, n: int,
                  t: int | None) -> tuple[int, tuple[int, ...]]:
    """The depth t a layout's t rule fixes, and its dagger order sigma:
    Zn^dag ... Z(t+1)^dag followed by Z1^dag ... Zt^dag on one polygon, or by
    Z2^dag ... Zt^dag Z1^dag on a second one; t <= 1 is plain reversal.  n is
    checked first, so a guarded n builds no order.  A t that the rule fixes
    otherwise is refused, not ignored."""
    n = as_int("n", n, 1)
    guard("layout matrices", n)
    if rule == "none":
        if t is not None:
            raise ValidationError(f"layout {name} takes no t")
        t = 0
    elif rule.startswith("n"):
        if rule != "n" and (n % 2 == 0) != (rule == "n even"):
            raise ValidationError(f"{name} needs {rule.split()[1]} n")
        if t is not None and t != n:
            raise ValidationError(f"layout {name} fixes t = n = {n}")
        t = n
    elif t is None:
        raise ValidationError(f"layout {name} needs the t parameter")
    elif not 1 <= as_int("t", t) <= n:
        raise ValidationError("t must be in 1..n")
    elif (t % 2 == 0) != (rule == "even"):
        raise ValidationError(f"layout {name} needs {rule} t")
    cut = max(t, 1)
    tail = (*range(2, cut + 1), 1) if two_polygons else range(1, cut + 1)
    return t, (*range(n, cut, -1), *tail)


def _words(two_polygons: bool, sigma: Sequence[int], constant: bool) -> tuple[tuple, ...]:
    """Z1 C1 ... Zn Cn, then the daggers in the order sigma, on the same polygon
    or on a second one; the constant's letter (0, 0) closes the word."""
    forward = tuple(letter for i in range(1, len(sigma) + 1) for letter in ((i, 1), (i, 0)))
    back = tuple((i, -1) for i in sigma) + (((0, 0),) if constant else ())
    return (forward, back) if two_polygons else (forward + back,)


def _glue(words: Sequence[tuple], n: int) -> tuple[list[tuple], int]:
    """Integrate Z_1 ... Z_n out of the product of s_lam(word) by the two
    lemma moves, s(A Z B Z^dag) -> s(A) s(B) within one word and
    s(A Z) s(Z^dag B) -> s(AB) across two; return the words left and the
    number of merging moves."""
    words = list(words)
    merges = 0
    for i in range(1, n + 1):
        a = next(k for k, w in enumerate(words) if (i, 1) in w)
        b = next(k for k, w in enumerate(words) if (i, -1) in w)
        if a == b:
            w = words[a]
            j = w.index((i, 1))
            w = w[j:] + w[:j]  # Z B Z^dag A
            k = w.index((i, -1))
            words[a:a + 1] = [w[k + 1:], w[1:k]]
        else:
            wa, wb = words[a], words[b]
            j, k = wa.index((i, 1)), wb.index((i, -1))
            words[a] = wa[j + 1:] + wa[:j] + wb[k + 1:] + wb[:k]
            del words[b]
            merges += 1
    return words, merges


def build_layout(shape: str, kind: str, sigma: Sequence[int], constant: str | None = None,
                 name: str | None = None, t: int = 0) -> PropositionLayout:
    """The layout of one or two tau factors ("TL" or "BKP" each, "|" between
    two polygons) over n = len(sigma) matrices of the kind ("complex" or
    "unitary"): Z1 C1 ... Zn Cn against the daggers in the order sigma, closed
    by the constant if one is named, glued by the two lemma moves.  The
    vertices are the non-empty words left, each written from its smallest
    index; E = (#TL factors) - n + (#vertices, the empty ones included); each
    empty vertex is a Pochhammer factor, and each unitary matrix one to the
    power -1.  name and t only label the layout."""
    kinds = shape.split("|") if isinstance(shape, str) else [None]
    sigma, t = as_tuple("sigma", sigma, lambda i: i), as_int("t", t)
    n = len(sigma)
    if len(kinds) > 2 or not set(kinds) <= {"TL", "BKP"} or kind not in ("complex", "unitary"):
        raise ValidationError(f"unknown shape {shown(shape)} or matrix kind {shown(kind)}")
    if n < 1 or {type(i) for i in sigma} != {int} or sorted(sigma) != list(range(1, n + 1)):
        raise ValidationError(f"sigma must order 1..n for some n >= 1, got {shown(sigma)}")
    guard("layout matrices", n)
    words = _words(len(kinds) == 2, sigma, constant is not None)
    alphabets = iter(("p", "p*"))
    factors = tuple((next(alphabets) if k == "TL" else None, w) for k, w in zip(kinds, words))
    left, merges = _glue(words, n)
    indices = [[i for i, _ in word] for word in left]
    vertices = tuple(sorted(tuple(v[v.index(min(v)):] + v[:v.index(min(v))])
                            for v in indices if v))
    empty = len(left) - len(vertices)
    return PropositionLayout(name or shape, kind, n, t, factors, constant, vertices,
                             kinds.count("TL") - n + len(left),
                             empty - (n if kind == "unitary" else 0), merges)


def proposition_layout(name: str, n: int, t: int | None = None) -> PropositionLayout:
    """One of the LAYOUT_NAMES: the `build_layout` of its family-table row, with
    the dagger order its t rule fixes.  t is the depth of that order for the
    complex order-changed layouts; the unitary ones use t = n."""
    if not isinstance(name, str) or name not in _FAMILIES:
        raise ValidationError(f"unknown layout {shown(name)}")
    shape, kind, rule, constant = _FAMILIES[name]
    depth, sigma = _dagger_order(name, rule, "|" in shape, n, t)
    return build_layout(shape, kind, sigma, constant, name, depth)
